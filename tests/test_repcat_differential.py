"""The unit filtration, built from subrepresentations split along
coordinate blocks, against the generic solves it replaces; Hom
spaces solved as sparse groups against the dense system they replace; the
projective modules built from the relations against the dense ones read
off the quotient."""

import random
from pathlib import Path as FilePath

import pytest

from quivertt.dsl import parse_quiver_file
from quivertt.fields import QQ, PrimeField
from quivertt.linalg import Matrix
from quivertt.path_algebra import PathAlgebra
from quivertt.quiver import Arrow, Path, Quiver, enumerate_paths
from quivertt.randgen import (random_representation, random_tensor_quiver,
                              representation_menu)
from quivertt.repcat import (RepresentationError, Representation, _split,
                             hom_space, module_representation, simple_object,
                             unit_filtration, unit_object)

from conftest import FIXTURE_NAMES, element_types, load_fixture
from fields_oracle import oracle_field
from reconstruct_oracles import _dense_probe
from repcat_oracles import (hom_space_oracle, path_action_oracle,
                            unit_filtration_oracle)

FIELDS = [QQ, PrimeField(101)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_coordinate_split_of_a_known_instance(field):
    # on 1 -> 2 with a 3x2 arrow matrix, keep e_2, e_0 at vertex 2 and e_1
    # at vertex 1: the blocks are read in the order the coordinates are
    # given, and the quotient keeps the rest in increasing order
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    m = Matrix(3, 2, [[1, 4], [2, 0], [3, 5]], field)
    rep = Representation(q, {"1": 2, "2": 3}, {"a": m}, field)
    sub, quot = _split(rep, {"1": [1], "2": [2, 0]})
    assert sub.arrow_maps["a"] == Matrix(2, 1, [[5], [4]], field)
    assert quot.arrow_maps["a"] == Matrix(1, 1, [[2]], field)
    with pytest.raises(RepresentationError, match="arrow a"):
        _split(rep, {"1": [0], "2": [2]})


def of_spec(spec):
    return spec.quiver, spec.relations


def filtration_instances():
    for name in FIXTURE_NAMES:
        yield pytest.param(lambda n=name: of_spec(load_fixture(n)), id=name)
    for seed in range(100):
        yield pytest.param(lambda s=seed: random_tensor_quiver(
            random.Random(s), max_vertices=6, max_arrows=10), id=f"random{seed}")


@pytest.mark.parametrize("make", list(filtration_instances()))
def test_unit_filtration_matches_oracle(make):
    quiver, relations = make()
    for field in FIELDS:
        steps = unit_filtration(quiver, relations, field)
        assert steps == unit_filtration_oracle(quiver, relations, field)


def test_path_action_matches_identity_start(rng):
    for _ in range(10):
        quiver, relations = random_tensor_quiver(rng)
        rep = random_representation(rng, representation_menu(quiver,
                                                             relations))
        for p in enumerate_paths(quiver)[0]:
            assert rep.path_action(p) == path_action_oracle(rep, p)
    # a trivial path on a zero space is the 0x0 identity
    q = Quiver(("1",), ())
    rep = Representation(q, {"1": 0}, {})
    assert rep.path_action(Path("1", "1", ())) == Matrix.identity(0)


HOM_FIELDS = [QQ, PrimeField(2), PrimeField(101)]


def assert_same_hom_space(v, w):
    got = hom_space(v, w)
    assert [f.components for f in got] == [
        f.components for f in hom_space_oracle(v, w)]
    assert {type(x) for f in got for m in f.components.values()
            for row in m.entries for x in row} <= set(element_types(v.field))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("field", HOM_FIELDS, ids=str)
def test_hom_space_matches_dense_oracle_on_fixture_objects(name, field):
    spec = load_fixture(name)
    quiver = spec.quiver
    objects = ([unit_object(quiver, field)]
               + [simple_object(quiver, x, field) for x in quiver.vertices]
               + [module_representation(quiver, spec.relations, field, x)
                  for x in quiver.vertices])
    for v in objects:
        for w in objects:
            assert_same_hom_space(v, w)


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("field", HOM_FIELDS, ids=str)
def test_hom_space_matches_dense_oracle_on_random_pairs(seed, field):
    rng = random.Random(seed)
    quiver, relations = random_tensor_quiver(rng)
    menu = representation_menu(quiver, relations, field)
    v = random_representation(rng, menu)
    w = random_representation(rng, menu)
    assert_same_hom_space(v, w)
    assert_same_hom_space(w, v)


# -- the projective modules M_n against the quotient's dense ones -------

SPEC_DIR = FilePath(__file__).resolve().parent / "specs"
# the moduli each spec is read over, None for QQ: fractions with a
# denominator divisible by 2 have no image in F_2
SPEC_MODULI = {
    "diamond": (None, 101),
    "weighted": (None, 101),
    "field_sensitive": (None, 2, 101),
    "half": (None, 2, 101),
    "first_arrow_transpose": (None, 2, 101),
}


def fixture_instance(name):
    spec = load_fixture(name)
    return spec.quiver, spec.relations


def spec_instance(name):
    spec = parse_quiver_file(SPEC_DIR / f"{name}.quiver")
    return spec.quiver, spec.relations


def random_instance(seed):
    return random_tensor_quiver(random.Random(seed), max_vertices=6,
                                max_arrows=10)


def projective_cases():
    for field in HOM_FIELDS:
        cases = [(fixture_instance, name) for name in FIXTURE_NAMES]
        cases += [(spec_instance, name)
                  for name, moduli in SPEC_MODULI.items()
                  if getattr(field, "p", None) in moduli]
        cases += [(random_instance, seed) for seed in range(60)]
        for make, arg in cases:
            yield pytest.param(make, arg, field, id=f"{arg}-{field}")


@pytest.mark.parametrize("make, arg, field", list(projective_cases()))
def test_module_representation_matches_dense_probe(make, arg, field):
    alg = PathAlgebra(*make(arg), field)
    lift = oracle_field(field)
    for n in alg.quiver.vertices:
        got = module_representation(alg.quiver, alg.relations, field, n)
        want = _dense_probe(alg, n)
        assert got.dims == want.dims
        for label, m in got.arrow_maps.items():
            assert [[lift(x) for x in row] for row in m.entries] \
                == [list(row) for row in want.arrow_maps[label].entries]
        assert {type(x) for m in got.arrow_maps.values()
                for row in m.entries for x in row} <= set(element_types(field))
