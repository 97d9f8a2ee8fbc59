"""Subrepresentations split along coordinate blocks, and the unit
filtration built from them, against the generic solves they replace; Hom
spaces solved as sparse groups against the dense system they replace."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from quivertt.fields import QQ, PrimeField
from quivertt.linalg import Matrix
from quivertt.path_algebra import PathAlgebra
from quivertt.quiver import Arrow, Path, Quiver, enumerate_paths
from quivertt.randgen import random_representation, random_tensor_quiver
from quivertt.repcat import (RepresentationError, Representation, hom_space,
                             module_representation, simple_object,
                             sub_quotient, unit_filtration, unit_object)

from conftest import (FIXTURE_NAMES, element_types, load_fixture,
                      unit_lower_triangular)
from repcat_oracles import (hom_space_oracle, path_action_oracle,
                            sub_quotient_oracle, unit_filtration_oracle)

FIELDS = [QQ, PrimeField(101)]


@st.composite
def splits(draw, field):
    """A random representation and per-vertex lists of independent
    vectors.  They start as distinct standard basis vectors in shuffled
    order.  The (rest x kept) block of every arrow is zeroed, so the span
    is stable, and then half the draws put one nonzero entry into each such
    block that is not empty.  Some draws scale one vector by 2.  Last,
    each vertex changes basis by a random unit lower-triangular T_v: each
    arrow matrix A becomes T_t A T_s^-1 and each vector b becomes T_v b.
    That keeps stable draws stable and unstable ones unstable, and it moves
    the span off the standard vectors, where the complements that pivot at
    the first and at the last nonzero entry differ.  Some draws pass the
    vectors as plain ints."""
    n = draw(st.integers(1, 4))
    verts = tuple(str(i) for i in range(n))
    pairs = draw(st.lists(st.tuples(st.sampled_from(verts),
                                    st.sampled_from(verts)), max_size=6))
    quiver = Quiver(verts, tuple(Arrow(f"a{k}", s, t)
                                 for k, (s, t) in enumerate(pairs)))
    dims = {v: draw(st.integers(0, 3)) for v in verts}
    kept = {}
    for v in verts:
        order = draw(st.permutations(range(dims[v])))
        kept[v] = order[:draw(st.integers(0, dims[v]))]
    stable = draw(st.booleans())
    entry = st.integers(-3, 3)
    maps = {}
    for a in quiver.arrows:
        rows = [[draw(entry) for _ in range(dims[a.source])]
                for _ in range(dims[a.target])]
        off = [(i, j) for i in range(dims[a.target]) if i not in kept[a.target]
               for j in kept[a.source]]
        for i, j in off:
            rows[i][j] = 0
        if off and not stable:
            i, j = draw(st.sampled_from(off))
            rows[i][j] = draw(st.sampled_from([-2, -1, 1, 2]))
        maps[a.label] = Matrix(dims[a.target], dims[a.source], rows, field)
    bases = {v: [tuple(int(r == i) for r in range(dims[v])) for i in kept[v]]
             for v in verts}
    scaled = [v for v in verts if kept[v]]
    if scaled and draw(st.integers(0, 4)) == 0:
        v = draw(st.sampled_from(scaled))
        bases[v][0] = tuple(2 * c for c in bases[v][0])
    change = {v: draw(unit_lower_triangular(dims[v])) for v in verts}
    rep = Representation(quiver, dims, {
        a.label: (Matrix(dims[a.target], dims[a.target],
                         change[a.target][0], field)
                  @ maps[a.label]
                  @ Matrix(dims[a.source], dims[a.source],
                           change[a.source][1], field))
        for a in quiver.arrows}, field)
    as_ints = draw(st.booleans())
    coerce = int if as_ints else field
    bases = {v: [tuple(coerce(sum(x * c for x, c in zip(row, b)))
                       for row in change[v][0]) for b in bases[v]]
             for v in verts}
    return rep, bases


def entry_types(result):
    sub, quot, incl, proj = result
    mats = (list(sub.arrow_maps.values()) + list(quot.arrow_maps.values())
            + list(incl.components.values()) + list(proj.components.values()))
    return {type(x) for m in mats for row in m.entries for x in row}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sub_quotient_matches_oracle(field, data):
    rep, bases = data.draw(splits(field))
    try:
        want = sub_quotient_oracle(rep, bases)
    except RepresentationError as err:
        with pytest.raises(RepresentationError) as got:
            sub_quotient(rep, bases)
        # the same first unstable arrow, in `quiver.arrows` order
        assert str(got.value) == str(err)
        return
    got = sub_quotient(rep, bases)
    assert got == want
    assert entry_types(got) <= set(element_types(field))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_coordinate_split_of_a_known_instance(field):
    # on 1 -> 2 with a 3x2 arrow matrix, keep e_2, e_0 at vertex 2 and e_1
    # at vertex 1: the blocks are read in the order the vectors are given
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    m = Matrix(3, 2, [[1, 4], [2, 0], [3, 5]], field)
    rep = Representation(q, {"1": 2, "2": 3}, {"a": m}, field)
    e = lambda i, d: tuple(field.one if r == i else field.zero for r in range(d))
    sub, quot, incl, proj = sub_quotient(rep, {"1": [e(1, 2)],
                                               "2": [e(2, 3), e(0, 3)]})
    assert sub.arrow_maps["a"] == Matrix(2, 1, [[5], [4]], field)
    assert quot.arrow_maps["a"] == Matrix(1, 1, [[2]], field)
    assert incl.components["2"] == Matrix(3, 2, [[0, 1], [0, 0], [1, 0]], field)
    assert proj.components["1"] == Matrix(1, 2, [[1, 0]], field)
    assert incl.is_natural() and proj.is_natural()
    with pytest.raises(RepresentationError, match="arrow a"):
        sub_quotient(rep, {"1": [e(0, 2)], "2": [e(2, 3)]})


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
        rep = random_representation(rng, quiver, relations)
        for p in enumerate_paths(quiver)[0]:
            assert rep.path_action(p) == path_action_oracle(rep, p)
    # a trivial path on a zero space is the 0x0 identity
    q = Quiver(("1",), ())
    rep = Representation(q, {"1": 0}, {})
    assert rep.path_action(Path.trivial("1")) == Matrix.identity(0)


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
    alg = PathAlgebra(quiver, spec.relations, field)
    objects = ([unit_object(quiver, field)]
               + [simple_object(quiver, x, field) for x in quiver.vertices]
               + [module_representation(alg, x) for x in quiver.vertices])
    for v in objects:
        for w in objects:
            assert_same_hom_space(v, w)


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("field", HOM_FIELDS, ids=str)
def test_hom_space_matches_dense_oracle_on_random_pairs(seed, field):
    rng = random.Random(seed)
    quiver, relations = random_tensor_quiver(rng)
    v = random_representation(rng, quiver, relations, field)
    w = random_representation(rng, quiver, relations, field)
    assert_same_hom_space(v, w)
    assert_same_hom_space(w, v)
