"""The Hom-space and center systems and the probe evaluator of
`reconstruct` against reference versions, and the `reconstruct` reports
against golden files."""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from quivertt.cli import main
from quivertt.dsl import parse_quiver, parse_quiver_file
from quivertt.fields import QQ, PrimeField
from quivertt.path_algebra import (PathAlgebra, TensorRelationError,
                                   module_hom_space)
from quivertt.randgen import random_tensor_quiver
from quivertt.reconstruct import (ProbeEvaluator, ReconstructedAlgebra,
                                  assemble_A, center_and_z)

from conftest import FIXTURE_DIR, FIXTURE_NAMES, is_element, load_fixture
from path_algebra_oracles import quotient_oracle
from reconstruct_oracles import (center_basis_oracle, generator_relations_oracle,
                                 idempotent_commutant_oracle,
                                 module_hom_space_oracle, probe_oracle,
                                 two_stage_center_oracle)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "reconstruct"
GOLDEN_F101_DIR = GOLDEN_DIR.parent / "reconstruct-f101"
SPEC_DIR = Path(__file__).resolve().parent / "specs"
FIELDS = [QQ, PrimeField(101)]
SEEDS = range(20)


def fixture_instance(name):
    spec = load_fixture(name)
    return spec.quiver, spec.relations


def random_instance(seed):
    return random_tensor_quiver(random.Random(seed))


def spec_instance(name):
    spec = parse_quiver_file(SPEC_DIR / f"{name}.quiver")
    return spec.quiver, spec.relations


def instances(seeds=SEEDS):
    for name in FIXTURE_NAMES:
        yield pytest.param(fixture_instance, name, id=name)
    for seed in seeds:
        yield pytest.param(random_instance, seed, id=f"random{seed}")


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("make, arg", list(instances()))
def test_module_hom_space_matches_oracle(make, arg, field):
    # each generator image is the e_m column of the oracle's dense map,
    # which is solved against every relation of the generator
    quiver, relations = make(arg)
    alg = PathAlgebra(quiver, relations, field)
    for n in quiver.vertices:
        mb_n = alg.module_basis(n)
        for m in quiver.vertices:
            e_m = alg.module_basis(m).index(alg.idempotent_index[m])
            columns = [f.column(e_m)
                       for f in module_hom_space_oracle(alg, n, m)]
            want = [{gi: c for gi, c in zip(mb_n, col) if c}
                    for col in columns]
            got = module_hom_space(alg, n, m)
            assert [list(image.items()) for image in got] == \
                [list(image.items()) for image in want]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("make, arg", list(instances()))
def test_generator_relations_are_one_per_other_vertex(make, arg, field):
    # the idempotents of the other vertices, one each, in ascending index
    # order: the relations of the generator of M_m that `module_hom_space`
    # reads off the basis
    quiver, relations = make(arg)
    alg = PathAlgebra(quiver, relations, field)
    for m in quiver.vertices:
        assert ([list(r.items()) for r in generator_relations_oracle(alg, m)]
                == other_idempotents(alg, m))


def other_idempotents(alg, m):
    return [[(i, alg.field.one)] for i in sorted(
        alg.idempotent_index[v] for v in alg.quiver.vertices if v != m)]


# -- the closed forms read off the basis against the systems they replace

ORACLE_FIELDS = [QQ, PrimeField(2), PrimeField(101)]
SPEC_NAMES = sorted(p.stem for p in SPEC_DIR.glob("*.quiver"))


def has_image(relations, field):
    try:
        for rel in relations:
            for c, _ in rel.terms:
                field(c)
    except ZeroDivisionError:   # 1/2 has no image in F_2
        return False
    return True


def closed_form_cases():
    for field in ORACLE_FIELDS:
        for case in instances():
            yield pytest.param(*case.values, field, id=f"{case.id}-{field}")
        for name in SPEC_NAMES:
            if has_image(spec_instance(name)[1], field):
                yield pytest.param(spec_instance, name, field,
                                   id=f"{name}-{field}")


@pytest.mark.parametrize("make, arg, field", list(closed_form_cases()))
def test_closed_forms_match_their_systems(make, arg, field):
    # the other idempotents are the relations the kernel of w -> e_m * w
    # keeps after certification, and the diagonal classes are the kernel
    # basis of the idempotents' commutant, so the center solved over them
    # is the center solved in two stages.  The systems need no tensor
    # check; the center reads classes, so it refuses non-tensor relations
    quiver, relations = make(arg)
    alg = PathAlgebra(quiver, relations, field)
    for m in quiver.vertices:
        assert ([list(r.items()) for r in generator_relations_oracle(alg, m)]
                == other_idempotents(alg, m))
    assert idempotent_commutant_oracle(alg) == [
        {i: field.one} for i, (s, t) in enumerate(alg.pair_of) if s == t]
    want = two_stage_center_oracle(alg)
    if not alg.tensor_check.ok:
        with pytest.raises(TensorRelationError):
            center_and_z(ReconstructedAlgebra(alg, {}, None))
        return
    center = center_and_z(ReconstructedAlgebra(alg, {}, None))
    assert [list(v.items()) for v in center.center_basis] \
        == [list(v.items()) for v in want]
    assert all(is_element(c, field)
               for v in center.center_basis for c in v.values())


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("make, arg", list(instances()))
def test_center_basis_matches_oracle(make, arg, field):
    quiver, relations = make(arg)
    assembled = assemble_A(PathAlgebra(quiver, relations, field))
    center = center_and_z(assembled)
    assert center.center_basis == center_basis_oracle(assembled.algebra)


def reconstruct_report(path):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["reconstruct", str(path)])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reconstruct_report_matches_golden(name):
    assert (reconstruct_report(FIXTURE_DIR / f"{name}.quiver")
            == (GOLDEN_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reconstruct_f101_report_matches_golden(name, tmp_path):
    # the fixture redeclared over F_101, which runs the modular kernels
    text = (FIXTURE_DIR / f"{name}.quiver").read_text()
    assert text.count("field QQ\n") == 1
    spec = tmp_path / f"{name}.quiver"
    spec.write_text(text.replace("field QQ\n", "field F 101\n"))
    assert (reconstruct_report(spec)
            == (GOLDEN_F101_DIR / f"{name}.json").read_text())


# -- the probe evaluator against the dense composite-matrix oracle ------

PROBE_SEEDS = range(50)
COEFFICIENTS = (2, Fraction(-3, 4), 101, 1, -1)

# over F_2 the second relation equals the first, so dim kQ/(R) is 9 there
# and 8 over QQ and F_3 (ranks of (1,-1,0), (1,1,-2) in span{ad, bd, cd})
FIELD_SENSITIVE = """quiver field_sensitive
field QQ
vertices 1 2 3
arrow a : 1 -> 2
arrow b : 1 -> 2
arrow c : 1 -> 2
arrow d : 2 -> 3
relation a*d - b*d
relation a*d + b*d - 2 c*d
"""
FIELD_SENSITIVE_DIMS = {QQ: 8, PrimeField(2): 9, PrimeField(3): 8}


def assert_same_element(got, want, field):
    # the same keys in the same order, with values of the field's type
    assert list(got.items()) == list(want.items())
    assert all(is_element(c, field) for c in got.values())


def coefficients(field):
    out = []
    for c in COEFFICIENTS:
        try:
            out.append(field(c))
        except ZeroDivisionError:   # -3/4 has no image in F_2
            pass
    return out


def random_element(rng, indices, coeffs):
    support = rng.sample(indices, rng.randint(1, len(indices)))
    return {i: rng.choice(coeffs) for i in support}


def assert_probes_match_oracle(alg, rng):
    field = alg.field
    evaluator, oracle = ProbeEvaluator(alg), probe_oracle(alg)
    # every basis class, and every composable pair of basis classes
    for i, (n, m) in enumerate(alg.pair_of):
        elem = {i: field.one}
        assert_same_element(evaluator.yoneda(elem, n),
                            oracle.yoneda(elem, n, m), field)
        for j in alg.module_basis(m):
            l = alg.pair_of[j][1]
            elem2 = {j: field.one}
            assert_same_element(evaluator.compose(elem, n, elem2),
                                oracle.compose(elem, n, m, elem2, l), field)
    # elements that are not basis classes, some coefficients zero mod p
    coeffs = coefficients(field)
    for (n, m), first in alg.pair_indices.items():
        if not first:
            continue
        for _ in range(3):
            elem = random_element(rng, first, coeffs)
            assert_same_element(evaluator.yoneda(elem, n),
                                oracle.yoneda(elem, n, m), field)
            for (m2, l), second in alg.pair_indices.items():
                if m2 != m or not second:
                    continue
                elem2 = random_element(rng, second, coeffs)
                assert_same_element(evaluator.compose(elem, n, elem2),
                                    oracle.compose(elem, n, m, elem2, l), field)


# an instance on which the first arrow's matrix on a probe is not square,
# so a walk that steps with its transpose goes wrong
PROBE_SPECS = [pytest.param(spec_instance, "first_arrow_transpose",
                            id="first_arrow_transpose")]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("make, arg", list(instances(PROBE_SEEDS)) + PROBE_SPECS)
def test_probe_evaluator_matches_oracle(make, arg, field):
    quiver, relations = make(arg)
    alg = PathAlgebra(quiver, relations, field)
    assert_probes_match_oracle(alg, random.Random(f"{arg}-{field}"))


@pytest.mark.parametrize("field", list(FIELD_SENSITIVE_DIMS), ids=str)
def test_probe_evaluator_matches_oracle_field_sensitive(field):
    spec = parse_quiver(FIELD_SENSITIVE)
    alg = PathAlgebra(spec.quiver, spec.relations, field)
    expected = len(quotient_oracle(alg).basis)
    assert expected == FIELD_SENSITIVE_DIMS[field]
    assert alg.dim == expected
    assert_probes_match_oracle(alg, random.Random(str(field)))
    assembled = assemble_A(PathAlgebra(spec.quiver, spec.relations, field))
    assert assembled.dim == expected
    assert assembled.verdict.isomorphic is True
