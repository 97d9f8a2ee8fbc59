"""The sparse sums of the quotient, which all go through `linalg.combine`,
against the hand-written loops they replaced: normal forms (`nf_path`),
`arrow_step`, `product` and the diagonal square of `is_tensor_relations`."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from quivertt.dsl import parse_quiver, parse_quiver_file
from quivertt.fields import QQ, PrimeField
from quivertt.path_algebra import PathAlgebra, is_tensor_relations
from quivertt.quiver import enumerate_paths
from quivertt.randgen import random_tensor_quiver

from conftest import FIXTURE_NAMES, load_fixture
from path_algebra_oracles import QuotientSumsOracle

SPEC_DIR = Path(__file__).resolve().parent / "specs"
F101 = PrimeField(101)
# 2 and 3 vanish in some of the fields, so some sums cancel there
COEFFICIENTS = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 4), 0]


# the second relation of field_sensitive alone: its coefficients sum to
# zero, but c*d = (a*d + b*d)/2 makes its diagonal square nonzero over QQ
HALF = """quiver half
vertices 1 2 3
arrow a : 1 -> 2
arrow b : 1 -> 2
arrow c : 1 -> 2
arrow d : 2 -> 3
relation a*d + b*d - 2 c*d
"""


def of_spec(spec):
    return spec.quiver, spec.relations


def load_spec(name):
    return of_spec(parse_quiver_file(SPEC_DIR / f"{name}.quiver"))


def instances():
    """(maker of (quiver, relations), field), so that collecting builds
    nothing."""
    makers = [(name, lambda n=name: of_spec(load_fixture(n)))
              for name in FIXTURE_NAMES]
    makers += [(f"random{seed}",
                lambda s=seed: random_tensor_quiver(random.Random(s)))
               for seed in range(50)]
    makers += [(name, lambda n=name: load_spec(n))
               for name in ("weighted", "diamond")]
    for name, make in makers:
        for field in (QQ, F101):
            yield pytest.param(make, field, id=f"{name}-{field}")
    for name, make in (("field_sensitive", lambda: load_spec("field_sensitive")),
                       ("half", lambda: of_spec(parse_quiver(HALF)))):
        for field in (QQ, PrimeField(2), PrimeField(3)):
            yield pytest.param(make, field, id=f"{name}-{field}")


def coefficients(field):
    """The entries of COEFFICIENTS whose denominators are units of
    `field`, as elements of it."""
    p = getattr(field, "p", 0)
    return [field(c) for c in COEFFICIENTS
            if not p or Fraction(c).denominator % p]


def random_element(rng, alg, coeffs, size):
    """A sparse element of `alg` with `size` draws of a basis class and a
    coefficient, zeros among them."""
    return {rng.randrange(alg.dim): rng.choice(coeffs) for _ in range(size)}


def assert_ascending(vec):
    assert list(vec) == sorted(vec)


@pytest.mark.parametrize("make, field", list(instances()))
def test_sparse_sums_match_the_loops(make, field):
    alg = PathAlgebra(*make(), field)
    oracle = QuotientSumsOracle(alg)
    rng = random.Random(alg.dim)
    coeffs = coefficients(field)

    paths, _ = enumerate_paths(alg.quiver)
    for p in paths:
        assert list(alg.nf_path(p).items()) == list(oracle.nf(p).items()), p

    for x, p in enumerate(alg.basis):
        for arrow in alg.quiver.arrows_from(p.target):
            got = alg.arrow_step(x, arrow.label)
            assert list(got.items()) == \
                list(oracle.arrow_step(x, arrow).items()), (x, arrow)

    one = field.one
    pairs = [({i: one}, {j: one}) for i in range(alg.dim)
             for j in range(alg.dim)]
    pairs += [(random_element(rng, alg, coeffs, 3),
               random_element(rng, alg, coeffs, 3)) for _ in range(30)]
    for a, b in pairs:
        got = alg.product(a, b)
        assert got == oracle.product(a, b), (a, b)
        assert_ascending(got)

    check = is_tensor_relations(alg)
    assert (check.ok, check.witness, check.failed_test) == \
        oracle.tensor_check()


def test_the_instances_reach_every_tensor_verdict():
    """Some instances fail the unit test and some the diagonal test, so
    the comparison of the tensor verdict is not one of constants."""
    verdicts = set()
    for param in instances():
        make, field = param.values
        verdicts.add(QuotientSumsOracle(PathAlgebra(*make(), field))
                     .tensor_check()[2])
    assert verdicts == {"", "unit", "diagonal"}
