"""The sparse sums of the quotient against the hand-written loops they
replaced: normal forms, arrow steps, `product` and the diagonal square of
`is_tensor_relations`.  The normal forms by the Groebner basis
(`nf_path_oracle`, `combine_product`) are checked on every quotient; on a
tensor quotient `nf_path` and `arrow_step` give one class, which must be
the oracle's one-entry normal form, and on any other they and `product`
raise TensorRelationError.  The tensor verdict, which reads the Groebner
basis directly, is also checked on the random relation sets of the
quotient's differential test, over QQ, F_2, F_3 and F_101."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings

from quivertt.dsl import parse_quiver_file
from quivertt.fields import QQ, PrimeField
from quivertt.path_algebra import (PathAlgebra, TensorRelationError,
                                   is_tensor_relations)
from quivertt.quiver import enumerate_paths
from quivertt.randgen import random_tensor_quiver

from conftest import FIXTURE_NAMES, load_fixture, relation_from_terms
from path_algebra_oracles import (QuotientSumsOracle, combine_product,
                                  nf_path_oracle)
from test_path_algebra_differential import relation_sets

SPEC_DIR = Path(__file__).resolve().parent / "specs"
F101 = PrimeField(101)
# 2 and 3 vanish in some of the fields, so some sums cancel there
COEFFICIENTS = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 4), 0]


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
    # half.quiver is the second relation of field_sensitive alone: its
    # coefficients sum to zero, but its diagonal square vanishes only over
    # F_2
    for name in ("field_sensitive", "half"):
        for field in (QQ, PrimeField(2), PrimeField(3)):
            yield pytest.param(lambda n=name: load_spec(n), field,
                               id=f"{name}-{field}")


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

    one = field.one
    tensor = alg.tensor_check.ok
    paths, _ = enumerate_paths(alg.quiver)
    for p in paths:
        want = oracle.nf(p)
        assert list(nf_path_oracle(alg, p).items()) == list(want.items()), p
        if tensor:
            assert {alg.nf_path(p): one} == want, p

    for x, p in enumerate(alg.basis):
        for arrow in alg.quiver.arrows_from(p.target):
            want = oracle.arrow_step(x, arrow)
            if tensor:
                assert {alg.arrow_step(x, arrow.label): one} == want, \
                    (x, arrow)
            else:
                with pytest.raises(TensorRelationError):
                    alg.arrow_step(x, arrow.label)

    pairs = [({i: one}, {j: one}) for i in range(alg.dim)
             for j in range(alg.dim)]
    pairs += [(random_element(rng, alg, coeffs, 3),
               random_element(rng, alg, coeffs, 3)) for _ in range(30)]
    for a, b in pairs:
        want = oracle.product(a, b)
        assert combine_product(alg, a, b) == want, (a, b)
        if tensor:
            got = alg.product(a, b)
            assert got == want, (a, b)
            assert_ascending(got)
        else:
            with pytest.raises(TensorRelationError):
                alg.product(a, b)

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



def balanced(relations):
    """`relations` with one more term in each generator, its first path
    times minus its coefficient sum, so that every generator passes the
    unit test and its diagonal square decides; as drawn, almost every
    random relation set fails the unit test."""
    return tuple(relation_from_terms(
        g.terms + ((-g.coefficient_sum(), g.terms[0][1]),))
        for g in relations)


def tensor_verdicts(instance):
    """(library, oracle) tensor verdict of the relation set `instance` as
    drawn and balanced, each as (ok, witness, failed_test)."""
    quiver, relations, field = instance
    out = []
    for rels in (relations, balanced(relations)):
        alg = PathAlgebra(quiver, rels, field)
        check = is_tensor_relations(alg)
        out.append(((check.ok, check.witness, check.failed_test),
                    QuotientSumsOracle(alg).tensor_check()))
    return out


@settings(max_examples=150, deadline=None)
@given(relation_sets())
def test_tensor_verdict_on_random_relation_sets(instance):
    for got, want in tensor_verdicts(instance):
        assert got == want


@pytest.mark.parametrize("verdict", ["", "unit", "diagonal"])
def test_the_random_relation_sets_reach_every_tensor_verdict(verdict):
    find(relation_sets(),
         lambda instance: any(want[2] == verdict
                              for _, want in tensor_verdicts(instance)),
         settings=settings(database=None, derandomize=True,
                           max_examples=300, phases=[Phase.generate]))
