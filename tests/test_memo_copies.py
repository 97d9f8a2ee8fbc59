"""`PathAlgebra.product` and the probe evaluator's `yoneda` and `compose`
on one or more classes against a sum of the Groebner normal forms taken
with `linalg.combine` (`combine_product`), key order included, and
against changes to what they return; and the memos they rest on.  Every
arrow image of the probes that `reconstruct` builds, which `Probe.act`
hands out for a basis vector with coefficient one, has nonzero canonical
values.  On a tensor quotient every entry of the step table, (basis
class, arrow) -> basis class, is an index, the class of the class's word
followed by the arrow; on any other quotient the table stays empty and
`product` and `arrow_step` refuse."""

import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from quivertt import reconstruct
from quivertt.dsl import parse_quiver_file
from quivertt.fields import QQ, PrimeField
from quivertt.path_algebra import PathAlgebra, TensorRelationError
from quivertt.randgen import random_tensor_quiver
from quivertt.reconstruct import ProbeEvaluator, assemble_A, center_and_z

from conftest import FIXTURE_NAMES, is_element, load_fixture
from fields_oracle import oracle_field
from path_algebra_oracles import combine_product, word_nf_oracle

SPEC_DIR = Path(__file__).resolve().parent / "specs"
F2, F3, F101 = PrimeField(2), PrimeField(3), PrimeField(101)
ORACLE_F101 = oracle_field(F101)
# the moduli each spec is read over, None for QQ: fractions with a
# denominator divisible by 2 or 3 have no image in F_2 or F_3
SPEC_MODULI = {
    "diamond": (None, 101),
    "weighted": (None, 101),
    "field_sensitive": (None, 2, 3, 101),
    "half": (None, 2, 3, 101),
    "first_arrow_transpose": (None, 2, 3, 101),
}
RANDOM_SEEDS = range(10)


def fixture_instance(name):
    spec = load_fixture(name)
    return spec.quiver, spec.relations


def spec_instance(name):
    spec = parse_quiver_file(SPEC_DIR / f"{name}.quiver")
    return spec.quiver, spec.relations


def random_instance(seed):
    return random_tensor_quiver(random.Random(seed))


def field_id(field):
    return f"oracle{field}" if field is ORACLE_F101 else str(field)


def instances(fields):
    """(maker, argument, field) for the fixtures, the specs and seeded
    random quivers over each of `fields`, so that collecting builds
    nothing."""
    for field in fields:
        makers = [(fixture_instance, name) for name in FIXTURE_NAMES]
        makers += [(spec_instance, name)
                   for name, moduli in SPEC_MODULI.items()
                   if getattr(field, "p", None) in moduli]
        makers += [(random_instance, seed) for seed in RANDOM_SEEDS]
        for make, arg in makers:
            yield pytest.param(make, arg, field,
                               id=f"{arg}-{field_id(field)}")


def coefficients(field):
    """(singles, pairs): coefficients for one class, and (a, c) pairs of
    them for two classes: every pair of singles, and pairs of inverses
    other than (1, 1).  Over QQ their product is 1; over F_p it is an int
    only congruent to 1, such as 2 * 51 in F_101, which the field must
    reduce."""
    p = getattr(field, "p", None)
    if p is None:
        singles = [1, Fraction(1), -1, 2, Fraction(1, 2)]
        inverse = [(2, Fraction(1, 2)), (Fraction(-1, 2), -2)]
    elif not isinstance(field, PrimeField):
        # the oracle field reduces in its operators
        singles = [field(1), field(p + 1), field(-1), field(2)]
        inverse = [(field(2), field.inv(field(2)))]
    else:
        # p + 1 is 1 in F_p, but not the canonical 1
        singles = [1, p + 1, p - 1, 2 % p]
        inverse = [(1, p + 1), (p + 1, p + 1)]
        if p > 2:
            inverse.append((2, (p + 1) // 2))
    return singles, [(a, c) for a in singles for c in singles] + inverse


def assert_same(got, want, field):
    assert list(got.items()) == list(want.items())
    assert all(is_element(x, field) for x in got.values())


def assert_copy(call, oracle, field):
    """`call()` equals `oracle()`, key order included, and changing what
    it returns changes neither its next result nor the oracle's."""
    want = oracle()
    got = call()
    assert_same(got, want, field)
    got.clear()
    got[-1] = field.one
    assert_same(call(), want, field)
    assert_same(oracle(), want, field)


@pytest.mark.parametrize(
    "make, arg, field",
    list(instances((QQ, F2, F3, F101, ORACLE_F101))))
def test_single_class_copies_match_combine(make, arg, field):
    alg = PathAlgebra(*make(arg), field)
    evaluator = ProbeEvaluator(alg)
    singles, pairs = coefficients(field)
    if alg.tensor_check.ok:
        product = alg.product
    else:
        with pytest.raises(TensorRelationError):
            alg.product({0: field.one}, {0: field.one})
        product = functools.partial(combine_product, alg)
    # an element is e_n times itself on M_n, which is zero unless it starts
    # at n, and its composite with a second element is their product, zero
    # unless the two compose
    for i, p in enumerate(alg.basis):
        n = p.source
        for a in singles:
            elem = {i: a}
            for v in alg.quiver.vertices:
                assert_copy(lambda: evaluator.yoneda(elem, v),
                            lambda: combine_product(alg, alg.idempotent(v),
                                                    elem), field)
        for j in range(alg.dim):
            for a, c in pairs:
                elem, elem2 = {i: a}, {j: c}
                assert_copy(lambda: product(elem, elem2),
                            lambda: combine_product(alg, elem, elem2), field)
                assert_copy(lambda: evaluator.compose(elem, n, elem2),
                            lambda: combine_product(alg, elem, elem2), field)

    # elements of up to three classes
    rng = random.Random(f"{arg}-{field}")
    for (n, m), first in alg.pair_indices.items():
        for (m2, _), second in alg.pair_indices.items():
            if m2 != m or not first or not second:
                continue
            elem = {rng.choice(first): rng.choice(singles) for _ in range(3)}
            elem2 = {rng.choice(second): rng.choice(singles)
                     for _ in range(3)}
            assert_copy(lambda: evaluator.yoneda(elem, n),
                        lambda: combine_product(alg, alg.idempotent(n), elem),
                        field)
            assert_copy(lambda: evaluator.compose(elem, n, elem2),
                        lambda: combine_product(alg, elem, elem2), field)
            assert_copy(lambda: product(elem, elem2),
                        lambda: combine_product(alg, elem, elem2), field)


def assert_canonical_memo(memo, field):
    """Every entry of the probe memo `memo` holds nonzero canonical
    values; the key order of an entry is free."""
    for key, vec in memo.items():
        assert all(x and is_element(x, field) for x in vec.values()), key


@pytest.mark.parametrize("make, arg, field",
                         list(instances((QQ, F2, F101))))
def test_memo_entries_are_canonical(make, arg, field, monkeypatch):
    # `assemble_A` builds one probe per vertex.  `Probe.act` hands out a
    # `steps` entry where `combine` of it alone would return an equal
    # dict, so those entries hold nonzero canonical values; their key
    # order is free, since the probe's vectors are only compared
    probes = []

    class Recording(reconstruct.Probe):
        def __init__(self, *args):
            super().__init__(*args)
            probes.append(self)

    monkeypatch.setattr(reconstruct, "Probe", Recording)
    alg = PathAlgebra(*make(arg), field)
    if not alg.tensor_check.ok:
        with pytest.raises(TensorRelationError):
            alg.arrow_step(0, alg.quiver.arrows[0].label)
        assert alg._steps is None
    else:
        assemble_A(alg)
        center_and_z(alg)
        assert len(probes) == len(alg.quiver.vertices)
        for probe in probes:
            assert_canonical_memo(probe.steps, field)
        for i in range(alg.dim):
            for j in range(alg.dim):
                alg.product({i: field.one}, {j: field.one})
        # every step of the table is the class of the joined word, and an
        # arrow step reads it
        for (x, label), y in alg._steps.items():
            word = alg.basis[x].arrows + (label,)
            assert word_nf_oracle(alg, word) == {y: field.one}, (x, label)
            assert alg.arrow_step(x, label) == y
        assert len(alg._steps) == sum(
            len(alg.quiver.arrows_from(p.target)) for p in alg.basis)
    # the probes an evaluator builds, one per vertex, after it has
    # evaluated every class
    evaluator = ProbeEvaluator(alg)
    for i, p in enumerate(alg.basis):
        evaluator.yoneda({i: field.one}, p.source)
    for n in alg.quiver.vertices:
        assert_canonical_memo(evaluator.probe(n).steps, field)
