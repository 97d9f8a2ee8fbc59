"""The direct sum of complexes, built as the cone of the zero chain map
V[-1] -> W, against the block-diagonal assembly it replaces: the same
terms and the same JSON document, over QQ, F_2 and F_101, on the fixtures
and on seeded random quivers.

`random_complex` builds its complexes from single terms by shifts, sums
and cones of zero maps, so its differentials are all zero.  The pairs
here also draw two-term complexes of random morphisms, shifted and summed,
and the fixtures add the identity of the unit, so that the blocks dV and
dW are nonzero, in even and odd degrees."""

import random

import pytest

from quivertt.complexes import (BoundedComplex, complex_to_json,
                                direct_sum_complex, shift)
from quivertt.fields import QQ, PrimeField
from quivertt.linalg import DimensionMismatch
from quivertt.randgen import (random_complex, random_morphism_complex,
                              random_tensor_quiver)
from quivertt.repcat import unit_object

from complexes_oracles import direct_sum_complex_oracle
from conftest import FIXTURE_NAMES, fixture_over, id_morphism

FIELDS = [QQ, PrimeField(2), PrimeField(101)]
FIELD_IDS = [field.name for field in FIELDS]
PAIRS_PER_FIXTURE = 6
SEEDS = range(50)


def draw(rng, quiver, relations, field):
    """A seeded complex: one of `random_complex`, a shifted two-term
    complex of a random morphism, or the oracle's sum of two of those."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_complex(rng, quiver, relations, field)
    cx = shift(random_morphism_complex(rng, quiver, relations, field),
               rng.randint(-1, 1))
    if kind == 1:
        return cx
    return direct_sum_complex_oracle(
        cx, random_morphism_complex(rng, quiver, relations, field))


def assert_matches_oracle(v, w):
    got = direct_sum_complex(v, w)
    want = direct_sum_complex_oracle(v, w)
    assert got.degrees() == want.degrees()
    for i in want.degrees():
        assert got.term(i) == want.term(i)
    assert complex_to_json(got) == complex_to_json(want)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_pairs_match_oracle(name, field):
    spec = fixture_over(name, field)
    rng = random.Random(f"{name}-{field.name}")
    zero = BoundedComplex(spec.quiver, {}, {}, field)
    unit = unit_object(spec.quiver, field)
    identity = BoundedComplex.from_map(id_morphism(unit), degree=-1)
    assert not identity.differentials[-1].is_zero()
    for v in (zero, BoundedComplex.from_representation(unit), identity):
        assert_matches_oracle(v, zero)
        assert_matches_oracle(zero, v)
        assert_matches_oracle(v, identity)
    for _ in range(PAIRS_PER_FIXTURE):
        v = draw(rng, spec.quiver, spec.relations, field)
        w = draw(rng, spec.quiver, spec.relations, field)
        assert_matches_oracle(v, w)
        assert_matches_oracle(w, v)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_pairs_match_oracle(seed, field):
    rng = random.Random(seed)
    quiver, relations = random_tensor_quiver(rng, field=field)
    v = draw(rng, quiver, relations, field)
    w = draw(rng, quiver, relations, field)
    assert_matches_oracle(v, w)


def test_different_quivers_raise():
    a = fixture_over("kronecker1", QQ)
    b = fixture_over("square", QQ)
    v = BoundedComplex.from_representation(unit_object(a.quiver))
    w = BoundedComplex.from_representation(unit_object(b.quiver))
    for direct_sum in (direct_sum_complex, direct_sum_complex_oracle):
        with pytest.raises(DimensionMismatch):
            direct_sum(v, w)
