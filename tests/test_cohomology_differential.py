"""Vertex-wise cohomology, whose strand kernels go through
`linalg.sparse_kernel`, against the dense computation it replaces
(`complexes_oracles.cohomology_at_oracle`): the same dimensions,
representatives and image bases at every vertex, over QQ, F_2 and F_101.

The complexes are the fixtures' unit, simples and projectives, the
identity of the unit, and the two-term complexes of the basis morphisms
between projectives, whose strands have nonzero kernels and images; then
seeded `random_complex` and `random_morphism_complex` draws, and the
tensor complex of the two every fifth seed."""

import random

import pytest

from quivertt.complexes import BoundedComplex, cohomology_at, tensor_complex
from quivertt.fields import QQ, PrimeField
from quivertt.randgen import (random_complex, random_morphism_complex,
                              random_tensor_quiver)
from quivertt.repcat import (hom_space, module_representation, simple_object,
                             unit_object)

from complexes_oracles import cohomology_at_oracle
from conftest import FIXTURE_NAMES, element_types, fixture_over, id_morphism

FIELDS = [QQ, PrimeField(2), PrimeField(101)]
FIELD_IDS = [field.name for field in FIELDS]
SEEDS = range(60)


def assert_matches_oracle(cx):
    types = set(element_types(cx.field))
    for n in cx.quiver.vertices:
        got, want = cohomology_at(cx, n), cohomology_at_oracle(cx, n)
        assert got.dims == want.dims, n
        assert got.representatives == want.representatives, n
        assert got.image_basis == want.image_basis, n
        assert {type(x) for vecs in got.representatives.values()
                for vec in vecs for x in vec} <= types


def fixture_complexes(spec, field):
    quiver = spec.quiver
    unit = unit_object(quiver, field)
    projectives = [module_representation(quiver, spec.relations, field, x)
                   for x in quiver.vertices]
    singles = ([unit] + [simple_object(quiver, x, field)
                         for x in quiver.vertices] + projectives)
    yield from (BoundedComplex.from_representation(rep, degree=1)
                for rep in singles)
    yield BoundedComplex.from_map(id_morphism(unit))
    for p in projectives:
        for q in projectives:
            for f in hom_space(p, q):
                yield BoundedComplex.from_map(f, degree=-1)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_complexes_match_oracle(name, field):
    spec = fixture_over(name, field)
    nonzero = 0
    for cx in fixture_complexes(spec, field):
        assert_matches_oracle(cx)
        nonzero += any(not d.is_zero() for d in cx.differentials.values())
    assert nonzero > 0


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_random_complexes_match_oracle(field):
    kept = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        quiver, relations = random_tensor_quiver(rng, field=field)
        a = random_complex(rng, quiver, relations, field)
        b = random_morphism_complex(rng, quiver, relations, field)
        draws = [a, b] + ([tensor_complex(a, b)] if seed % 5 == 0 else [])
        for cx in draws:
            assert_matches_oracle(cx)
            kept += sum(cohomology_at(cx, n).total_dim
                        for n in quiver.vertices)
    assert kept > 0
