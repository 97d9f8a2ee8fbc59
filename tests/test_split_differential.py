"""`complexes.split_vector_complex`, which reads its projection off one
`linalg.Coordinates`, against the inverse of the completed basis it
replaces, over QQ, F_2 and F_101.

A drawn complex is a sum of one-term pieces k and two-term pieces
k -> k (a nonzero scalar) in shuffled positions, each term then changed
by a random unit lower-triangular basis change.  So its differentials
are nonzero in about half the draws, and its kernels and images are not
spanned by standard vectors, where the greedy complement decides the
projection."""

import pytest
from hypothesis import given, settings, strategies as st

from quivertt.complexes import BoundedComplex, split_vector_complex
from quivertt.fields import QQ, PrimeField
from quivertt.linalg import Matrix
from quivertt.quiver import Quiver
from quivertt.repcat import RepMorphism, Representation

from complexes_oracles import split_vector_complex_oracle
from conftest import unit_lower_triangular

FIELDS = [QQ, PrimeField(2), PrimeField(101)]
POINT = Quiver(("1",), ())


@st.composite
def vector_complexes(draw, field):
    lo = draw(st.integers(-2, 1))
    span = draw(st.integers(1, 4))
    # each piece is (degree, scalar): k in that degree when the scalar is
    # None, and k -> k by the scalar into the next degree otherwise
    pieces = draw(st.lists(st.tuples(
        st.integers(lo, lo + span - 1),
        st.none() | st.sampled_from([1, -1, 3])), max_size=6))
    slots = {i: [] for i in range(lo, lo + span + 1)}
    arrows = []
    for k, (i, c) in enumerate(pieces):
        slots[i].append((k, 0))
        if c is not None:
            slots[i + 1].append((k, 1))
            arrows.append((i, k, c))
    pos = {}
    for i, vecs in slots.items():
        for p, key in enumerate(draw(st.permutations(vecs))):
            pos[i, key] = p
    dims = {i: len(vecs) for i, vecs in slots.items()}
    grids = {i: [[0] * dims[i] for _ in range(dims[i + 1])]
             for i in slots if i + 1 in slots}
    for i, k, c in arrows:
        grids[i][pos[i + 1, (k, 1)]][pos[i, (k, 0)]] = c
    change = {i: draw(unit_lower_triangular(dims[i])) for i in slots}
    terms = {i: Representation(POINT, {"1": d}, {}, field)
             for i, d in dims.items()}
    diffs = {}
    for i, grid in grids.items():
        t, s = change[i + 1][0], change[i][1]
        m = (Matrix(dims[i + 1], dims[i + 1], t, field)
             @ Matrix(dims[i + 1], dims[i], grid, field)
             @ Matrix(dims[i], dims[i], s, field))
        diffs[i] = RepMorphism(terms[i], terms[i + 1], {"1": m})
    return BoundedComplex(POINT, terms, diffs, field)


def parts(split):
    """The dimensions of the cohomology and the matrices of both maps, by
    degree, for comparing the library's field with the oracle's."""
    h, to_h, from_h = split
    return ({i: t.dims for i, t in h.terms.items()},
            {i: f.components["1"] for i, f in to_h.components.items()},
            {i: f.components["1"] for i, f in from_h.components.items()})


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_split_vector_complex_matches_oracle(field, data):
    cx = data.draw(vector_complexes(field))
    got = split_vector_complex(cx)
    assert parts(got) == parts(split_vector_complex_oracle(cx))
    _, to_h, from_h = got
    assert to_h.is_chain_map() and from_h.is_chain_map()


def test_split_draws_nonzero_differentials():
    # the strategy is worth its name only if it reaches past zero maps
    seen = []

    @settings(max_examples=50, deadline=None)
    @given(cx=vector_complexes(QQ))
    def record(cx):
        seen.append(any(not d.is_zero() for d in cx.differentials.values()))

    record()
    assert any(seen) and not all(seen)

