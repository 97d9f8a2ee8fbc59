from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quivertt.fields import QQ, PrimeField
from quivertt.linalg import (DimensionMismatch, Echelon, InconsistentSystem,
                             Matrix, block_matrix, kernel_basis, kronecker,
                             rank, rref, solve, solve_many)


# -- independent oracles ------------------------------------------------

def det_laplace(rows):
    """Determinant by first-row Laplace expansion (exact, exponential)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_laplace(minor)
    return total


def rank_by_minors(m):
    """Largest r such that some r x r minor has nonzero determinant."""
    grid = [[Fraction(x) for x in row] for row in m.entries]
    for r in range(min(m.rows, m.cols), 0, -1):
        for rows_idx in combinations(range(m.rows), r):
            for cols_idx in combinations(range(m.cols), r):
                sub = [[grid[i][j] for j in cols_idx] for i in rows_idx]
                if det_laplace(sub):
                    return r
    return 0


entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r, max_size=r).map(
                    lambda rows: Matrix(r, c, rows))))


# -- construction and arithmetic ---------------------------------------

class TestMatrixBasics:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            Matrix(2, 2, [[1, 2], [3]])

    def test_zero_dimensional_matrices(self):
        z = Matrix.zeros(0, 3)
        assert z.rows == 0 and z.cols == 3
        assert (z @ Matrix.zeros(3, 2)).cols == 2
        assert rank(z) == 0 and len(kernel_basis(z)) == 3

    def test_entries_canonicalized(self):
        m = Matrix(1, 1, [[Fraction(2, 4)]])
        assert m[0, 0] == Fraction(1, 2)

    def test_matmul_against_hand_value(self):
        a = Matrix(2, 2, [[1, 2], [3, 4]])
        b = Matrix(2, 2, [[0, 1], [1, 0]])
        assert a @ b == Matrix(2, 2, [[2, 1], [4, 3]])

    def test_block_matrix(self):
        a = Matrix.identity(2)
        z = Matrix.zeros(2, 1)
        m = block_matrix([[a, z]])
        assert m.rows == 2 and m.cols == 3
        assert m.column(2) == (QQ.zero, QQ.zero)

    def test_prime_field_matrices(self):
        f5 = PrimeField(5)
        m = Matrix(2, 2, [[1, 2], [3, 4]], f5)
        assert rank(m) == 2
        assert (m @ m).field == f5


# -- rank / rref / kernel vs oracles ------------------------------------

@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rank_matches_minor_oracle(m):
    assert rank(m) == rank_by_minors(m)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    red, pivots, rk = rref(m)
    red2, pivots2, rk2 = rref(red)
    assert red2 == red and pivots2 == pivots and rk2 == rk


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_kernel_vectors_are_killed(m):
    zero = (QQ.zero,) * m.rows
    for v in kernel_basis(m):
        assert m.apply(v) == zero


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_transpose_preserves_rank(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=25, deadline=None)
@given(matrices(3), matrices(3))
def test_kronecker_rank_multiplicative(a, b):
    assert rank(kronecker(a, b)) == rank(a) * rank(b)


def test_kronecker_index_convention():
    a = Matrix(2, 2, [[1, 0], [0, 2]])
    b = Matrix(2, 2, [[3, 0], [0, 4]])
    k = kronecker(a, b)
    # basis index (i, j) -> i * b.cols + j
    assert [k[t, t] for t in range(4)] == [3, 4, 6, 8]


# -- solving -----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(matrices(), st.data())
def test_solve_substitution(m, data):
    x = tuple(data.draw(entries) for _ in range(m.cols))
    b = m.apply(x)
    sol, kernel = solve(m, b)
    assert sol is not None
    assert m.apply(sol) == b


def test_solve_detects_inconsistency():
    m = Matrix(2, 1, [[1], [0]])
    sol, _ = solve(m, (QQ.zero, QQ.one))
    assert sol is None
    with pytest.raises(InconsistentSystem):
        solve_many(m, [(QQ.zero, QQ.one)])


def test_solve_many_matches_solve():
    m = Matrix(3, 2, [[1, 0], [1, 1], [0, 1]])
    bs = [m.apply((QQ(1), QQ(2))), m.apply((QQ(-1), QQ(0)))]
    sols = solve_many(m, bs)
    assert [m.apply(s) for s in sols] == bs


# -- incremental echelon -----------------------------------------------

class TestEchelon:
    def test_membership(self):
        e = Echelon(3)
        assert e.add((QQ(1), QQ(0), QQ(1)))
        assert e.add((QQ(0), QQ(1), QQ(0)))
        assert not e.add((QQ(1), QQ(1), QQ(1)))
        assert e.rank == 2
        assert e.contains((QQ(2), QQ(-3), QQ(2)))
        assert not e.contains((QQ(0), QQ(0), QQ(1)))

    def test_rank_matches_matrix_rank(self, rng):
        for _ in range(20):
            rows = [[QQ(rng.randint(-2, 2)) for _ in range(4)]
                    for _ in range(5)]
            e = Echelon(4)
            for r in rows:
                e.add(tuple(r))
            assert e.rank == rank(Matrix(5, 4, rows))


class RREFEchelonOracle:
    """The fully reduced accumulator the path-algebra builder used before
    `Echelon` took its place, with the `reduce` it inherited; kept here as
    a differential oracle."""

    def __init__(self, ncols, field):
        self.field = field
        self.pivot_rows = {}

    def reduce(self, vec):
        v = list(vec)
        for p in sorted(self.pivot_rows):
            if v[p]:
                f = v[p]
                row = self.pivot_rows[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        for p, x in enumerate(v):
            if x:
                inv = self.field.one / x
                row = [inv * a for a in v]
                for q, other in list(self.pivot_rows.items()):
                    if other[p]:
                        f = other[p]
                        self.pivot_rows[q] = [a - f * b for a, b in zip(other, row)]
                self.pivot_rows[p] = row
                return True
        return False


@st.composite
def row_streams(draw):
    field = draw(st.sampled_from([QQ, PrimeField(101)]))
    ncols = draw(st.integers(1, 6))
    scalar = (entries if field == QQ else st.integers(-3, 3)).map(field)
    rows = st.lists(st.lists(scalar, min_size=ncols, max_size=ncols),
                    min_size=1, max_size=9)
    return field, ncols, draw(rows), draw(rows)


@settings(max_examples=80, deadline=None)
@given(row_streams())
def test_echelon_matches_rref_oracle(stream):
    field, ncols, rows, probes = stream
    ech, oracle = Echelon(ncols, field), RREFEchelonOracle(ncols, field)
    for row in rows:
        assert ech.add(row) == oracle.add(row)
        for probe in rows + probes:
            assert ech.reduce(probe) == oracle.reduce(probe)
