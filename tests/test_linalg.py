from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quivertt.fields import QQ, PrimeField
from quivertt.linalg import (Coordinates, DimensionMismatch, Echelon,
                             InconsistentSystem, Matrix, block_matrix,
                             combine, kernel_basis, kronecker,
                             rank, rref, sparse_kernel)

from conftest import is_element
from fields_oracle import oracle_field
from linalg_oracles import (RREFEchelonOracle, complete_basis_oracle,
                            kernel_basis_oracle, matmul_oracle, rref_oracle,
                            solve_many_oracle)


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
    transpose = Matrix.from_columns(m.entries, m.field, rows=m.cols)
    assert rank(m) == rank(transpose)


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


# -- coordinates ---------------------------------------------------------

SOLVE_FIELDS = [QQ, PrimeField(101), PrimeField(2)]


def scalars(field):
    return entries if field == QQ else st.integers(0, field.p - 1).map(field)


@st.composite
def spans(draw, field):
    """Independent columns of length dim (dim and their count k both
    possibly 0), kept from random candidates by the rank of the oracle."""
    dim = draw(st.integers(0, 6))
    kept = []
    for col in draw(st.lists(st.lists(scalars(field), min_size=dim,
                                      max_size=dim), max_size=dim + 1)):
        col = tuple(field(x) for x in col)
        grown = Matrix.from_columns(kept + [col], field, rows=dim)
        if rref_oracle(grown)[2] == len(kept) + 1:
            kept.append(col)
    return dim, kept


@pytest.mark.parametrize("field", SOLVE_FIELDS, ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_coordinates_match_solve_oracle(field, data):
    dim, cols = data.draw(spans(field))
    a = Matrix.from_columns(cols, field, rows=dim)
    coords = Coordinates(cols, dim, field)
    for _ in range(3):
        x = tuple(data.draw(scalars(field)) for _ in cols)
        v = a.apply(tuple(field(c) for c in x))
        got = coords.of(v)
        assert got == solve_many_oracle(a, [v])[0]
        assert a.apply(got) == v and len(got) == len(cols)
    v = tuple(field(c) for c in data.draw(
        st.lists(scalars(field), min_size=dim, max_size=dim)))
    try:
        want = solve_many_oracle(a, [v])[0]
    except InconsistentSystem:
        with pytest.raises(InconsistentSystem):
            coords.of(v)
    else:
        assert coords.of(v) == want


def test_coordinates_detect_inconsistency():
    coords = Coordinates([(QQ(1), QQ(0))], 2)
    assert coords.of((QQ(3), QQ(0))) == (QQ(3),)
    with pytest.raises(InconsistentSystem):
        coords.of((QQ(0), QQ(1)))


def test_coordinates_reject_wrong_length():
    coords = Coordinates([(QQ(1), QQ(0)), (QQ(1), QQ(1))], 2)
    # a third entry would otherwise land in the first coordinate column
    with pytest.raises(DimensionMismatch):
        coords.of((QQ(0), QQ(0), QQ(1)))
    with pytest.raises(DimensionMismatch):
        coords.of((QQ(1),))
    with pytest.raises(DimensionMismatch):
        Coordinates([(QQ(1),)], 2)


@pytest.mark.parametrize("field", SOLVE_FIELDS, ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_complete_basis_inverts_completed_columns(field, data):
    dim, cols = data.draw(spans(field))
    coords = Coordinates(cols, dim, field)
    ident = Matrix.identity(dim, field)
    added = [ident.column(j) for j in coords.complement]
    inv = Matrix.from_columns([coords.completed(e) for e in ident.columns()],
                              field, rows=dim)
    full = Matrix.from_columns(cols + added, field, rows=dim)
    assert inv @ full == Matrix.identity(dim, field)
    assert (added, inv) == complete_basis_oracle(cols, dim, field)


@pytest.mark.parametrize("field", SOLVE_FIELDS, ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_coordinates_of_dependent_columns(field, data):
    # any columns, dependent ones too: the complement is still the greedy
    # one, and `completed` still writes v back from the columns and it
    dim = data.draw(st.integers(0, 5))
    drawn = data.draw(st.lists(st.lists(scalars(field), min_size=dim,
                                        max_size=dim), max_size=dim + 2))
    cols = [tuple(field(x) for x in col) for col in drawn]
    coords = Coordinates(cols, dim, field)
    ident = Matrix.identity(dim, field)
    added = [ident.column(j) for j in coords.complement]
    assert added == complete_basis_oracle(cols, dim, field)[0]
    full = Matrix.from_columns(cols + added, field, rows=dim)
    a = Matrix.from_columns(cols, field, rows=dim)
    for _ in range(3):
        v = tuple(field(c) for c in data.draw(
            st.lists(scalars(field), min_size=dim, max_size=dim)))
        got = coords.completed(v)
        assert len(got) == len(cols) + len(added) and full.apply(got) == v
        x = got[:len(cols)]
        if any(got[len(cols):]):
            with pytest.raises(InconsistentSystem):
                coords.of(v)
        else:
            assert coords.of(v) == x and a.apply(x) == v


def test_coordinates_of_dependent_columns_known_instance():
    # c_1 = 2 c_0: the span is e_0, e_1, and e_2 completes it
    cols = [(QQ(1), QQ(0), QQ(0)), (QQ(2), QQ(0), QQ(0)),
            (QQ(0), QQ(1), QQ(0))]
    coords = Coordinates(cols, 3)
    assert coords.complement == (2,)
    x = coords.of((QQ(4), QQ(5), QQ(0)))
    assert Matrix.from_columns(cols, QQ, rows=3).apply(x) == (4, 5, 0)
    assert coords.completed((QQ(0), QQ(0), QQ(7))) == (0, 0, 0, 7)
    with pytest.raises(InconsistentSystem):
        coords.of((QQ(0), QQ(0), QQ(1)))


@pytest.mark.parametrize("field", SOLVE_FIELDS, ids=str)
def test_coordinates_of_no_columns_complete_by_every_standard_vector(field):
    coords = Coordinates([], 3, field)
    assert coords.complement == (0, 1, 2)
    v = (field(2), field(0), field(-1))
    assert coords.completed(v) == v
    assert coords.of((field.zero,) * 3) == ()
    with pytest.raises(InconsistentSystem):
        coords.of(v)


@pytest.mark.parametrize("field", SOLVE_FIELDS, ids=str)
def test_coordinates_of_a_basis_need_no_completion(field):
    # determinant 1, so a basis over every field
    cols = [(field(1), field(2), field(0)), (field(0), field(1), field(0)),
            (field(3), field(1), field(1))]
    coords = Coordinates(cols, 3, field)
    assert coords.complement == ()
    a = Matrix.from_columns(cols, field, rows=3)
    for v in Matrix.identity(3, field).columns():
        assert coords.completed(v) == coords.of(v)
        assert a.apply(coords.of(v)) == v


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


@settings(max_examples=80, deadline=None)
@given(row_streams())
def test_echelon_kernel_matches_kernel_basis(stream):
    field, ncols, rows, _ = stream
    ech = Echelon(ncols, field)
    for row in rows:
        ech.add(row)
    assert ech.kernel_basis() == kernel_basis(Matrix.from_rows(rows, field))


# -- zero-skipping kernels against their dense oracles -------------------

FIELDS = [QQ, PrimeField(101)]


@st.composite
def zero_heavy_grids(draw, field, r, c):
    """An r x c grid of uncoerced ints (and Fractions over QQ) with at
    least 70% zeros, some of its rows and columns entirely zero."""
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0)), max_size=r))
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=c))
    cells = [(i, j) for i in range(r) for j in range(c)
             if i not in zero_rows and j not in zero_cols]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True,
                           max_size=3 * r * c // 10)) if cells else []
    value = (entries.filter(bool) | st.integers(-3, 3).filter(bool)
             if field == QQ else st.integers(1, 100))
    grid = [[0] * c for _ in range(r)]
    for i, j in chosen:
        grid[i][j] = draw(value)
    return grid


def assert_canonical(m, field):
    for row in m.entries:
        for x in row:
            assert is_element(x, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rref_matches_dense_oracle_on_zero_heavy(field, data):
    r, c = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    m = Matrix(r, c, data.draw(zero_heavy_grids(field, r, c)), field)
    red, pivots, rk = rref(m)
    want_red, want_pivots, want_rk = rref_oracle(m)
    assert red == want_red
    assert pivots == want_pivots and rk == want_rk == rank(m)
    assert_canonical(red, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_echelon_rows_canonical_from_uncoerced_rows(field, data):
    r, c = data.draw(st.integers(0, 7)), data.draw(st.integers(1, 7))
    grid = data.draw(zero_heavy_grids(field, r, c))
    ech = Echelon(c, field)
    for row in grid:
        ech.add(row)
    pivots = tuple(sorted(ech.pivot_rows))
    got = Matrix._raw(len(pivots), c,
                      tuple(tuple(ech.pivot_rows[p]) for p in pivots), field)
    assert_canonical(got, field)
    red, want_pivots, _ = rref_oracle(Matrix(r, c, grid, field))
    assert pivots == want_pivots
    assert got.entries == red.entries[:len(pivots)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matmul_matches_dense_oracle_on_zero_heavy(field, data):
    r, k, c = (data.draw(st.integers(0, 7)) for _ in range(3))
    a = Matrix(r, k, data.draw(zero_heavy_grids(field, r, k)), field)
    b = Matrix(k, c, data.draw(zero_heavy_grids(field, k, c)), field)
    prod = a @ b
    assert prod == matmul_oracle(a, b)
    assert_canonical(prod, field)


@settings(max_examples=40, deadline=None)
@given(matrices(), st.data())
def test_matmul_matches_dense_oracle(a, data):
    c = data.draw(st.integers(1, 4))
    rows = st.lists(entries, min_size=c, max_size=c)
    b = Matrix(a.cols, c, data.draw(st.lists(rows, min_size=a.cols,
                                             max_size=a.cols)))
    assert a @ b == matmul_oracle(a, b)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_apply_matches_dense_product_on_zero_heavy(field, data):
    r, c = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    m = Matrix(r, c, data.draw(zero_heavy_grids(field, r, c)), field)
    vec = data.draw(zero_heavy_grids(field, 1, c))[0]
    if data.draw(st.booleans()):
        vec = [field(x) for x in vec]
    got = m.apply(tuple(vec))
    want = matmul_oracle(m, Matrix(c, 1, [[x] for x in vec], field))
    assert got == tuple(row[0] for row in want.entries)
    assert_canonical(Matrix._raw(1, r, (got,), field), field)


# -- the sparse echelon against the dense accumulator ---------------------

def row_form(row, form):
    """`row` as given (a dense list), or as a dict with or without its
    zero entries."""
    if form == "dense":
        return row
    return {j: x for j, x in enumerate(row) if x or form == "dict+zeros"}


def assert_sparse_rows(ech, field):
    """Each stored row pivots at its lowest column with entry one, holds
    only nonzero field elements, and is zero at every other pivot."""
    for p, row in ech.rows.items():
        assert min(row) == p and row[p] == field.one
        for c, x in row.items():
            assert is_element(x, field) and x and 0 <= c < ech.ncols
            assert c == p or c not in ech.rows


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_echelon_matches_dense_oracle(field, data):
    r, c = data.draw(st.integers(0, 7)), data.draw(st.integers(1, 7))
    grid = data.draw(zero_heavy_grids(field, r, c))
    probes = grid + data.draw(zero_heavy_grids(field, 3, c))
    forms = st.sampled_from(["dense", "dict", "dict+zeros"])
    ech, oracle = Echelon(c, field), RREFEchelonOracle(c, field)
    for row in grid:
        added = ech.add(row_form(row, data.draw(forms)))
        assert added == oracle.add([field(x) for x in row])
        assert ech.pivot_rows == oracle.pivot_rows
        assert ech.rank == len(oracle.pivot_rows)
        assert_sparse_rows(ech, field)
        for probe in probes:
            want = oracle.reduce([field(x) for x in probe])
            got = ech.reduce(row_form(probe, data.draw(forms)))
            assert got == want and len(got) == c
            assert all(is_element(x, field) for x in got)
            assert ech.contains(row_form(probe, data.draw(forms))) == (not any(want))
    assert list(ech.pivot_rows) == list(ech.rows) == list(oracle.pivot_rows)
    want_kernel = kernel_basis_oracle(Matrix(r, c, grid, field))
    assert ech.kernel_basis() == want_kernel
    assert ech.sparse_kernel_basis() == [
        {j: x for j, x in enumerate(v) if x} for v in want_kernel]
    for v in ech.kernel_basis():
        assert all(is_element(x, field) for x in v)


def test_echelon_coerces_multiples_of_p_to_zero():
    f101 = PrimeField(101)
    ech = Echelon(3, f101)
    assert not ech.add([101, 0, -202])
    assert not ech.add({0: 303, 2: 0})
    assert ech.add({0: 202, 1: 3, 2: 1})
    assert ech.rows == {1: {1: f101.one, 2: f101.inv(3)}}
    assert ech.contains([505, 6, 2])


# -- combine: the one sparse linear-combination routine -----------------

COMBINE_WIDTH = 8


def field_scalars(field):
    """Canonical elements of `field`, zero among them: n/d with |n| <= 6
    and d <= 4 over QQ."""
    if field == QQ:
        return st.builds(lambda n, d: QQ(Fraction(n, d)),
                         st.integers(-6, 6), st.integers(1, 4))
    return st.integers(0, field.p - 1).map(field)


@st.composite
def sparse_terms(draw, field):
    """(c, vec) pairs: a scalar c, zero possible, and a sparse vector
    {index: x} without zeros whose keys come in no particular order."""
    vecs = st.dictionaries(st.integers(0, COMBINE_WIDTH - 1),
                           field_scalars(field).filter(bool), max_size=5)
    return draw(st.lists(st.tuples(field_scalars(field), vecs), max_size=6))


def combine_oracle(terms, field):
    """The sum of c * vec, accumulated densely, as {index: x} over its
    nonzero entries."""
    acc = [oracle_field(field).zero] * COMBINE_WIDTH
    for c, vec in terms:
        for g, x in vec.items():
            acc[g] = acc[g] + c * x
    return {g: x for g, x in enumerate(acc) if x}


def assert_combined(got, want, field):
    assert got == want
    assert list(got) == sorted(got)
    assert all(x and is_element(x, field) for x in got.values())


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_combine_matches_dense_oracle(field, data):
    terms = data.draw(sparse_terms(field))
    assert_combined(combine(terms, field), combine_oracle(terms, field), field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_combine_of_terms_and_their_negatives_is_empty(field, data):
    terms = data.draw(sparse_terms(field))
    back = [(-c, vec) for c, vec in terms]
    assert combine(data.draw(st.permutations(terms + back)), field) == {}
    for c, vec in terms:
        assert combine([(c, vec), (c, {g: -x for g, x in vec.items()})],
                       field) == {}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_combine_zero_coefficient_contributes_nothing(field, data):
    terms = data.draw(sparse_terms(field))
    zeros = [(field.zero, vec) for _, vec in data.draw(sparse_terms(field))]
    mixed = data.draw(st.permutations(terms + zeros))
    assert_combined(combine(mixed, field), combine(terms, field), field)
    assert combine(zeros, field) == {}


# each form of the coefficient one that a caller passes over the field;
# over F_p an unreduced int congruent to one takes the multiplying path
UNIT_FORMS = {QQ: [1, Fraction(1)],
              PrimeField(101): [1, PrimeField(101).one, 102]}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_combine_unit_coefficient_adds_as_multiplying_does(field, data):
    terms = data.draw(sparse_terms(field))
    ones = [(data.draw(st.sampled_from(UNIT_FORMS[field])), vec)
            for _, vec in data.draw(sparse_terms(field))]
    mixed = data.draw(st.permutations(terms + ones))
    assert_combined(combine(mixed, field), combine_oracle(mixed, field), field)


# -- sparse_kernel: the one homogeneous solve ---------------------------

KERNEL_FIELDS = [QQ, PrimeField(2), PrimeField(101)]
# equation keys of several hashable kinds
EQUATION_KEYS = ["a", "b", ("c", 1), 3, None, frozenset({2})]


@st.composite
def kernel_systems(draw, field):
    """(ncols, groups): up to four groups of (column, c, vec) terms, with
    c and the entries of vec zero possible and the keys of vec drawn from
    EQUATION_KEYS."""
    ncols = draw(st.integers(0, 5))
    if not ncols:
        return 0, draw(st.lists(st.just([]), max_size=2))
    term = st.tuples(st.integers(0, ncols - 1), field_scalars(field),
                     st.dictionaries(st.sampled_from(EQUATION_KEYS),
                                     field_scalars(field), max_size=3))
    return ncols, draw(st.lists(st.lists(term, max_size=6), max_size=4))


def sparse_kernel_oracle(ncols, field, groups):
    """Kernel basis of the dense matrix with one row per (group, key),
    each summed term by term, as dense tuples."""
    rows = []
    for group in groups:
        by_key = {}
        for col, c, vec in group:
            for key, x in vec.items():
                row = by_key.setdefault(key, [0] * ncols)
                row[col] += c * x
        rows += by_key.values()
    return kernel_basis_oracle(Matrix.from_rows(rows, field, cols=ncols))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sparse_kernel_matches_dense_oracle(field, data):
    ncols, groups = data.draw(kernel_systems(field))
    got = sparse_kernel(ncols, field, groups)
    assert [tuple(v.get(j, field.zero) for j in range(ncols)) for v in got] \
        == sparse_kernel_oracle(ncols, field, groups)
    assert all(x and is_element(x, field) for v in got for x in v.values())


def unread():
    """A group that fails the test if it is iterated."""
    raise AssertionError("a group after full rank was read")
    yield


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_sparse_kernel_reads_no_group_after_full_rank(field):
    one = field.one
    # the first group has rank 2 in 2 unknowns
    full = [(0, one, {"e": one}), (1, one, {"f": one})]
    assert sparse_kernel(2, field, iter([full, unread()])) == []
    assert sparse_kernel(0, field, iter([unread()])) == []
    # below full rank the next group is read, even at rank ncols - 1
    with pytest.raises(AssertionError, match="full rank"):
        sparse_kernel(3, field, iter([full, unread()]))
    # rank 1 after the first group, 2 after the second: the kernel is zero
    assert sparse_kernel(2, field, [full[:1], full[1:]]) == []


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_sparse_kernel_keeps_the_equations_of_each_group_apart(field):
    one = field.one
    # the key "e" of the first group and of the second are two equations,
    # x0 = 0 and x1 = 0, not their sum x0 + x1 = 0
    assert sparse_kernel(2, field, [[(0, one, {"e": one})],
                                    [(1, one, {"e": one})]]) == []
    # within a group the terms of one key add up: x0 + x1 = 0
    assert sparse_kernel(2, field, [[(0, one, {"e": one}),
                                     (1, one, {"e": one})]]) == [
        {0: -one if field == QQ else field.p - 1, 1: one}]


def test_sparse_kernel_takes_unreduced_ints_over_fp():
    f101 = PrimeField(101)
    # 102 x0 - 203 x1 = 0 is x0 - x1 = 0 mod 101; 404 x2 = 0 is no equation
    groups = [[(0, 102, {"e": 1}), (1, -1, {"e": 203}), (2, 1, {"f": 404})]]
    assert sparse_kernel(3, f101, groups) == [{0: 1, 1: 1}, {2: 1}]
    reduced = [[(0, 1, {"e": 1}), (1, 100, {"e": 1})]]
    assert sparse_kernel(3, f101, reduced) == [{0: 1, 1: 1}, {2: 1}]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_sparse_kernel_takes_any_hashable_equation_key(field):
    one = field.one
    two = field(2)
    by_int = [[(0, one, {0: one, 1: two}), (1, one, {0: two}), (2, one, {1: one})]]
    rename = dict(enumerate([("i", 0), frozenset({"j"})]))
    by_other = [[(col, c, {rename[k]: x for k, x in vec.items()})
                 for col, c, vec in group] for group in by_int]
    assert sparse_kernel(3, field, by_other) == sparse_kernel(3, field, by_int)
