"""Dense reference versions of the elimination and product kernels, kept
as differential oracles for the zero-skipping code in `linalg`.

Each does the arithmetic on every entry, zero or not, as `linalg` did
before its row operations skipped zeros and `rref` became a view of
`Echelon`.  The solver and the basis completion work on the dense RREF of
an augmented matrix, as `linalg` did before it read coordinates off one
sparse echelon.  `gauss_jordan_kernel_oracle` is a sparse Gauss-Jordan
elimination, column by column, written apart from `linalg.Echelon`,
for systems too large for the dense oracles.

Over QQ the eliminations compute in `Fraction` throughout, apart from the
library's elements, which are `int`s when integral: there `/` would give
a float.  Over F_p they compute in the `FpElement`s of `fields_oracle`,
since the library's elements are plain `int`s that the operators do not
reduce.  Their results compare equal to the library's elements.
"""

from fractions import Fraction

from quivertt.fields import QQ
from quivertt.linalg import InconsistentSystem, Matrix

from fields_oracle import FpElement, oracle_field


def from_rows(rows_list, field=QQ, cols=None):
    """The matrix of the rows `rows_list`, coerced by `Matrix`; with no
    rows its width is `cols`, or zero.  `Matrix.from_rows` until
    `block_matrix` stopped calling it."""
    r = len(rows_list)
    if r == 0 and cols is None:
        cols = 0
    c = cols if cols is not None else len(rows_list[0])
    return Matrix(r, c, rows_list, field)


def exact(field, x):
    """`x` as the oracles compute with it: a `Fraction` over QQ, and an
    element of the oracle field over F_p."""
    return Fraction(x) if field == QQ else oracle_field(field)(x)


def rref_oracle(m):
    """Column-by-column Gauss-Jordan elimination.

    Returns (reduced matrix, tuple of pivot columns, rank).
    """
    field = m.field
    rows = [[exact(field, x) for x in r] for r in m.entries]
    pivots = []
    piv_r = 0
    for piv_c in range(m.cols):
        pr = None
        for i in range(piv_r, m.rows):
            if rows[i][piv_c]:
                pr = i
                break
        if pr is None:
            continue
        rows[piv_r], rows[pr] = rows[pr], rows[piv_r]
        inv = exact(field, field.one) / rows[piv_r][piv_c]
        rows[piv_r] = [inv * x for x in rows[piv_r]]
        for i in range(m.rows):
            if i != piv_r and rows[i][piv_c]:
                f = rows[i][piv_c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[piv_r])]
        pivots.append(piv_c)
        piv_r += 1
        if piv_r == m.rows:
            break
    return (Matrix._raw(m.rows, m.cols, tuple(tuple(r) for r in rows), field),
            tuple(pivots), len(pivots))


def kernel_basis_oracle(m):
    """Basis of the right kernel of `m`, one column-vector tuple per free
    column of `rref_oracle(m)`."""
    field = m.field
    red, pivots, rk = rref_oracle(m)
    basis = []
    for fc in range(m.cols):
        if fc in pivots:
            continue
        v = [exact(field, field.zero)] * m.cols
        v[fc] = exact(field, field.one)
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][fc]
        basis.append(tuple(v))
    return basis


def gauss_jordan_kernel_oracle(rows, ncols, field):
    """Basis of the right kernel of `rows`, {column: value} dicts in
    `ncols` unknowns, by column-by-column Gauss-Jordan elimination on
    sparse rows in the oracle arithmetic; it shares no code with
    `linalg.Echelon`.  One vector per free column fc, in order: one at fc
    and minus column fc of each pivot row at that row's pivot, as a
    {column: value} dict over `field` in column order."""
    one, zero = exact(field, field.one), exact(field, field.zero)
    todo = []
    for row in rows:
        exact_row = {c: exact(field, x) for c, x in row.items()}
        todo.append({c: x for c, x in exact_row.items() if x})
    pivots = {}   # pivot column -> its row, one there and zero at the others
    for col in range(ncols):
        pivot = next((row for row in todo if col in row), None)
        if pivot is None:
            continue
        todo = [row for row in todo if row is not pivot]
        inv = one / pivot[col]
        pivot = {c: inv * x for c, x in pivot.items()}
        for row in todo + list(pivots.values()):
            f = row.get(col)
            if f is None:
                continue
            for c, x in pivot.items():
                y = row.get(c, zero) - f * x
                if y:
                    row[c] = y
                else:
                    del row[c]
        todo = [row for row in todo if row]
        pivots[col] = pivot
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = {fc: one}
        for pc, row in pivots.items():
            if fc in row:
                vec[pc] = -row[fc]
        basis.append({c: library(field, vec[c]) for c in sorted(vec)})
    return basis


def library(field, x):
    """The oracle's value `x` as an element of the library's `field`."""
    return field(x.value if isinstance(x, FpElement) else x)


def solve_many_oracle(a, bs):
    """Particular solutions of a x = b for each b, read off the RREF of
    the augmented matrix [a | b_0 | b_1 | ...]."""
    field = a.field
    aug = from_rows([tuple(row) + tuple(b[i] for b in bs)
                     for i, row in enumerate(a.entries)],
                    field, cols=a.cols + len(bs))
    red, pivots, _ = rref_oracle(aug)
    if any(p >= a.cols for p in pivots):
        raise InconsistentSystem("rhs not in column span")
    sols = []
    for k in range(len(bs)):
        x = [exact(field, field.zero)] * a.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.entries[r][a.cols + k]
        sols.append(tuple(x))
    return sols


def complete_basis_oracle(cols, dim, field):
    """The standard vectors that raise the rank of `cols` and of those kept
    before them, and the inverse of [cols | added] solved against each
    column of the identity; over F_p the inverse is a matrix over the
    oracle field."""
    cols = [tuple(c) for c in cols]

    def rank_of(vectors):
        return rref_oracle(Matrix.from_columns(vectors, field, rows=dim))[2]

    added = []
    for j in range(dim):
        e = tuple(field.one if i == j else field.zero for i in range(dim))
        if rank_of(cols + added + [e]) > rank_of(cols + added):
            added.append(e)
    full = Matrix.from_columns(cols + added, field, rows=dim)
    ident = Matrix.identity(dim, field)
    inv_cols = solve_many_oracle(full, [ident.column(j) for j in range(dim)])
    return added, Matrix.from_columns(inv_cols, oracle_field(field),
                                      rows=full.cols)


def matmul_oracle(a, b):
    """The product a @ b, one dot product per output entry."""
    zero = exact(a.field, a.field.zero)
    ot = list(zip(*b.entries)) if b.entries else []
    out = []
    for row in a.entries:
        out_row = []
        for j in range(b.cols):
            s = zero
            col = ot[j] if ot else ()
            for x, y in zip(row, col):
                if x:
                    s = s + x * y
            out_row.append(s)
        out.append(tuple(out_row))
    return Matrix._raw(a.rows, b.cols, tuple(out), a.field)


class RREFEchelonOracle:
    """The fully reduced accumulator the path-algebra builder used before
    `Echelon` took its place, with the `reduce` it inherited."""

    def __init__(self, ncols, field):
        self.field = field
        self.pivot_rows = {}

    def reduce(self, vec):
        v = [exact(self.field, x) for x in vec]
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
                inv = exact(self.field, self.field.one) / x
                row = [inv * a for a in v]
                for q, other in list(self.pivot_rows.items()):
                    if other[p]:
                        f = other[p]
                        self.pivot_rows[q] = [a - f * b for a, b in zip(other, row)]
                self.pivot_rows[p] = row
                return True
        return False
