"""Dense exact linear algebra over a field object from `fields`.

Matrices are immutable, row-major tuples of tuples.  Zero-by-n and n-by-zero
matrices are legal and represent maps to/from the zero space; they show up
constantly when simple objects and extensions by zero are around, so nothing
here assumes positive dimensions.
"""

from __future__ import annotations

from .fields import QQ


class DimensionMismatch(ValueError):
    pass


class InconsistentSystem(ValueError):
    pass


class Matrix:
    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows, cols, entries, field=QQ):
        entries = tuple(tuple(field(x) for x in row) for row in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionMismatch(
                f"entry grid does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.field = field


    @classmethod
    def _raw(cls, rows, cols, entries, field):
        """Internal constructor skipping entry coercion; entries must
        already be canonical field elements in an immutable grid."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m.field = field
        return m

    @classmethod
    def from_rows(cls, rows_list, field=QQ, cols=None):
        r = len(rows_list)
        if r == 0 and cols is None:
            cols = 0
        c = cols if cols is not None else len(rows_list[0])
        return cls(r, c, rows_list, field)

    @classmethod
    def from_columns(cls, cols_list, field=QQ, rows=None):
        c = len(cols_list)
        if c == 0 and rows is None:
            rows = 0
        r = rows if rows is not None else len(cols_list[0])
        return cls(r, c, [[cols_list[j][i] for j in range(c)] for i in range(r)], field)

    @classmethod
    def identity(cls, n, field=QQ):
        one, zero = field.one, field.zero
        return cls(n, n, [[one if i == j else zero for j in range(n)] for i in range(n)], field)

    @classmethod
    def zeros(cls, rows, cols, field=QQ):
        zero = field.zero
        return cls(rows, cols, [[zero] * cols for _ in range(rows)], field)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.entries})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return Matrix._raw(self.rows, self.cols,
                           tuple(tuple(a + b for a, b in zip(ra, rb))
                                 for ra, rb in zip(self.entries, other.entries)),
                           self.field)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._raw(self.rows, self.cols,
                           tuple(tuple(-a for a in row) for row in self.entries),
                           self.field)

    def scale(self, c):
        c = self.field(c)
        return Matrix._raw(self.rows, self.cols,
                           tuple(tuple(c * a for a in row) for row in self.entries),
                           self.field)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        zero = self.field.zero
        ot = list(zip(*other.entries)) if other.entries else []
        out = []
        for row in self.entries:
            out_row = []
            for j in range(other.cols):
                s = zero
                col = ot[j] if ot else ()
                for a, b in zip(row, col):
                    if a:
                        s = s + a * b
                out_row.append(s)
            out.append(tuple(out_row))
        return Matrix._raw(self.rows, other.cols, tuple(out), self.field)

    def apply(self, vec):
        """Matrix times column vector (a tuple)."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        zero = self.field.zero
        out = []
        for row in self.entries:
            s = zero
            for a, b in zip(row, vec):
                if a:
                    s = s + a * b
            out.append(s)
        return tuple(out)

    def transpose(self):
        return Matrix._raw(self.cols, self.rows,
                           tuple(self.column(i) for i in range(self.cols)),
                           self.field)

    def is_zero(self):
        return all(not x for row in self.entries for x in row)

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("row mismatch in hstack")
        return Matrix._raw(self.rows, self.cols + other.cols,
                           tuple(ra + rb for ra, rb in zip(self.entries, other.entries)),
                           self.field)

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionMismatch("column mismatch in vstack")
        return Matrix._raw(self.rows + other.rows, self.cols,
                           self.entries + other.entries, self.field)


def block_matrix(blocks, field=QQ):
    """Assemble a matrix from a 2d grid of blocks (row/col counts must agree)."""
    if not blocks:
        return Matrix.zeros(0, 0, field)
    rows = []
    for brow in blocks:
        height = brow[0].rows
        for i in range(height):
            rows.append(tuple(x for blk in brow for x in blk.entries[i]))
    cols = sum(b.cols for b in blocks[0])
    return Matrix.from_rows(rows, field, cols=cols)


def rref(m):
    """Reduced row echelon form.

    Returns (reduced matrix, tuple of pivot columns, rank).
    """
    field = m.field
    rows = [list(r) for r in m.entries]
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
        inv = field.one / rows[piv_r][piv_c]
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


def rank(m):
    return rref(m)[2]


def kernel_basis(m):
    """Basis of the right kernel, as a list of column-vector tuples."""
    field = m.field
    red, pivots, rk = rref(m)
    free = [j for j in range(m.cols) if j not in set(pivots)]
    basis = []
    for fc in free:
        v = [field.zero] * m.cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][fc]
        basis.append(tuple(v))
    return basis


def solve(a, b):
    """Solve a x = b for a column vector b.

    Returns (particular solution or None, kernel basis of a).
    """
    if len(b) != a.rows:
        raise DimensionMismatch("rhs length must equal row count")
    field = a.field
    aug = a.hstack(Matrix.from_columns([list(b)], field, rows=a.rows))
    red, pivots, rk = rref(aug)
    if a.cols in pivots:
        return None, kernel_basis(a)
    x = [field.zero] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.entries[r][a.cols]
    return tuple(x), kernel_basis(a)


def solve_many(a, bs):
    """Particular solutions of a x = b for several rhs vectors at once.

    Raises InconsistentSystem if any rhs is not in the column span.
    """
    field = a.field
    if not bs:
        return []
    aug = a.hstack(Matrix.from_columns([list(b) for b in bs], field, rows=a.rows))
    red, pivots, rk = rref(aug)
    main_pivots = [p for p in pivots if p < a.cols]
    if len(main_pivots) != len(pivots):
        bad = pivots[len(main_pivots)] - a.cols
        raise InconsistentSystem(f"rhs #{bad} not in column span")
    sols = []
    for k in range(len(bs)):
        x = [field.zero] * a.cols
        for r, pc in enumerate(main_pivots):
            x[pc] = red.entries[r][a.cols + k]
        sols.append(tuple(x))
    return sols


def kronecker(a, b):
    """Kronecker product; basis index ordering (i, j) -> i * b.cols + j."""
    if a.field != b.field:
        raise DimensionMismatch("mixed fields in kronecker")
    field = a.field
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                aij = a.entries[i][j]
                brow = b.entries[k]
                row.extend(aij * x for x in brow)
            out.append(tuple(row))
    return Matrix._raw(a.rows * b.rows, a.cols * b.cols, tuple(out), field)


class Echelon:
    """Incremental row echelon accumulator for span/membership questions.

    Rows are kept fully reduced (each row is zero in every other row's pivot
    column); `reduce` returns the residue of a vector modulo the current
    span, `add` inserts it when the residue is nonzero.
    """

    def __init__(self, ncols, field=QQ):
        self.ncols = ncols
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
                    f = other[p]
                    if f:
                        self.pivot_rows[q] = [a - f * b for a, b in zip(other, row)]
                self.pivot_rows[p] = row
                return True
        return False

    def contains(self, vec):
        return not any(self.reduce(vec))

    @property
    def rank(self):
        return len(self.pivot_rows)


def complete_basis(cols, dim, field=QQ):
    """Extend the columns `cols` of length `dim` greedily by standard basis
    vectors to a basis of field^dim.

    Returns (the added standard vectors, the inverse of [cols | added]).
    """
    ech = Echelon(dim, field)
    for col in cols:
        ech.add(col)
    added = []
    for j in range(dim):
        e = [field.zero] * dim
        e[j] = field.one
        if ech.add(e):
            added.append(tuple(e))
    full = Matrix.from_columns(list(cols) + added, field, rows=dim)
    ident = Matrix.identity(dim, field)
    inv_cols = solve_many(full, [ident.column(j) for j in range(dim)])
    return added, Matrix.from_columns(inv_cols, field, rows=full.cols)
