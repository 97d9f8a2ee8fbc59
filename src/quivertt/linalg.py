"""Exact linear algebra over a field object from `fields`: dense matrices,
one sparse linear-combination routine, one sparse elimination routine and
one sparse kernel routine.

Matrices are dense, immutable, row-major tuples of tuples.  Zero-by-n and
n-by-zero matrices are legal and represent maps to/from the zero space; they
show up constantly when simple objects and extensions by zero are around, so
nothing here assumes positive dimensions.

Only two constructors coerce: `Matrix(...)` and `Matrix.from_columns`
pass every entry through `field(x)`, for input from outside the library.
Every other matrix is assembled from entries that are canonical field
elements already, through `Matrix._raw` with no `field(x)` per entry:
`zeros` and `identity` from `field.zero` and `field.one`, `block_matrix`
by joining the rows of its blocks, `kronecker` and the arithmetic from
`field.vector`, and `complexes.complex_from_json` from one parse per
literal text.  `zeros` and `identity` refuse a negative shape, and
`block_matrix` and `complex_from_json` check their grid with
`check_grid`, as the constructor does.

All elimination goes through `Echelon`, which stores its rows sparse, as
{column: value} dicts, because the systems it solves (the relation
images of the probes of `repcat`, Hom constraints, commutators,
cohomology strands) have a handful of nonzeros per row.  `sparse_kernel`
is the one kernel routine: the center's commutant in `reconstruct`, the
naturality squares of `repcat.hom_space` and the strands of
`complexes.cohomology_at` hand it their terms, group by group.
`Coordinates` is the one basis-change routine: one echelon of the columns
augmented by the identity gives the coordinates of a vector in the
columns, the standard basis vectors that complete them greedily to a
basis, and the coordinates in that completed basis, so no inverse matrix
is formed.

Sparse vectors are {index: value} dicts, the format `Echelon` eats.
`combine` is the one sparse linear-combination routine: the products of
elements (`PathAlgebra.product`) and the probe walks of `repcat` are sums
it takes.  It folds no normal forms: on a tensor quotient the normal form
of a path is one basis class, read off a table (`path_algebra`).  The
rows of a `sparse_kernel` system are the exception: each group's rows are
filled in one pass over its terms, which costs less than a `combine` per
unknown.

An element of F_p is a plain `int` in [0, p) (see `fields`), and the
operators on ints do not reduce; every routine here ends in the field's
own reduction.  `Matrix` arithmetic, `kronecker` and `Coordinates` hand
what they compute to `field.vector`, `combine` and
`Echelon.sparse_kernel_basis` to `field.nonzero`, and `Echelon` (with
`_subtract`) passes every entry it takes or computes through `field(x)`.
So the callers of `combine` and `Echelon`, and the terms of
`sparse_kernel`, may hold unreduced ints.
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
        check_grid(rows, cols, entries)
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
    def from_columns(cls, cols_list, field=QQ, rows=None):
        c = len(cols_list)
        if c == 0 and rows is None:
            rows = 0
        r = rows if rows is not None else len(cols_list[0])
        return cls(r, c, [[cols_list[j][i] for j in range(c)] for i in range(r)], field)

    @classmethod
    def identity(cls, n, field=QQ):
        _check_shape(n, n)
        one, zero = field.one, field.zero
        entries = []
        for i in range(n):
            row = [zero] * n
            row[i] = one
            entries.append(tuple(row))
        return cls._raw(n, n, tuple(entries), field)

    @classmethod
    def zeros(cls, rows, cols, field=QQ):
        _check_shape(rows, cols)
        return cls._raw(rows, cols, ((field.zero,) * cols,) * rows, field)

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

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        vector = self.field.vector
        entries = tuple(vector(a + b for a, b in zip(ra, rb))
                        for ra, rb in zip(self.entries, other.entries))
        return Matrix._raw(self.rows, self.cols, entries, self.field)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        vector = self.field.vector
        entries = tuple(vector(-a for a in row) for row in self.entries)
        return Matrix._raw(self.rows, self.cols, entries, self.field)

    def scale(self, c):
        c = self.field(c)
        vector = self.field.vector
        entries = tuple(vector(c * a for a in row) for row in self.entries)
        return Matrix._raw(self.rows, self.cols, entries, self.field)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        zero, vector = self.field.zero, self.field.vector
        out = []
        for row in self.entries:
            acc = [zero] * other.cols
            for a, orow in zip(row, other.entries):
                if a:
                    acc = [s + a * b if b else s for s, b in zip(acc, orow)]
            out.append(vector(acc))
        return Matrix._raw(self.rows, other.cols, tuple(out), self.field)

    def apply(self, vec):
        """Matrix times column vector (a tuple), summed over the nonzero
        entries of the vector only."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        nonzero = [(j, b) for j, b in enumerate(vec) if b]
        zero = self.field.zero
        out = []
        for row in self.entries:
            s = zero
            for j, b in nonzero:
                a = row[j]
                if a:
                    s = s + a * b
            out.append(s)
        return self.field.vector(out)

    def is_zero(self):
        return all(not x for row in self.entries for x in row)


def block_matrix(blocks, field=QQ):
    """Assemble a matrix over `field` from a 2d grid of blocks over it,
    joining their rows of canonical entries; the blocks of a grid row
    share the height of its first block, and DimensionMismatch is raised
    unless every row of the result is as wide as the first grid row."""
    if not blocks:
        return Matrix.zeros(0, 0, field)
    rows = []
    for brow in blocks:
        grids = [blk.entries for blk in brow]
        for i in range(brow[0].rows):
            row = ()
            for grid in grids:
                row += grid[i]
            rows.append(row)
    cols = sum(b.cols for b in blocks[0])
    check_grid(len(rows), cols, rows)
    return Matrix._raw(len(rows), cols, tuple(rows), field)


def check_grid(rows, cols, entries):
    """DimensionMismatch unless `entries` is a grid of `rows` rows of
    `cols` entries each."""
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise DimensionMismatch(
            f"entry grid does not match shape {rows}x{cols}")


def _check_shape(rows, cols):
    """DimensionMismatch for a negative number of rows or columns."""
    if rows < 0 or cols < 0:
        raise DimensionMismatch(
            f"entry grid does not match shape {rows}x{cols}")


def rref(m):
    """Reduced row echelon form, read off an `Echelon` of the rows of `m`.
    Kept only because `perfbench/tracing.py` wraps it by name.

    Returns (reduced matrix, tuple of pivot columns, rank).
    """
    ech = Echelon(m.cols, m.field)
    for row in m.entries:
        ech.add(row)
    pivots = tuple(sorted(ech.rows))
    zero = m.field.zero
    rows = tuple(tuple(_dense(ech.rows[p], m.cols, zero)) for p in pivots)
    rows += ((zero,) * m.cols,) * (m.rows - len(pivots))
    return Matrix._raw(m.rows, m.cols, rows, m.field), pivots, len(pivots)


def sparse_kernel(ncols, field, groups):
    """Sparse kernel basis, as `Echelon.sparse_kernel_basis` gives it, of
    the homogeneous system in `ncols` unknowns that `groups` spell out.
    Its callers are the center's `_commutant` in `reconstruct`,
    `repcat.hom_space` and `complexes.cohomology_at`.

    Each group is an iterable of (column, c, vec) terms, `vec` a sparse
    vector keyed by equation: unknown `column` adds c * vec to the group's
    equations, one equation per key, and a key may be any hashable.  Each
    group's rows are filled in one pass over its terms, which costs less
    than a `combine` per unknown, and go into one `Echelon`, so over F_p
    they may hold unreduced ints.  Once the rank reaches `ncols` the
    kernel is zero, and no later group is read."""
    ech = Echelon(ncols, field)
    for group in groups:
        if ech.rank == ncols:
            break
        rows = {}   # equation -> {column: coefficient}
        for col, c, vec in group:
            for key, x in vec.items():
                # not `setdefault`, which builds a dict for every term
                row = rows.get(key)
                if row is None:
                    rows[key] = {col: c * x}
                elif col in row:
                    row[col] += c * x
                else:
                    row[col] = c * x
        for row in rows.values():
            ech.add(row)
    return ech.sparse_kernel_basis()


def kronecker(a, b):
    """Kronecker product; basis index ordering (i, j) -> i * b.cols + j."""
    if a.field != b.field:
        raise DimensionMismatch("mixed fields in kronecker")
    field = a.field
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            brow = b.entries[k]
            out.append(field.vector(aij * x for aij in a.entries[i]
                                    for x in brow))
    return Matrix._raw(a.rows * b.rows, a.cols * b.cols, tuple(out), field)


def combine(terms, field):
    """The sum over `field` of c * vec over the (c, vec) pairs `terms`,
    sparse vectors {index: x}, with its zeros dropped and its keys in
    ascending order.  A coefficient 1, the usual one, adds vec without a
    multiplication.  The sums go to `field.nonzero`, which reduces them
    over F_p before it drops zeros, so `c` and the entries may be any ints
    congruent to the elements they stand for."""
    acc = {}
    for c, vec in terms:
        unit = c == 1
        for g, x in vec.items():
            if not unit:
                x = c * x
            acc[g] = acc[g] + x if g in acc else x
    return field.nonzero(sorted(acc.items()))


class Echelon:
    """Incremental row echelon accumulator for span/membership questions.

    Each pivot row is stored sparse in `rows`, as a {column: value} dict
    whose pivot entry is one and which holds no zeros.  The rows are kept
    fully reduced (each row is zero in every other row's pivot column), so
    they are the RREF of the span; `reduce` returns the residue of a vector
    modulo the span, and `add` inserts it when the residue is nonzero,
    pivoting at its lowest nonzero column.  `add`, `reduce` and `contains`
    take a dense sequence or a {column: value} dict.

    Every stored entry is a field element, whatever the input rows held:
    each entry taken or computed goes through `field(x)`.

    `add` clears the new pivot column from the other rows only when some
    row can hold it: `_seen` holds every column of every row stored so far,
    a superset of the columns the rows hold.  So a row whose pivot column
    no stored row holds is inserted without a pass over the other rows.
    """

    def __init__(self, ncols, field=QQ):
        self.ncols = ncols
        self.field = field
        self.rows = {}
        self._seen = set()

    def _residue(self, vec):
        """The residue of `vec` as a {column: value} dict without zeros.
        Each entry goes through `field(x)`, so callers may pass any ints
        congruent to the entries they mean."""
        field = self.field
        v = {}
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        for j, x in items:
            if x:
                x = field(x)
                if x:
                    v[j] = x
        rows = self.rows
        # the rows are zero at each other's pivots, so the pivots to clear
        # are the ones where `vec` itself is nonzero, in any order
        for pc in v.keys() & rows.keys():
            _subtract(v, v.pop(pc), rows[pc], pc, field)
        return v

    def reduce(self, vec):
        """The residue of `vec` as a dense list.  Kept only because
        `perfbench/tracing.py` wraps it by name."""
        return _dense(self._residue(vec), self.ncols, self.field.zero)

    def add(self, vec):
        v = self._residue(vec)
        if not v:
            return False
        field = self.field
        pc = min(v)
        inv = field.inv(v[pc])
        row = {c: field(inv * a) for c, a in v.items()}
        if pc in self._seen:
            for other in self.rows.values():
                f = other.pop(pc, None)
                if f is not None:
                    _subtract(other, f, row, pc, field)
        self._seen.update(row)
        self.rows[pc] = row
        return True

    def contains(self, vec):
        return not self._residue(vec)

    @property
    def rank(self):
        return len(self.rows)

    def sparse_kernel_basis(self):
        """Basis of the right kernel of the accumulated rows, one vector
        per free column fc: one at fc and minus column fc of each row at
        that row's pivot, as a {column: value} dict in column order.  The
        rows are the RREF of any matrix with the same row space, so this is
        the kernel basis of that matrix read off its RREF.  A free column
        that no row holds gives {fc: one}, with no sort and no
        `field.nonzero`."""
        field = self.field
        hits = {}   # free column -> [(pivot, -entry)] over rows nonzero there
        for pc, row in self.rows.items():
            for c, x in row.items():
                if c != pc:
                    hits.setdefault(c, []).append((pc, -x))
        one = field.one
        return [field.nonzero(sorted([(fc, one)] + hits[fc])) if fc in hits
                else {fc: one} for fc in range(self.ncols) if fc not in self.rows]


def _dense(vec, ncols, zero):
    """The {column: value} dict `vec` as a list of length `ncols`."""
    out = [zero] * ncols
    for c, x in vec.items():
        out[c] = x
    return out


def _subtract(v, f, row, pivot, field):
    """v -= f * row in place, at every column of `row` but its pivot,
    each entry through `field(x)`, dropping the entries that cancel.  `v`
    and `row` hold canonical elements and no zeros, and f is nonzero."""
    g = -f
    for c, b in row.items():
        if c != pivot:
            x = field(v.get(c, 0) + g * b)
            if x:
                v[c] = x
            else:
                del v[c]


class Coordinates:
    """Coordinates in the columns c_i of length `dim`, completed greedily
    by standard basis vectors, read off one `Echelon`.

    The echelon holds the augmented rows [c_i | e_i] with the entries of
    each c_i written last to first, so a pivot among the first `dim`
    columns is the last nonzero entry of a vector of the span.  The
    standard indices j whose entry is no such pivot are `complement`, in
    ascending order: e_j is in it iff it lies outside the span of the
    columns and of the e_j before it, the greedy completion.  Reducing
    [v | 0] leaves [r | -x], where v = sum x_i c_i + r and r is zero off
    `complement`.  `completed` returns x followed by r at `complement`:
    with independent columns, the column at v of the inverse of
    [c_i | e_j for j in complement].

    `of` returns x alone and raises `InconsistentSystem` for a vector
    outside the span.  Both raise `DimensionMismatch` for a vector whose
    length is not `dim`, which would otherwise spill into the coordinate
    columns.
    """

    def __init__(self, cols, dim, field=QQ):
        cols = list(cols)
        self.dim = dim
        self.k = len(cols)
        self.field = field
        self._ech = Echelon(dim + self.k, field)
        for i, col in enumerate(cols):
            if len(col) != dim:
                raise DimensionMismatch("column length must equal dim")
            row = dict(enumerate(col[::-1]))
            row[dim + i] = field.one
            self._ech.add(row)
        self.complement = tuple(j for j in range(dim)
                                if dim - 1 - j not in self._ech.rows)

    def completed(self, vec):
        dim = self.dim
        if len(vec) != dim:
            raise DimensionMismatch("vector length must equal dim")
        res = self._ech._residue(vec[::-1])
        zero = self.field.zero
        return self.field.vector(
            [-res.get(dim + i, zero) for i in range(self.k)]
            + [res.get(dim - 1 - j, zero) for j in self.complement])

    def of(self, vec):
        full = self.completed(vec)
        if any(full[self.k:]):
            raise InconsistentSystem("vector not in the span of the columns")
        return full[:self.k]
