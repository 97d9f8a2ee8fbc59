"""Finite-dimensional quiver representations with the vertex-wise tensor
product: unit and simple objects, Hom spaces, subrepresentations and
quotients, restriction / extension by zero, and the filtration of the unit
by suffix subquivers.

Arrow matrices act on column vectors; a path acts as the reverse-order
product of its arrow matrices, matching the left-to-right path word
convention used everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
from .linalg import (Coordinates, DimensionMismatch, Matrix, block_matrix,
                     kernel_basis, kronecker)
from .quiver import QuiverError, admissible_order, full_subquiver


class RepresentationError(ValueError):
    pass


class Representation:
    """Vector spaces at vertices, matrices along arrows."""

    def __init__(self, quiver, dims, arrow_maps, field=QQ):
        self.quiver = quiver
        self.field = field
        self.dims = {v: int(dims.get(v, 0)) for v in quiver.vertices}
        for v, d in self.dims.items():
            if d < 0:
                raise RepresentationError(f"negative dimension {d} at vertex {v}")
        self.arrow_maps = {}
        for a in quiver.arrows:
            m = arrow_maps.get(a.label)
            if m is None:
                m = Matrix.zeros(self.dims[a.target], self.dims[a.source], field)
            if (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise RepresentationError(
                    f"arrow {a.label}: matrix is {m.rows}x{m.cols}, "
                    f"expected {self.dims[a.target]}x{self.dims[a.source]}")
            self.arrow_maps[a.label] = m

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def path_action(self, path):
        """Matrix of a path: V_source -> V_target."""
        if path.is_trivial:
            return Matrix.identity(self.dims[path.source], self.field)
        first, *rest = path.arrows
        m = self.arrow_maps[first]
        for label in rest:
            m = self.arrow_maps[label] @ m
        return m

    def element_action(self, terms):
        """Matrix of a homogeneous linear combination of paths."""
        out = None
        for c, p in terms:
            part = self.path_action(p).scale(c)
            out = part if out is None else out + part
        return out

    def __eq__(self, other):
        return (isinstance(other, Representation)
                and self.quiver == other.quiver
                and self.dims == other.dims
                and self.arrow_maps == other.arrow_maps)

    def __repr__(self):
        return f"Representation(dims={self.dims})"

    def to_json(self):
        return {
            "dims": {v: self.dims[v] for v in self.quiver.vertices},
            "arrows": {label: [[self.field.format(x) for x in row]
                               for row in m.entries]
                       for label, m in self.arrow_maps.items()},
        }


def satisfies_relations(rep, relations):
    """First violated relation generator, or None if all hold."""
    for gen in relations:
        if not rep.element_action(gen.terms).is_zero():
            return gen
    return None


@dataclass
class RepMorphism:
    source: Representation
    target: Representation
    components: dict   # vertex -> Matrix

    def is_natural(self):
        for a in self.source.quiver.arrows:
            lhs = self.components[a.target] @ self.source.arrow_maps[a.label]
            rhs = self.target.arrow_maps[a.label] @ self.components[a.source]
            if lhs != rhs:
                return False
        return True

    def compose(self, other):
        """self after other (other: X -> Y, self: Y -> Z)."""
        return RepMorphism(other.source, self.target,
                           {v: self.components[v] @ other.components[v]
                            for v in self.components})

    def __add__(self, other):
        return RepMorphism(self.source, self.target,
                           {v: self.components[v] + other.components[v]
                            for v in self.components})

    def scale(self, c):
        return RepMorphism(self.source, self.target,
                           {v: m.scale(c) for v, m in self.components.items()})

    def is_zero(self):
        return all(m.is_zero() for m in self.components.values())


def unit_object(quiver, field=QQ):
    """One-dimensional space at every vertex, identity along every arrow."""
    dims = {v: 1 for v in quiver.vertices}
    maps = {a.label: Matrix.identity(1, field) for a in quiver.arrows}
    return Representation(quiver, dims, maps, field)


def simple_object(quiver, n, field=QQ):
    if n not in quiver.vertices:
        raise QuiverError(f"unknown vertex {n!r}")
    dims = {v: 1 if v == n else 0 for v in quiver.vertices}
    return Representation(quiver, dims, {}, field)


def zero_object(quiver, field=QQ):
    return Representation(quiver, {}, {}, field)


def tensor(v, w):
    """Vertex-wise tensor product; arrow maps are Kronecker products."""
    if v.quiver != w.quiver:
        raise DimensionMismatch("tensor factors live over different quivers")
    dims = {x: v.dims[x] * w.dims[x] for x in v.quiver.vertices}
    maps = {a.label: kronecker(v.arrow_maps[a.label], w.arrow_maps[a.label])
            for a in v.quiver.arrows}
    return Representation(v.quiver, dims, maps, v.field)


def direct_sum(v, w):
    if v.quiver != w.quiver:
        raise DimensionMismatch("summands live over different quivers")
    field = v.field
    dims = {x: v.dims[x] + w.dims[x] for x in v.quiver.vertices}
    maps = {}
    for a in v.quiver.arrows:
        va, wa = v.arrow_maps[a.label], w.arrow_maps[a.label]
        maps[a.label] = block_matrix(
            [[va, Matrix.zeros(va.rows, wa.cols, field)],
             [Matrix.zeros(wa.rows, va.cols, field), wa]], field)
    return Representation(v.quiver, dims, maps, field)


def hom_space(v, w):
    """Basis of all morphisms v -> w, by solving every naturality square
    as one linear system."""
    if v.quiver != w.quiver:
        raise DimensionMismatch("Hom between representations of different quivers")
    field = v.field
    quiver = v.quiver
    # unknown layout: per vertex, the component matrix in row-major order
    offsets = {}
    total = 0
    for x in quiver.vertices:
        offsets[x] = total
        total += w.dims[x] * v.dims[x]

    # over F_p the rows are left unreduced: the `Matrix` they are put in
    # reduces its entries, as `Echelon` reduces each row it takes
    rows = []
    for a in quiver.arrows:
        n, m = a.source, a.target
        va = v.arrow_maps[a.label]
        wa = w.arrow_maps[a.label]
        for i in range(w.dims[m]):
            for j in range(v.dims[n]):
                row = [field.zero] * total
                for k in range(v.dims[m]):
                    row[offsets[m] + i * v.dims[m] + k] = \
                        row[offsets[m] + i * v.dims[m] + k] + va.entries[k][j]
                for k in range(w.dims[n]):
                    row[offsets[n] + k * v.dims[n] + j] = \
                        row[offsets[n] + k * v.dims[n] + j] - wa.entries[i][k]
                rows.append(row)
    sys_mat = Matrix.from_rows(rows, field, cols=total)
    basis = []
    for vec in kernel_basis(sys_mat):
        comps = {}
        for x in quiver.vertices:
            r, c = w.dims[x], v.dims[x]
            comps[x] = Matrix(r, c,
                              [vec[offsets[x] + i * c: offsets[x] + (i + 1) * c]
                               for i in range(r)], field)
        basis.append(RepMorphism(v, w, comps))
    return basis


def sub_quotient(rep, sub_bases):
    """Split a representation along arrow-stable per-vertex subspaces.

    `sub_bases` maps each vertex to a list of linearly independent column
    vectors.  Returns (subrepresentation, quotient, inclusion, projection);
    raises naming the vertex whose vectors are dependent, or the arrow
    under which their span is not stable.

    Each vertex's vectors are completed greedily by standard basis vectors
    e_j to a basis, and one `Coordinates` per vertex reads coordinates in
    it.  Each arrow matrix is rewritten in those bases column by column: the
    coordinates at its target of the image of each basis vector of its
    source.  The sub and the quotient are the leading and trailing
    coordinate blocks of the rewritten matrices (`_split`).  The inclusion
    is the given vectors, and the projection takes each e_j to its trailing
    coordinates.
    """
    field = rep.field
    quiver = rep.quiver
    coords, basis, kept = {}, {}, {}
    incl, proj = {}, {}
    for x in quiver.vertices:
        d = rep.dims[x]
        cols = [tuple(field(c) for c in col) for col in sub_bases.get(x, [])]
        if any(len(col) != d for col in cols):
            raise RepresentationError(f"bad subspace vector length at {x}")
        coords[x] = c = Coordinates(cols, d, field)
        k = len(cols)
        if k + len(c.complement) != d:
            raise RepresentationError(
                f"subspace vectors at {x} are linearly dependent")
        ident = Matrix.identity(d, field).columns()
        basis[x] = cols + [ident[j] for j in c.complement]
        kept[x] = range(k)
        incl[x] = Matrix.from_columns(cols, field, rows=d)
        proj[x] = Matrix.from_columns([c.completed(e)[k:] for e in ident],
                                      field, rows=d - k)
    moved = Representation(quiver, rep.dims, {
        a.label: Matrix.from_columns(
            [coords[a.target].completed(rep.arrow_maps[a.label].apply(b))
             for b in basis[a.source]], field, rows=rep.dims[a.target])
        for a in quiver.arrows}, field)
    sub_rep, quot_rep = _split(moved, kept)
    return (sub_rep, quot_rep, RepMorphism(sub_rep, rep, incl),
            RepMorphism(rep, quot_rep, proj))


def _block(m, rows, cols):
    return Matrix._raw(len(rows), len(cols),
                       tuple(tuple(m.entries[i][j] for j in cols) for i in rows),
                       m.field)


def _split(rep, kept):
    """(sub, quotient) of `rep` for the span of the coordinates `kept[x]`,
    in the given order, at each vertex x; the quotient keeps the remaining
    coordinates in increasing order.  The sub and quotient arrow matrices
    are the (kept x kept) and (rest x rest) blocks of each arrow matrix, and
    the span is stable when every (rest x kept) block vanishes."""
    quiver = rep.quiver
    rest = {}
    for x in quiver.vertices:
        taken = set(kept[x])
        rest[x] = [i for i in range(rep.dims[x]) if i not in taken]
    sub_arrow = {}
    quot_arrow = {}
    for a in quiver.arrows:
        m = rep.arrow_maps[a.label]
        if any(m.entries[i][j] for i in rest[a.target] for j in kept[a.source]):
            raise RepresentationError(
                f"subspace not stable under arrow {a.label}")
        sub_arrow[a.label] = _block(m, kept[a.target], kept[a.source])
        quot_arrow[a.label] = _block(m, rest[a.target], rest[a.source])
    sub_rep = Representation(quiver, {x: len(kept[x]) for x in quiver.vertices},
                             sub_arrow, rep.field)
    quot_rep = Representation(quiver, {x: len(rest[x]) for x in quiver.vertices},
                              quot_arrow, rep.field)
    return sub_rep, quot_rep


def restrict(rep, verts):
    """Restriction along the inclusion of the full subquiver on `verts`."""
    sub, sub_vertices, kept_arrows = full_subquiver(rep.quiver, verts)
    dims = {v: rep.dims[v] for v in sub_vertices}
    maps = {label: rep.arrow_maps[label] for label in kept_arrows}
    return Representation(sub, dims, maps, rep.field)


def extend_by_zero(rep, quiver):
    """Extension by zero of a representation of a full subquiver."""
    sub = rep.quiver
    for v in sub.vertices:
        if v not in quiver.vertices:
            raise QuiverError(f"subquiver vertex {v!r} not in ambient quiver")
    dims = {v: rep.dims.get(v, 0) for v in quiver.vertices}
    maps = {}
    for a in quiver.arrows:
        if a.label in rep.arrow_maps:
            maps[a.label] = rep.arrow_maps[a.label]
    return Representation(quiver, dims, maps, rep.field)


@dataclass
class FiltrationStep:
    level: int                  # 1-based position in the admissible order
    vertex: str
    rep: Representation         # K_level as a representation
    relation_witness: object    # violated generator, or None
    quotient_is_simple: bool    # K_l / K_{l+1} matches the simple at `vertex`


def unit_filtration(quiver, relations, field=QQ):
    """The chain K_1 = U > K_2 > ... > K_q > K_{q+1} = 0, where K_l is
    spanned by the unit coordinates at vertices at position >= l in the
    admissible order.

    K_1 is the unit, and each level makes one `_split` of K_l into K_{l+1}
    and K_l / K_{l+1}.  The relations are tested on each K_l, and each
    quotient is compared with the simple at the vertex peeled off, so both
    bits come from the objects built."""
    order = admissible_order(quiver)
    position = {v: i + 1 for i, v in enumerate(order)}

    steps = []
    k_level = unit_object(quiver, field)
    for level, vertex in enumerate(order, start=1):
        k_next, quot = _split(k_level, {
            v: [0] if position[v] > level else [] for v in quiver.vertices})
        simple = simple_object(quiver, vertex, field)
        steps.append(FiltrationStep(level, vertex, k_level,
                                    satisfies_relations(k_level, relations),
                                    quot == simple))
        k_level = k_next
    return steps


def module_representation(alg, n):
    """The projective right module generated by the trivial path at n,
    viewed as a representation: the space at v is spanned by the basis
    classes of paths from n to v, arrows acting by right multiplication.
    Column x of the matrix of arrow a is `alg.arrow_step(x, a)`, the one
    place that multiplies a basis class by an arrow class."""
    quiver = alg.quiver
    field = alg.field
    vertex_basis = {v: alg.pair_indices.get((n, v), []) for v in quiver.vertices}
    dims = {v: len(vertex_basis[v]) for v in quiver.vertices}
    maps = {}
    for a in quiver.arrows:
        src, tgt = vertex_basis[a.source], vertex_basis[a.target]
        pos = {gi: k for k, gi in enumerate(tgt)}
        cols = []
        for gi in src:
            col = [field.zero] * len(tgt)
            for gk, c in alg.arrow_step(gi, a.label).items():
                col[pos[gk]] = c
            cols.append(tuple(col))
        maps[a.label] = Matrix.from_columns(cols, field, rows=len(tgt))
    return Representation(quiver, dims, maps, field)
