"""Finite-dimensional quiver representations with the vertex-wise tensor
product: unit and simple objects, Hom spaces, subrepresentations and
quotients, restriction / extension by zero, the filtration of the unit by
suffix subquivers, and the projective modules M_n = e_n kQ/(R), built from
the quiver and the relations alone (`Probe`).

Arrow matrices act on column vectors; a path acts as the reverse-order
product of its arrow matrices, matching the left-to-right path word
convention used everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
from .linalg import (DimensionMismatch, Echelon, Matrix, block_matrix,
                     combine, kronecker, sparse_kernel)
from .path_algebra import _order_key
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
    as one linear system: one `sparse_kernel` group per arrow."""
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

    def naturality(a):
        # f_m v_a - w_a f_n = 0 for a: n -> m, one equation per entry (i, j)
        n, m = a.source, a.target
        va = v.arrow_maps[a.label].entries
        wa = w.arrow_maps[a.label].entries
        vn, vm = v.dims[n], v.dims[m]
        for i in range(w.dims[m]):
            for k in range(vm):
                yield (offsets[m] + i * vm + k, 1,
                       {(i, j): x for j, x in enumerate(va[k]) if x})
        for k in range(w.dims[n]):
            for j in range(vn):
                yield (offsets[n] + k * vn + j, -1,
                       {(i, j): row[k] for i, row in enumerate(wa) if row[k]})

    zero = field.zero
    basis = []
    for vec in sparse_kernel(total, field, map(naturality, quiver.arrows)):
        comps = {}
        for x in quiver.vertices:
            r, c, o = w.dims[x], v.dims[x], offsets[x]
            comps[x] = Matrix(r, c, [[vec.get(o + i * c + j, zero)
                                      for j in range(c)] for i in range(r)],
                              field)
        basis.append(RepMorphism(v, w, comps))
    return basis


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


class Probe:
    """The probe M_n = e_n kQ/(R), the projective right module at the
    vertex n, built as a representation from the quiver and the relation
    generators alone: no Groebner basis and no normal form of the path
    algebra goes into it.

    The vertices are taken in the quiver's admissible order
    (`admissible_order`, kept on the quiver).  M_n(n) is spanned
    by the trivial path, and M_n(v) is zero for every other vertex before
    n.  For a later vertex w, M_n(w) is the direct sum, over the arrows
    a: v -> w, of copies of M_n(v), modulo x * r for each relation r that
    ends at w and each basis vector x of M_n(source of r).  The quiver has
    no oriented cycle, so an ideal element u * r * t with t non-trivial is
    already zero in the space that t's last arrow starts from: the
    relations that end at w are all that the quotient at w needs, whatever
    the lengths of their paths.

    The columns of the direct sum at w are the words x + (a,), ordered by
    `Path.sort_key` with the largest word in the lowest column, and one
    `Echelon` reduces the relation images there.  So each pivot is the
    largest word of an element of the relation space, and the free columns
    are the words that are no such pivot: the basis words of M_n(w).  The
    path order is admissible, so these are the paths from n to w that
    contain no tip of the relation ideal, the basis words of kQ/(R) from n
    to w, and a basis vector is named by its word.  `steps` holds, for
    every column word, its image in M_n(w), {basis word: c}: that word
    itself if it is free, else minus the rest of its echelon row.  So the
    action of the arrow a on the basis vector x is `steps[x + (a,)]`."""

    def __init__(self, quiver, relations, field, n):
        self.field = field
        self.words = {n: [()]}   # vertex -> the basis words of M_n there
        self.steps = {}
        into = {}
        for a in quiver.arrows:
            into.setdefault(a.target, []).append((a.label, a.source))
        ending = {}
        for r in relations:
            ending.setdefault(r.target, []).append(r)
        one = field.one
        order = admissible_order(quiver)
        for w in order[order.index(n) + 1:]:
            cols = [x + (label,) for label, v in into.get(w, ())
                    for x in self.words.get(v, ())]
            if not cols:
                continue
            cols.sort(key=_order_key, reverse=True)
            col = {c: k for k, c in enumerate(cols)}
            ech = Echelon(len(cols), field)
            # the rows whose largest word is smallest first: then no row
            # taken earlier holds the new pivot, and `Echelon.add` clears
            # no column from the others.  The echelon form is the same in
            # any order; `reconstruct.assemble_A` on P^6 = beil(6,7) went
            # 0.48 -> 0.34 s (single runs, Python 3.11.7, 2-core x86-64)
            for row in sorted(filter(None, self.relation_images(
                    ending.get(w, ()), col)), key=min, reverse=True):
                ech.add(row)
            rows = ech.rows
            basis = []
            for k, c in enumerate(cols):
                row = rows.get(k)
                if row is None:
                    basis.append(c)
                    self.steps[c] = {c: one}
                else:
                    self.steps[c] = field.nonzero(
                        (cols[j], -x) for j, x in row.items() if j != k)
            self.words[w] = basis

    def relation_images(self, relations, col):
        """The images x * r of the `relations`, which end at one vertex, in
        the direct sum there, whose columns `col` numbers by word: one
        sparse row per relation r and basis vector x at r's source."""
        field = self.field
        for r in relations:
            for x in self.words.get(r.source, ()):
                start = {x: field.one}
                yield combine(
                    ((c, {col[y + p.arrows[-1:]]: d
                          for y, d in self.walk(p.arrows[:-1], start).items()})
                     for c, p in r.terms), field)

    def dim(self, v):
        return len(self.words.get(v, ()))

    def act(self, vec, label):
        """The vector `vec`, {basis word: c}, times the arrow `label`.  A
        basis vector with coefficient one gives the shared `steps` entry,
        which callers must not change."""
        if len(vec) == 1:
            (x, c), = vec.items()
            if c == 1:
                return self.steps[x + (label,)]
        return combine(((c, self.steps[x + (label,)]) for x, c in vec.items()),
                       self.field)

    def walk(self, word, start=None):
        """The vector `start`, the generator e_n by default, pushed along
        the arrows of `word`."""
        vec = {(): self.field.one} if start is None else start
        for label in word:
            vec = self.act(vec, label)
        return vec


def module_representation(alg, n):
    """The projective right module M_n = e_n kQ/(R), generated by the
    trivial path at n, as a representation: the `Probe` at n, built from
    the quiver and the relations of `alg`.  The basis at each vertex is
    the probe's basis words in ascending order, which are the basis
    classes of `alg` from n there, and the column of a basis word x in
    the matrix of the arrow a is `steps[x + (a,)]`, the action of a on x."""
    quiver, field = alg.quiver, alg.field
    probe = Probe(quiver, alg.relations, field, n)
    # the probe lists its words largest first
    words = {v: probe.words.get(v, [])[::-1] for v in quiver.vertices}
    maps = {}
    for a in quiver.arrows:
        pos = {w: k for k, w in enumerate(words[a.target])}
        cols = []
        for x in words[a.source]:
            col = [field.zero] * len(pos)
            for w, c in probe.steps[x + (a.label,)].items():
                col[pos[w]] = c
            cols.append(tuple(col))
        maps[a.label] = Matrix.from_columns(cols, field, rows=len(pos))
    return Representation(quiver, {v: len(w) for v, w in words.items()},
                          maps, field)
