"""Bounded complexes of quiver representations: vertex-wise cohomology,
supports, shifts, cones and total tensor complexes.

Sign conventions, fixed once: d(x (x) y) = dx (x) y + (-1)^deg(x) x (x) dy
for the total tensor complex; cone(f)^i = V^{i+1} + W^i with differential
[[-dV, 0], [f, dW]]; shifting by j multiplies differentials by (-1)^j.
The direct sum V + W is the cone of the zero map V[-1] -> W: its terms
are V^i + W^i and its differentials [[dV, 0], [0, dW]].
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
from .linalg import (Coordinates, DimensionMismatch, Echelon, Matrix,
                     block_matrix, kronecker, sparse_kernel)
from .quiver import ResourceBudget
from .repcat import (RepMorphism, Representation, direct_sum, tensor,
                     zero_object)


# The largest total dimension, summed over every term and vertex, that
# `complex_from_json` accepts.  A file can declare any dimension in a few
# bytes, while the matrices along its arrows grow with the square of it and
# the path products that `support` checks with its cube.  Four times the
# largest complex that the `sweep-small` workload of `perfbench/` draws.
MAX_COMPLEX_DIM = 256


class ComplexError(ValueError):
    pass


def id_morphism(rep):
    return RepMorphism(rep, rep, {v: Matrix.identity(rep.dims[v], rep.field)
                                  for v in rep.quiver.vertices})


def zero_morphism(src, tgt):
    return RepMorphism(src, tgt, {v: Matrix.zeros(tgt.dims[v], src.dims[v], src.field)
                                  for v in src.quiver.vertices})


class BoundedComplex:
    """Finitely many representation terms with differentials squaring to
    zero at every vertex.  Every complex is checked when it is built: a
    differential that is no morphism between its terms, or two that do not
    compose to zero, raise ComplexError."""

    def __init__(self, quiver, terms, differentials=None, field=QQ):
        self.quiver = quiver
        self.field = field
        self.terms = {int(i): t for i, t in terms.items() if t.total_dim > 0}
        self.differentials = {}
        differentials = differentials or {}
        for i in sorted(self.terms):
            if i + 1 in self.terms:
                d = differentials.get(i)
                if d is None:
                    d = zero_morphism(self.terms[i], self.terms[i + 1])
                self.differentials[i] = d
        for i, d in self.differentials.items():
            if d.source is not self.terms[i] and d.source != self.terms[i]:
                raise ComplexError(f"differential at degree {i} has wrong source")
            if d.target != self.terms[i + 1]:
                raise ComplexError(f"differential at degree {i} has wrong target")
            if not d.is_natural():
                raise ComplexError(f"differential at degree {i} is not a morphism")
        for i in self.differentials:
            if i + 1 in self.differentials:
                if not self.differentials[i + 1].compose(self.differentials[i]).is_zero():
                    raise ComplexError(f"d^2 != 0 between degrees {i} and {i+2}")

    @classmethod
    def from_representation(cls, rep, degree=0):
        return cls(rep.quiver, {degree: rep}, {}, rep.field)

    @classmethod
    def from_map(cls, f, degree=0):
        """Two-term complex with f placed from `degree` to `degree`+1."""
        return cls(f.source.quiver, {degree: f.source, degree + 1: f.target},
                   {degree: f}, f.source.field)

    def degrees(self):
        return sorted(self.terms)

    def term(self, i):
        t = self.terms.get(i)
        return t if t is not None else zero_object(self.quiver, self.field)

    def term_dim(self, i, v):
        t = self.terms.get(i)
        return t.dims[v] if t is not None else 0

    def strand_matrix(self, i, v):
        """The vertex-v component of d^i (zero-shaped when absent)."""
        d = self.differentials.get(i)
        if d is not None:
            return d.components[v]
        return Matrix.zeros(self.term_dim(i + 1, v), self.term_dim(i, v), self.field)

    def is_zero(self):
        return not self.terms


@dataclass
class GradedVectorSpace:
    """Graded cohomology data at one vertex, with witness bases: coset
    representatives inside the kernel, and a basis of the image of the
    previous differential."""

    dims: dict
    representatives: dict
    image_basis: dict

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def is_zero(self):
        return self.total_dim == 0


def cohomology_at(cx, n):
    """Vertex-wise cohomology: the graded space ker(d^i_n) / im(d^{i-1}_n).
    The kernel of d^i_n is one `sparse_kernel` group, unknown j being
    column j; a kernel vector is made dense only if it is kept."""
    field = cx.field
    zero = field.zero
    dims, reps, images = {}, {}, {}
    for i in sorted(cx.terms):
        dim = cx.term_dim(i, n)
        if dim == 0:
            continue
        d_prev = cx.strand_matrix(i - 1, n)
        img = []
        ech = Echelon(dim, field)
        for col in d_prev.columns():
            if ech.add(col):
                img.append(col)
        strand = zip(*cx.strand_matrix(i, n).entries)
        group = [(j, 1, {r: x for r, x in enumerate(col) if x})
                 for j, col in enumerate(strand)]
        chosen = []
        for vec in sparse_kernel(dim, field, [group]):
            if ech.add(vec):
                chosen.append(tuple(vec.get(j, zero) for j in range(dim)))
        if chosen:
            dims[i] = len(chosen)
            reps[i] = chosen
        if img:
            images[i] = img
    return GradedVectorSpace(dims, reps, images)


def induced_on_cohomology(mat, h_src, h_tgt, degree):
    """The matrix, in the chosen cohomology bases, of the map that `mat`
    induces from h_src to h_tgt in `degree`: each source representative's
    image is read in the target's representatives and image basis, and its
    boundary part is dropped."""
    reps = h_src.representatives[degree]
    tgt_reps = h_tgt.representatives.get(degree, [])
    if not tgt_reps:
        return Matrix.zeros(0, len(reps), mat.field)
    coords = Coordinates(list(tgt_reps) + list(h_tgt.image_basis.get(degree, [])),
                         mat.rows, mat.field)
    k = len(tgt_reps)
    return Matrix.from_columns([coords.of(mat.apply(r))[:k] for r in reps],
                               mat.field, rows=k)


def support(cx):
    """Vertices where some degree has nonzero cohomology."""
    return frozenset(v for v in cx.quiver.vertices
                     if not cohomology_at(cx, v).is_zero())


def eval_functor(cx, n):
    """The value of the k-point attached to vertex n: graded cohomology
    at that vertex."""
    return cohomology_at(cx, n)


@dataclass
class ChainMap:
    source: BoundedComplex
    target: BoundedComplex
    components: dict   # degree -> RepMorphism

    def component(self, i):
        f = self.components.get(i)
        if f is None:
            return zero_morphism(self.source.term(i), self.target.term(i))
        return f

    def is_chain_map(self):
        degrees = set(self.source.terms) | set(self.target.terms)
        for i in degrees:
            lhs = self.target.differentials.get(i)
            f_i = self.component(i)
            f_next = self.component(i + 1)
            d_src = self.source.differentials.get(i)
            # target_d . f_i == f_{i+1} . source_d, with zeros where absent
            left = (lhs.compose(f_i) if lhs is not None
                    else zero_morphism(self.source.term(i), self.target.term(i + 1)))
            right = (f_next.compose(d_src) if d_src is not None
                     else zero_morphism(self.source.term(i), self.target.term(i + 1)))
            for v in self.source.quiver.vertices:
                if left.components[v] != right.components[v]:
                    return False
        return True


def shift(cx, j):
    terms = {i - j: t for i, t in cx.terms.items()}
    sign = cx.field.one if j % 2 == 0 else -cx.field.one
    diffs = {}
    for i, d in cx.differentials.items():
        diffs[i - j] = RepMorphism(d.source, d.target,
                                   {v: m.scale(sign) for v, m in d.components.items()})
    return BoundedComplex(cx.quiver, terms, diffs, cx.field)


def cone(f):
    """Mapping cone of a chain map f: V -> W."""
    if not f.is_chain_map():
        raise ComplexError("cone of a non-chain-map")
    v, w = f.source, f.target
    field = v.field
    quiver = v.quiver
    degrees = sorted(set(i - 1 for i in v.terms) | set(w.terms))
    terms, diffs = {}, {}
    for i in degrees:
        terms[i] = direct_sum(v.term(i + 1), w.term(i))
    for i in degrees:
        if i + 1 not in terms:
            continue
        comps = {}
        for x in quiver.vertices:
            dv = v.strand_matrix(i + 1, x)
            dw = w.strand_matrix(i, x)
            fx = f.component(i + 1).components[x]
            comps[x] = block_matrix(
                [[-dv, Matrix.zeros(dv.rows, dw.cols, field)], [fx, dw]],
                field)
        diffs[i] = RepMorphism(terms[i], terms[i + 1], comps)
    return BoundedComplex(quiver, terms, diffs, field)


def tensor_complex(v, w):
    """Total complex of the vertex-wise tensor product."""
    if v.quiver != w.quiver:
        raise DimensionMismatch("tensor of complexes over different quivers")
    field = v.field
    quiver = v.quiver
    if v.is_zero() or w.is_zero():
        return BoundedComplex(quiver, {}, {}, field)
    degrees_v = sorted(v.terms)
    degrees_w = sorted(w.terms)
    summands = {}
    for i in degrees_v:
        for j in degrees_w:
            summands.setdefault(i + j, []).append(i)
    for k in summands:
        summands[k].sort()

    terms = {}
    for k, firsts in summands.items():
        rep = None
        for i in firsts:
            piece = tensor(v.terms[i], w.terms[k - i])
            rep = piece if rep is None else direct_sum(rep, piece)
        terms[k] = rep

    diffs = {}
    for k in sorted(summands):
        if k + 1 not in summands:
            continue
        src_list, tgt_list = summands[k], summands[k + 1]
        comps = {}
        for x in quiver.vertices:
            blocks = []
            for ip in tgt_list:
                row = []
                for i in src_list:
                    rows_dim = v.term_dim(ip, x) * w.term_dim(k + 1 - ip, x)
                    cols_dim = v.term_dim(i, x) * w.term_dim(k - i, x)
                    if ip == i:
                        dw = w.strand_matrix(k - i, x)
                        blk = kronecker(Matrix.identity(v.term_dim(i, x), field), dw)
                        if i % 2:
                            blk = -blk
                    elif ip == i + 1:
                        dv = v.strand_matrix(i, x)
                        blk = kronecker(dv, Matrix.identity(w.term_dim(k - i, x), field))
                    else:
                        blk = Matrix.zeros(rows_dim, cols_dim, field)
                    row.append(blk)
                blocks.append(row)
            comps[x] = block_matrix(blocks, field)
        diffs[k] = RepMorphism(terms[k], terms[k + 1], comps)
    return BoundedComplex(quiver, terms, diffs, field)


def direct_sum_complex(v, w):
    """V + W, as the cone of the zero chain map V[-1] -> W."""
    if v.quiver != w.quiver:
        raise DimensionMismatch("direct sum of complexes over different quivers")
    return cone(ChainMap(shift(v, -1), w, {}))


def split_vector_complex(cx):
    """Quasi-isomorphism witnesses between a complex over a one-vertex
    quiver and its cohomology with zero differentials.

    Returns (cohomology complex, map to it, map from it); both maps are
    chain maps and their composite in either order induces the identity on
    cohomology.  The map to it takes each standard vector to its
    coordinates on the representatives, read off a `Coordinates` of the
    representatives and the image basis completed by standard vectors.
    """
    if len(cx.quiver.vertices) != 1:
        raise ComplexError("splitting requires a one-vertex quiver")
    x = cx.quiver.vertices[0]
    field = cx.field
    h_terms, to_comps, from_comps = {}, {}, {}
    gvs = cohomology_at(cx, x)
    for i in sorted(cx.terms):
        d = cx.term_dim(i, x)
        reps = gvs.representatives.get(i, [])
        img = gvs.image_basis.get(i, [])
        coords = Coordinates(list(reps) + list(img), d, field)
        to_comps[i] = Matrix.from_columns(
            [coords.completed(e)[:len(reps)]
             for e in Matrix.identity(d, field).columns()],
            field, rows=len(reps))
        if reps:
            h_terms[i] = Representation(cx.quiver, {x: len(reps)}, {}, field)
        from_comps[i] = Matrix.from_columns(list(reps), field, rows=d)
    h_cx = BoundedComplex(cx.quiver, h_terms, {}, field)
    to_h = ChainMap(cx, h_cx,
                    {i: RepMorphism(cx.term(i), h_cx.term(i), {x: to_comps[i]})
                     for i in cx.terms})
    from_h = ChainMap(h_cx, cx,
                      {i: RepMorphism(h_cx.term(i), cx.term(i), {x: from_comps[i]})
                       for i in cx.terms})
    return h_cx, to_h, from_h


def induced_cohomology_map(f, n):
    """Per-degree matrices of the map H(source)_n -> H(target)_n induced
    by a chain map, in the chosen cohomology bases."""
    h_src = cohomology_at(f.source, n)
    h_tgt = cohomology_at(f.target, n)
    return {i: induced_on_cohomology(f.component(i).components[n], h_src, h_tgt, i)
            for i in h_src.representatives}


def complex_to_json(cx):
    return {
        "terms": {str(i): t.to_json() for i, t in sorted(cx.terms.items())},
        "differentials": {
            str(i): {v: [[cx.field.format(x) for x in row]
                         for row in d.components[v].entries]
                     for v in cx.quiver.vertices}
            for i, d in sorted(cx.differentials.items())},
    }


def complex_from_json(data, quiver, field=QQ):
    """The complex a JSON object describes (format in docs/output-schema.md).
    Raises ComplexError on a degree key that is not an integer in
    canonical decimal form, a vertex key the quiver does not have, or a
    dimension that is not a non-negative JSON integer, and ResourceBudget
    when the dimensions add up to more than MAX_COMPLEX_DIM, before
    building any matrix."""
    declared = {key: rep_data.get("dims", {})
                for key, rep_data in data.get("terms", {}).items()}
    total = 0
    for key, dims in declared.items():
        _check_vertices(f"term {key}", dims, quiver)
        for v, d in dims.items():
            if type(d) is not int:
                raise ComplexError(
                    f"term {key}: dimension {d!r} at vertex {v} is not an "
                    f"integer")
            if d < 0:
                raise ComplexError(
                    f"term {key}: negative dimension {d} at vertex {v}")
            total += d
    if total > MAX_COMPLEX_DIM:
        raise ResourceBudget(
            f"complex declares total dimension {total}, above the budget "
            f"of {MAX_COMPLEX_DIM}")
    terms = {}
    for key, rep_data in data.get("terms", {}).items():
        dims = declared[key]
        maps = {}
        for label, grid in rep_data.get("arrows", {}).items():
            a = quiver.arrow(label)
            maps[label] = Matrix(dims.get(a.target, 0), dims.get(a.source, 0),
                                 [[field.parse(str(x)) for x in row] for row in grid],
                                 field)
        terms[_degree("term", key)] = Representation(quiver, dims, maps, field)
    diffs = {}
    for key, comp_data in data.get("differentials", {}).items():
        i = _degree("differential", key)
        src = terms.get(i, zero_object(quiver, field))
        tgt = terms.get(i + 1, zero_object(quiver, field))
        _check_vertices(f"differential {key}", comp_data, quiver)
        comps = {}
        for v in quiver.vertices:
            grid = comp_data.get(v, [])
            comps[v] = Matrix(tgt.dims[v], src.dims[v],
                              [[field.parse(str(x)) for x in row] for row in grid],
                              field)
        diffs[i] = RepMorphism(src, tgt, comps)
    return BoundedComplex(quiver, terms, diffs, field)


def _degree(where, key):
    """The degree a key of `terms` or `differentials` names.  Only the
    canonical decimal form of an int, the form `complex_to_json` writes,
    names one, so no two keys name the same degree, and a key that `int`
    cannot read names none."""
    if not (key.removeprefix("-").isdecimal() and str(int(key)) == key):
        raise ComplexError(f"{where} key {key!r} is not a degree in canonical "
                           f"decimal form (no '+', leading 0, space or '_')")
    return int(key)


def _check_vertices(where, by_vertex, quiver):
    for v in by_vertex:
        if v not in quiver.vertices:
            raise ComplexError(f"{where}: unknown vertex {v!r}")
