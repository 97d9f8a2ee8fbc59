"""Four functions of `complexes` as they were before, kept as
differential oracles.

`cohomology_at_oracle` is vertex-wise cohomology before the kernel of
each strand went to `linalg.sparse_kernel`: the kernel is read off the
dense RREF of the strand matrix (`kernel_basis_oracle`), and the image
columns and then the kernel vectors are kept when they raise the rank of
those kept before (`RREFEchelonOracle`).

`direct_sum_complex_oracle` is the direct sum before it became the cone of
a zero chain map: each term is the direct sum of the two terms in that
degree, and each differential is assembled block by block as
[[dV, 0], [0, dW]].

`split_vector_complex_oracle` is the splitting of a complex of vector
spaces before its projection was read off `linalg.Coordinates`: it
completes the image basis and the representatives by standard vectors
and takes the projection from the rows of the inverse of that basis, both
from `complete_basis_oracle`.

`complex_from_json_oracle` is the reader of complex files before it
parsed each literal text once per file: every entry x goes through
`field.parse(str(x))`, and the `Matrix` constructor coerces each parsed
element again and then checks the grid's shape."""

from quivertt.complexes import (MAX_COMPLEX_DIM, BoundedComplex, ChainMap,
                                ComplexError, GradedVectorSpace,
                                _check_vertices, _degree, cohomology_at)
from quivertt.fields import QQ
from quivertt.linalg import DimensionMismatch, Matrix, block_matrix
from quivertt.quiver import ResourceBudget
from quivertt.repcat import (RepMorphism, Representation, direct_sum,
                             zero_object)

from fields_oracle import oracle_field
from linalg_oracles import (RREFEchelonOracle, complete_basis_oracle,
                            from_rows, kernel_basis_oracle)
from repcat_oracles import in_oracle_field


def cohomology_at_oracle(cx, n):
    """ker(d^i_n) / im(d^{i-1}_n) in each degree, with its witness bases;
    over F_p the vectors hold elements of the oracle field."""
    field = cx.field
    dims, reps, images = {}, {}, {}
    for i in sorted(cx.terms):
        dim = cx.term_dim(i, n)
        if dim == 0:
            continue
        ech = RREFEchelonOracle(dim, field)
        img = [col for col in cx.strand_matrix(i - 1, n).columns()
               if ech.add(col)]
        chosen = [vec for vec in kernel_basis_oracle(cx.strand_matrix(i, n))
                  if ech.add(vec)]
        if chosen:
            dims[i] = len(chosen)
            reps[i] = chosen
        if img:
            images[i] = img
    return GradedVectorSpace(dims, reps, images)


def direct_sum_complex_oracle(v, w):
    if v.quiver != w.quiver:
        raise DimensionMismatch("direct sum of complexes over different quivers")
    field = v.field
    terms, diffs = {}, {}
    degrees = sorted(set(v.terms) | set(w.terms))
    for i in degrees:
        terms[i] = direct_sum(v.term(i), w.term(i))
    for i in degrees:
        if i + 1 not in terms:
            continue
        comps = {}
        for x in v.quiver.vertices:
            dv = v.strand_matrix(i, x)
            dw = w.strand_matrix(i, x)
            comps[x] = block_matrix(
                [[dv, Matrix.zeros(dv.rows, dw.cols, field)],
                 [Matrix.zeros(dw.rows, dv.cols, field), dw]], field)
        diffs[i] = RepMorphism(terms[i], terms[i + 1], comps)
    return BoundedComplex(v.quiver, terms, diffs, field)


def split_vector_complex_oracle(cx):
    """(cohomology complex, map to it, map from it) of a complex over a
    one-vertex quiver; over F_p, of its copy over the oracle field."""
    if len(cx.quiver.vertices) != 1:
        raise ComplexError("splitting requires a one-vertex quiver")
    field = oracle_field(cx.field)
    terms = {i: in_oracle_field(t) for i, t in cx.terms.items()}
    cx = BoundedComplex(cx.quiver, terms, {
        i: RepMorphism(terms[i], terms[i + 1], {
            v: Matrix(m.rows, m.cols, m.entries, field)
            for v, m in d.components.items()})
        for i, d in cx.differentials.items()}, field)
    x = cx.quiver.vertices[0]
    h_terms, to_comps, from_comps = {}, {}, {}
    gvs = cohomology_at(cx, x)
    for i in sorted(cx.terms):
        d = cx.term_dim(i, x)
        reps = gvs.representatives.get(i, [])
        img = gvs.image_basis.get(i, [])
        _, inv = complete_basis_oracle(list(img) + list(reps), d, field)
        proj = from_rows([inv.entries[r] for r in
                          range(len(img), len(img) + len(reps))],
                         field, cols=d)
        if reps:
            h_terms[i] = Representation(cx.quiver, {x: len(reps)}, {}, field)
        to_comps[i] = proj
        from_comps[i] = Matrix.from_columns(list(reps), field, rows=d)
    h_cx = BoundedComplex(cx.quiver, h_terms, {}, field)
    to_h = ChainMap(cx, h_cx,
                    {i: RepMorphism(cx.term(i), h_cx.term(i), {x: to_comps[i]})
                     for i in cx.terms})
    from_h = ChainMap(h_cx, cx,
                      {i: RepMorphism(h_cx.term(i), cx.term(i), {x: from_comps[i]})
                       for i in cx.terms})
    return h_cx, to_h, from_h


def complex_from_json_oracle(data, quiver, field=QQ):
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
