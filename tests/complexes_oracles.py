"""Three functions of `complexes` as they were before, kept as
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
from `complete_basis_oracle`."""

from quivertt.complexes import (BoundedComplex, ChainMap, ComplexError,
                                GradedVectorSpace, cohomology_at)
from quivertt.linalg import DimensionMismatch, Matrix, block_matrix
from quivertt.repcat import RepMorphism, Representation, direct_sum

from fields_oracle import oracle_field
from linalg_oracles import (RREFEchelonOracle, complete_basis_oracle,
                            kernel_basis_oracle)
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
        proj = Matrix.from_rows([inv.entries[r] for r in
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
