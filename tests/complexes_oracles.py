"""`complexes.direct_sum_complex` as it was before the direct sum became
the cone of a zero chain map, kept as a differential oracle: each term is
the direct sum of the two terms in that degree, and each differential is
assembled block by block as [[dV, 0], [0, dW]]."""

from quivertt.complexes import BoundedComplex
from quivertt.linalg import DimensionMismatch, Matrix, block_matrix
from quivertt.repcat import RepMorphism, direct_sum


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
    return BoundedComplex(v.quiver, terms, diffs, field, check=False)
