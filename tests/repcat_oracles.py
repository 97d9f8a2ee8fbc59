"""`repcat.unit_filtration` as it was before coordinate subspaces were
split by blocks, with `sub_quotient_oracle`, the split of a representation
along arrow-stable subspaces that it uses (the library's own
`sub_quotient` is gone), and `repcat.hom_space` with its naturality system
solved by an elimination of its own
(`linalg_oracles.gauss_jordan_kernel_oracle`), kept as differential
oracles.

Every subspace is split by solving for the coordinates of each arrow's
image and completing each vertex's basis with standard vectors, and every
path acts as a product that starts from the identity.  Over F_p the
oracles work on a copy of the representation over the field of
`fields_oracle.oracle_field`, so every sum reduces in `FpElement`s.
"""

from quivertt.fields import QQ
from quivertt.linalg import DimensionMismatch, Matrix
from quivertt.quiver import admissible_order
from quivertt.repcat import (FiltrationStep, Representation,
                             RepresentationError, RepMorphism, simple_object,
                             unit_object)

from fields_oracle import oracle_field
from linalg_oracles import (complete_basis_oracle, solve_many_oracle,
                            gauss_jordan_kernel_oracle)


def in_oracle_field(rep):
    """`rep` with its arrow matrices over the oracle field of its field."""
    field = oracle_field(rep.field)
    if field is rep.field:
        return rep
    return Representation(rep.quiver, rep.dims, {
        label: Matrix(m.rows, m.cols, m.entries, field)
        for label, m in rep.arrow_maps.items()}, field)


def sub_quotient_oracle(rep, sub_bases):
    """(subrepresentation, quotient, inclusion, projection) of the span of
    `sub_bases`, by generic solves; raises naming the first arrow, in
    `quiver.arrows` order, under which the span is not stable."""
    rep = in_oracle_field(rep)
    field = rep.field
    quiver = rep.quiver
    sub_mats = {}
    for x in quiver.vertices:
        cols = [tuple(field(c) for c in col) for col in sub_bases.get(x, [])]
        for col in cols:
            if len(col) != rep.dims[x]:
                raise RepresentationError(f"bad subspace vector length at {x}")
        sub_mats[x] = Matrix.from_columns(list(cols), field, rows=rep.dims[x])

    sub_arrow = {}
    for a in quiver.arrows:
        image_cols = [rep.arrow_maps[a.label].apply(col)
                      for col in sub_mats[a.source].columns()]
        try:
            coords = solve_many_oracle(sub_mats[a.target], image_cols)
        except Exception as exc:
            raise RepresentationError(
                f"subspace not stable under arrow {a.label}") from exc
        sub_arrow[a.label] = Matrix.from_columns(
            list(coords), field, rows=sub_mats[a.target].cols)
    sub_rep = Representation(quiver, {x: sub_mats[x].cols for x in quiver.vertices},
                             sub_arrow, field)

    comp_mats = {}
    proj_mats = {}
    for x in quiver.vertices:
        d = rep.dims[x]
        chosen, inv = complete_basis_oracle(sub_mats[x].columns(), d, field)
        comp_mats[x] = Matrix.from_columns(chosen, field, rows=d)
        proj_mats[x] = Matrix.from_rows(
            [inv.entries[i] for i in range(sub_mats[x].cols, d)], field, cols=d)

    quot_arrow = {}
    for a in quiver.arrows:
        quot_arrow[a.label] = (proj_mats[a.target]
                               @ rep.arrow_maps[a.label]
                               @ comp_mats[a.source])
    quot_rep = Representation(quiver,
                              {x: comp_mats[x].cols for x in quiver.vertices},
                              quot_arrow, field)
    incl = RepMorphism(sub_rep, rep, dict(sub_mats))
    proj = RepMorphism(rep, quot_rep, dict(proj_mats))
    return sub_rep, quot_rep, incl, proj


def path_action_oracle(rep, path):
    """The matrix of a path, as the product of its arrow matrices applied
    to the identity of the source space."""
    m = Matrix.identity(rep.dims[path.source], rep.field)
    for label in path.arrows:
        m = rep.arrow_maps[label] @ m
    return m


def satisfies_relations_oracle(rep, relations):
    """First generator whose action on `rep` is not zero, or None."""
    for gen in relations:
        action = None
        for c, p in gen.terms:
            part = path_action_oracle(rep, p).scale(c)
            action = part if action is None else action + part
        if not action.is_zero():
            return gen
    return None


def unit_filtration_oracle(quiver, relations, field=QQ):
    """The steps K_1 = U > K_2 > ... > K_q of the unit filtration, each
    split off with `sub_quotient_oracle`."""
    field = oracle_field(field)
    order = admissible_order(quiver)
    unit = unit_object(quiver, field)

    def bases(level):
        return {v: ([(field.one,)] if order.index(v) + 1 >= level else [])
                for v in quiver.vertices}

    steps = []
    for level in range(1, len(order) + 1):
        vertex = order[level - 1]
        sub_rep, _, _, _ = sub_quotient_oracle(unit, bases(level))
        inner = {v: ([(field.one,)] if order.index(v) + 1 >= level + 1
                     and sub_rep.dims[v] else [])
                 for v in quiver.vertices}
        _, quot, _, _ = sub_quotient_oracle(sub_rep, inner)
        simple = simple_object(quiver, vertex, field)
        is_simple = (quot.dims == simple.dims
                     and all(quot.arrow_maps[a.label] == simple.arrow_maps[a.label]
                             for a in quiver.arrows))
        steps.append(FiltrationStep(level, vertex, sub_rep,
                                    satisfies_relations_oracle(sub_rep, relations),
                                    is_simple))
    return steps


def hom_space_oracle(v, w):
    """Basis of all morphisms v -> w from the naturality squares as one
    system: a sparse row per square entry, solved by
    `gauss_jordan_kernel_oracle`, which shares no code with `linalg`'s
    elimination."""
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

    rows = []
    for a in quiver.arrows:
        n, m = a.source, a.target
        va = v.arrow_maps[a.label]
        wa = w.arrow_maps[a.label]
        for i in range(w.dims[m]):
            for j in range(v.dims[n]):
                row = {}
                for k in range(v.dims[m]):
                    c = offsets[m] + i * v.dims[m] + k
                    row[c] = row.get(c, field.zero) + va.entries[k][j]
                for k in range(w.dims[n]):
                    c = offsets[n] + k * v.dims[n] + j
                    row[c] = row.get(c, field.zero) - wa.entries[i][k]
                rows.append(row)
    basis = []
    for sparse in gauss_jordan_kernel_oracle(rows, total, field):
        vec = [sparse.get(j, field.zero) for j in range(total)]
        comps = {}
        for x in quiver.vertices:
            r, c = w.dims[x], v.dims[x]
            comps[x] = Matrix(r, c,
                              [vec[offsets[x] + i * c: offsets[x] + (i + 1) * c]
                               for i in range(r)], field)
        basis.append(RepMorphism(v, w, comps))
    return basis
