"""Reference versions of reconstruction code, kept as differential
oracles for the faster code in `path_algebra`, `repcat` and `reconstruct`.

The Hom-space and center oracles solve one dense system with
`kernel_basis_oracle`.  The probe oracle evaluates transformations with
dense composite action matrices.  All of them touch the algebra only
through its structure constants and path normal forms, as the dicts of
`path_algebra_oracles.product_indices_oracle` and `nf_path_oracle`, its
module bases and idempotents, so none shares code with `repcat.Probe`.
They compute in the field of `fields_oracle.oracle_field`, so over F_p in
`FpElement`s, and their matrices are over that field.

`generator_relations_oracle` and `idempotent_commutant_oracle` are the
exception: they solve, with `linalg.Echelon` over the algebra's own
field, the two systems whose answers `path_algebra.module_hom_space` and
`reconstruct.center_and_z` read off the basis, and
`two_stage_center_oracle` is the center solved on top of the second.
`commutant_oracle` is `reconstruct._commutant` as it was before it took
basis classes: its unknowns and generators are element dicts.
`assemble_A_oracle` is `reconstruct.assemble_A` by the route it replaced:
the module maps of `module_hom_space_oracle`, and the dense probe
evaluator's composite against `PathAlgebra.product` on every composable
pair of basis classes; besides the verdict, it gives the dimensions it
compared for each pair.

`center_and_z_oracle` is `reconstruct.center_and_z` before End(U) was read
off the quiver's components: it solves the naturality system
`repcat.hom_space(U, U)` for End(U), in the algebra's own field, and
checks the ring map on the composites of that basis.
"""

from quivertt.linalg import Echelon, Matrix, combine, sparse_kernel
from quivertt.path_algebra import require_tensor_relations
from quivertt.quiver import Path
from quivertt.reconstruct import CenterReport, IsomorphismVerdict
from quivertt.repcat import Representation, hom_space, unit_object

from conftest import id_morphism
from fields_oracle import oracle_field
from linalg_oracles import kernel_basis_oracle
from path_algebra_oracles import (combine_product, nf_path_oracle,
                                  product_indices_oracle)


def _right_mult_rows(alg, n, elem):
    """Rows of the matrix of x -> x * elem on M_n, in module basis order."""
    field = oracle_field(alg.field)
    mb_n = alg.module_basis(n)
    pos_n = {gi: k for k, gi in enumerate(mb_n)}
    rows = [[field.zero] * len(mb_n) for _ in mb_n]
    for j, c in elem.items():
        if not c:
            continue
        for k, gi in enumerate(mb_n):
            for gk, x in product_indices_oracle(alg, gi, j).items():
                rows[pos_n[gk]][k] = rows[pos_n[gk]][k] + c * x
    return rows


def module_hom_space_oracle(alg, n, m):
    """Basis of right-module maps M_m -> M_n: the kernel of Lambda -> M_m
    gives every relation of the generator, all of their constraint rows
    are stacked into one matrix, and its kernel holds the admissible
    images of the generator."""
    field = oracle_field(alg.field)
    mb_m = alg.module_basis(m)
    dm, dn = len(mb_m), len(alg.module_basis(n))
    pos_m = {gi: k for k, gi in enumerate(mb_m)}

    e_m = alg.idempotent_index[m]
    cols = []
    for j in range(alg.dim):
        col = [field.zero] * dm
        for gi, c in product_indices_oracle(alg, e_m, j).items():
            col[pos_m[gi]] = c
        cols.append(col)
    action = Matrix.from_columns(cols, field, rows=dm)

    constraint_rows = []
    for kappa in kernel_basis_oracle(action):
        constraint_rows.extend(_right_mult_rows(alg, n, dict(enumerate(kappa))))
    sys_mat = Matrix.from_rows(constraint_rows, field, cols=dn)

    maps = []
    for v in kernel_basis_oracle(sys_mat):
        fcols = [[sum((a * b for a, b in zip(row, v)), field.zero)
                  for row in _right_mult_rows(alg, n, {gi: field.one})]
                 for gi in mb_m]
        maps.append(Matrix.from_columns(fcols, field, rows=dn))
    return maps


def center_basis_oracle(alg):
    """Basis of the center: solve x * b - b * x = 0 against every basis
    class b."""
    field = oracle_field(alg.field)
    d = alg.dim
    rows = []
    for b in range(d):
        blocks = {}   # output basis index -> linear form in the unknowns
        for i in range(d):
            for gi, c in product_indices_oracle(alg, i, b).items():
                row = blocks.setdefault(gi, [field.zero] * d)
                row[i] = row[i] + c
            for gi, c in product_indices_oracle(alg, b, i).items():
                row = blocks.setdefault(gi, [field.zero] * d)
                row[i] = row[i] - c
        rows.extend(r for r in blocks.values() if any(r))
    vecs = kernel_basis_oracle(Matrix.from_rows(rows, field, cols=d))
    return [{i: v[i] for i in range(d) if v[i]} for v in vecs]


def _dense_probe(alg, n):
    """The projective module M_n as a representation with dense arrow
    matrices: column x of arrow a is the class x times the class of a."""
    field = oracle_field(alg.field)
    quiver = alg.quiver
    vertex_basis = {v: alg.pair_indices.get((n, v), []) for v in quiver.vertices}
    maps = {}
    for a in quiver.arrows:
        src, tgt = vertex_basis[a.source], vertex_basis[a.target]
        pos = {gi: k for k, gi in enumerate(tgt)}
        arrow_class = nf_path_oracle(alg,
                                     Path(a.source, a.target, (a.label,)))
        cols = []
        for gi in src:
            col = [field.zero] * len(tgt)
            for j, cj in arrow_class.items():
                for gk, c in product_indices_oracle(alg, gi, j).items():
                    col[pos[gk]] = col[pos[gk]] + cj * c
            cols.append(tuple(col))
        maps[a.label] = Matrix.from_columns(cols, field, rows=len(tgt))
    dims = {v: len(b) for v, b in vertex_basis.items()}
    return Representation(quiver, dims, maps, field)


class _DenseProbeEvaluator:
    """`yoneda` and `compose` of `reconstruct.ProbeEvaluator`, computed
    with the composite matrix of each basis class on the probe
    (`Representation.path_action`) applied to dense strand vectors."""

    def __init__(self, alg):
        self.alg = alg
        self._probes = {}
        self._actions = {}

    def action(self, n, i):
        """Matrix of basis class i on M_n, from the strand at its source
        vertex to the strand at its target."""
        if n not in self._probes:
            self._probes[n] = _dense_probe(self.alg, n)
        if (n, i) not in self._actions:
            self._actions[(n, i)] = self._probes[n].path_action(self.alg.basis[i])
        return self._actions[(n, i)]

    def _combine(self, n, terms, target_vertex):
        field = oracle_field(self.alg.field)
        out = [field.zero] * len(self.alg.pair_indices.get((n, target_vertex), []))
        for c, vec in terms:
            for k, x in enumerate(vec):
                if x:
                    out[k] = out[k] + c * x
        return out

    def _generator(self, n):
        field = oracle_field(self.alg.field)
        basis_n = self.alg.pair_indices.get((n, n), [])
        gen = [field.zero] * len(basis_n)
        gen[basis_n.index(self.alg.idempotent_index[n])] = field.one
        return gen

    def _to_element(self, n, m, col):
        basis_m = self.alg.pair_indices.get((n, m), [])
        return {gi: col[k] for k, gi in enumerate(basis_m) if col[k]}

    def _on_generator(self, elem, n, m):
        gen = self._generator(n)
        return self._combine(
            n, [(c, self.action(n, i).apply(gen)) for i, c in elem.items()], m)

    def yoneda(self, elem, n, m):
        return self._to_element(n, m, self._on_generator(elem, n, m))

    def compose(self, elem1, n, m, elem2, l):
        first = self._on_generator(elem1, n, m)
        second = [(c, self.action(n, j).apply(first)) for j, c in elem2.items()]
        return self._to_element(n, l, self._combine(n, second, l))


def probe_oracle(alg):
    """A dense evaluator of transformations on the probes of `alg`."""
    return _DenseProbeEvaluator(alg)


def generator_relations_oracle(alg, m):
    """The relations of the generator of M_m as a solved system: the kernel
    of w -> e_m * w by `Echelon`, scanned in order, with a relation kappa
    kept unless a relation g kept before it certifies it, g * kappa =
    kappa, which puts kappa in g * Lambda."""
    e_m = alg.idempotent_index[m]
    action = {}     # basis index of M_m -> linear form in w
    for j in range(alg.dim):
        for gi, c in product_indices_oracle(alg, e_m, j).items():
            action.setdefault(gi, {})[j] = c
    ech = Echelon(alg.dim, alg.field)
    for row in action.values():
        ech.add(row)
    rels = []
    for kappa in ech.sparse_kernel_basis():
        if not any(combine_product(alg, g, kappa) == kappa
                   for g in reversed(rels)):
            rels.append(kappa)
    return rels


def commutant_oracle(alg, unknowns, generators):
    """Kernel basis, in the coordinates y, of x = sum y_r * unknowns[r]
    commuting with every element of `generators`, elements as
    {basis index: c}: one `sparse_kernel` group per generator b, whose
    terms are the structure constants of x * b - b * x."""
    def commutator(b):
        for r, x in enumerate(unknowns):
            for i, cx in x.items():
                for j, cb in b.items():
                    p = product_indices_oracle(alg, i, j)
                    if p:
                        yield r, cx * cb, p
                    p = product_indices_oracle(alg, j, i)
                    if p:
                        yield r, -(cx * cb), p

    return sparse_kernel(len(unknowns), alg.field, map(commutator, generators))


def idempotent_commutant_oracle(alg):
    """The commutant of the idempotents as a solved system: `commutant_oracle`
    of every basis class against every idempotent, as the kernel basis in
    all dim unknowns."""
    one = alg.field.one
    return commutant_oracle(alg, [{i: one} for i in range(alg.dim)],
                      [alg.idempotent(v) for v in alg.quiver.vertices])


def two_stage_center_oracle(alg):
    """The center solved in two stages: the arrow commutators in unknowns
    over the basis of `idempotent_commutant_oracle`, mapped back."""
    field = alg.field
    stage1 = idempotent_commutant_oracle(alg)
    arrows = [nf_path_oracle(alg, Path.from_arrows([a]))
              for a in alg.quiver.arrows]
    return [combine(((c, stage1[r]) for r, c in y.items()), field)
            for y in commutant_oracle(alg, stage1, arrows)]


def assemble_A_oracle(alg):
    """`reconstruct.assemble_A` by the route it replaced: the module maps
    M_m -> M_n of `module_hom_space_oracle` for the dimensions, their
    images of the generator and the dense probes of `probe_oracle` against
    the basis for the round trip, and that evaluator's composite against
    `PathAlgebra.product` on every composable pair of basis classes for
    the structure constants.  Returns the verdict and {(n, m): (the
    number of classes from n to m, the dimension of the module maps)}."""
    require_tensor_relations(alg)
    field = oracle_field(alg.field)

    def lifted(elem):
        return {i: field(c) for i, c in elem.items()}

    evaluator = probe_oracle(alg)
    components, dims = {}, {}
    dims_ok = round_trip = True
    for n in alg.quiver.vertices:
        mb_n = alg.module_basis(n)
        for m in alg.quiver.vertices:
            route1 = [{i: alg.field.one} for i in alg.pair_indices.get((n, m), [])]
            route2 = module_hom_space_oracle(alg, n, m)
            if len(route1) != len(route2):
                dims_ok = False
            components[(n, m)] = route1
            dims[(n, m)] = (len(route1), len(route2))
            e_m = alg.module_basis(m).index(alg.idempotent_index[m])
            images = [{gi: c for gi, c in zip(mb_n, f.column(e_m)) if c}
                      for f in route2]
            if images != [lifted(elem) for elem in route1]:
                round_trip = False
            if any(evaluator.yoneda(elem, n, m) != lifted(elem)
                   for elem in route1):
                round_trip = False

    constants_ok = True
    for (n, m), space in components.items():
        for (m2, l), space2 in components.items():
            if m2 != m:
                continue
            for elem in space:
                for elem2 in space2:
                    if (evaluator.compose(elem, n, m, elem2, l)
                            != lifted(alg.product(elem, elem2))):
                        constants_ok = False
    return IsomorphismVerdict(dims_ok, round_trip, constants_ok), dims


def z_image_oracle(alg, f):
    """The image in the algebra of a unit endomorphism f: the combination
    of trivial paths e_v weighted by the scalars f acts by at each vertex."""
    elem = {}
    for v in alg.quiver.vertices:
        c = f.components[v].entries[0][0]
        if c:
            elem[alg.idempotent_index[v]] = c
    return elem


def center_and_z_oracle(alg):
    """The center of the algebra `alg` as `reconstruct.center_and_z`
    finds it, over the classes that start and end at one vertex, and
    End(U) solved as `hom_space(U, U)`: its basis mapped by
    `z_image_oracle`, and the ring map checked as z(f) z(g) = z(f o g)
    on every pair of basis maps and z(id_U) = 1.  Refuses non-tensor
    relations, as `center_and_z` does."""
    require_tensor_relations(alg)
    quiver, field, d = alg.quiver, alg.field, alg.dim

    arrows = [nf_path_oracle(alg, Path.from_arrows([a])) for a in quiver.arrows]
    diagonal = [i for i, p in enumerate(alg.basis) if p.source == p.target]
    center_basis = [{diagonal[r]: c for r, c in y.items()}
                    for y in commutant_oracle(
                        alg, [{i: field.one} for i in diagonal], arrows)]

    unit = unit_object(quiver, field)
    end_u = hom_space(unit, unit)

    center_span = Echelon(d, field)
    for v in center_basis:
        center_span.add(v)

    z_images = [z_image_oracle(alg, f) for f in end_u]
    in_center = all(center_span.contains(elem) for elem in z_images)

    ring_ok = all(
        alg.product(z_images[i], z_images[j])
        == z_image_oracle(alg, f.compose(g))
        for i, f in enumerate(end_u) for j, g in enumerate(end_u))
    if z_image_oracle(alg, id_morphism(unit)) != alg.unit():
        ring_ok = False

    return CenterReport(center_basis, len(center_basis), len(end_u),
                        z_images, in_center, ring_ok)
