"""The path algebra with relations kQ/(R): basis, structure constants,
tensor-relation checking, subquiver compatibility, and module Hom spaces.

The quotient is computed by saturating the span of {p * r * q} over all
paths p, q and relation generators r, one (source, target) component at a
time; acyclicity makes every component finite.  The basis of each component
keeps the earliest paths (by length, then lexicographic arrow word) whose
residues stay independent modulo the ideal, so structure constants are
deterministic and reports are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
from .linalg import Echelon, Matrix, kernel_basis, solve_many
from .quiver import Path, QuiverError, Relation, admissible_order, enumerate_paths, full_subquiver


# Kept only because `perfbench/tracing.py` wraps `RREFEchelon.add` by name.
RREFEchelon = Echelon


def _coerced(relations, field):
    """The relation generators with every coefficient in `field`."""
    return tuple(Relation(g.source, g.target,
                          tuple((field(c), p) for c, p in g.terms))
                 for g in relations)


def _ideal_rows(pair, generators, paths_by_pair, field):
    """Spanning vectors of the (n, m) component of the two-sided ideal,
    as coefficient lists over the component's path list."""
    n, m = pair
    plist = paths_by_pair.get(pair, [])
    index = {p: i for i, p in enumerate(plist)}
    rows = []
    for gen in generators:
        s, t = gen.source, gen.target
        lefts = paths_by_pair.get((n, s), [])
        rights = paths_by_pair.get((t, m), [])
        for left in lefts:
            for right in rights:
                vec = [field.zero] * len(plist)
                for c, mid in gen.terms:
                    full = left.compose(mid).compose(right)
                    k = index[full]
                    vec[k] = vec[k] + c
                if any(vec):
                    rows.append(vec)
    return rows


class PathAlgebra:
    """Finite-dimensional quotient of a path algebra by homogeneous
    relation generators, with structure constants in a fixed basis."""

    def __init__(self, quiver, relations, field=QQ):
        self.quiver = quiver
        self.relations = _coerced(relations, field)
        self.field = field
        self.order = admissible_order(quiver)
        self._pos = {v: i for i, v in enumerate(self.order)}
        _, self.paths_by_pair = enumerate_paths(quiver)
        self._build()
        self._product_cache = {}
        self._module_action_cache = {}

    # -- construction -------------------------------------------------

    def _pair_sort(self, pair):
        return (self._pos[pair[0]], self._pos[pair[1]])

    def _build(self):
        self.basis = []
        self.basis_index = {}
        self.pair_indices = {}
        self.pair_of = []
        self._path_nf = {}
        self._module_bases = {}

        for pair in sorted(self.paths_by_pair, key=self._pair_sort):
            plist = self.paths_by_pair[pair]
            rows = _ideal_rows(pair, self.relations, self.paths_by_pair, self.field)
            ech = Echelon(len(plist), self.field)
            for r in rows:
                ech.add(r)
            local = []
            if ech.rank == 0:
                for p in plist:
                    gi = len(self.basis)
                    self.basis.append(p)
                    self.basis_index[p] = gi
                    self.pair_of.append(pair)
                    local.append(gi)
                    self._path_nf[p] = {gi: self.field.one}
            else:
                residues = []
                keep = Echelon(len(plist), self.field)
                chosen = []
                for k, p in enumerate(plist):
                    e = [self.field.zero] * len(plist)
                    e[k] = self.field.one
                    r = ech.reduce(e)
                    residues.append(r)
                    if keep.add(r):
                        chosen.append(k)
                if chosen:
                    span = Matrix.from_columns(
                        [residues[k] for k in chosen], self.field, rows=len(plist))
                    coords = solve_many(span, residues)
                else:
                    coords = [() for _ in plist]
                globals_for = []
                for k in chosen:
                    gi = len(self.basis)
                    self.basis.append(plist[k])
                    self.basis_index[plist[k]] = gi
                    self.pair_of.append(pair)
                    local.append(gi)
                    globals_for.append(gi)
                for k, p in enumerate(plist):
                    nf = {}
                    for j, gi in enumerate(globals_for):
                        c = coords[k][j]
                        if c:
                            nf[gi] = c
                    self._path_nf[p] = nf
            self.pair_indices[pair] = local
            self._module_bases.setdefault(pair[0], []).extend(local)

        self.idempotent_index = {}
        for v in self.quiver.vertices:
            self.idempotent_index[v] = self.basis_index[Path.trivial(v)]

    # -- basic queries -------------------------------------------------

    @property
    def dim(self):
        return len(self.basis)

    def dim_pair(self, n, m):
        return len(self.pair_indices.get((n, m), []))

    def nf_path(self, p):
        """Coordinates of the residue class of a path, as {basis index: c}."""
        try:
            return dict(self._path_nf[p])
        except KeyError:
            raise QuiverError(f"path {p} does not belong to this quiver")

    def nf_terms(self, terms):
        """Residue of a linear combination of paths."""
        out = {}
        for c, p in terms:
            for gi, x in self._path_nf[p].items():
                v = out.get(gi, self.field.zero) + c * x
                if v:
                    out[gi] = v
                elif gi in out:
                    del out[gi]
        return out

    def product_indices(self, i, j):
        """Structure constants: (basis class i) * (basis class j)."""
        key = (i, j)
        cached = self._product_cache.get(key)
        if cached is not None:
            return dict(cached)
        pi, pj = self.basis[i], self.basis[j]
        if pi.target != pj.source:
            result = {}
        else:
            result = self.nf_path(pi.compose(pj))
        self._product_cache[key] = result
        return dict(result)

    def product(self, a, b):
        """Product of two elements given as {basis index: coefficient}."""
        out = {}
        for i, ca in a.items():
            if not ca:
                continue
            for j, cb in b.items():
                if not cb:
                    continue
                for gi, c in self.product_indices(i, j).items():
                    v = out.get(gi, self.field.zero) + ca * cb * c
                    if v:
                        out[gi] = v
                    elif gi in out:
                        del out[gi]
        return out

    def idempotent(self, v):
        return {self.idempotent_index[v]: self.field.one}

    def unit(self):
        out = {}
        for v in self.quiver.vertices:
            out.update(self.idempotent(v))
        return out

    def element_word(self, i):
        return self.basis[i].word()

    # -- right modules M_v = e_v * Lambda ------------------------------

    def module_basis(self, v):
        """Global basis indices of M_v, in basis order."""
        return list(self._module_bases.get(v, ()))

    def right_mult_on_module(self, v, j):
        """Matrix of right multiplication by basis class j on M_v."""
        key = (v, j)
        cached = self._module_action_cache.get(key)
        if cached is not None:
            return cached
        mb = self.module_basis(v)
        pos = {gi: k for k, gi in enumerate(mb)}
        cols = []
        for gi in mb:
            prod = self.product_indices(gi, j)
            col = [self.field.zero] * len(mb)
            for gk, c in prod.items():
                col[pos[gk]] = c
            cols.append(tuple(col))
        mat = Matrix.from_columns(cols, self.field, rows=len(mb))
        self._module_action_cache[key] = mat
        return mat

    def right_mult_of_element(self, v, elem):
        """Right multiplication by an element {basis index: c} on M_v."""
        d = len(self.module_basis(v))
        zero = self.field.zero
        acc = [[zero] * d for _ in range(d)]
        for j, c in elem.items():
            if not c:
                continue
            mat = self.right_mult_on_module(v, j)
            for r in range(d):
                arow, mrow = acc[r], mat.entries[r]
                for s in range(d):
                    if mrow[s]:
                        arow[s] = arow[s] + c * mrow[s]
        return Matrix._raw(d, d, tuple(tuple(r) for r in acc), self.field)


def build_path_algebra(quiver, relations, field=QQ):
    return PathAlgebra(quiver, relations, field)


# -- tensor-relation criterion ----------------------------------------


@dataclass
class TensorCheck:
    ok: bool
    witness: object = None       # the violating generator, if any
    failed_test: str = ""        # "unit" or "diagonal"


def is_tensor_relations(alg):
    """Decide whether the relation generators cut out a monoidal
    subcategory of the representation category.

    Two linear conditions per generator r = sum(c_i * p_i):
      unit:     sum(c_i) = 0, so the all-identities representation
                satisfies r;
      diagonal: sum(c_i * cls(p_i) (x) cls(p_i)) = 0 in the tensor square
                of the quotient algebra, which forces r to vanish on every
                tensor product of representations satisfying the relations
                (and conversely, via the regular representation).
    """
    for gen in alg.relations:
        total = gen.coefficient_sum()
        if total:
            return TensorCheck(False, gen, "unit")
        d = alg.dim
        acc = {}
        for c, p in gen.terms:
            nf = alg._path_nf[p]
            for i, x in nf.items():
                for j, y in nf.items():
                    k = i * d + j
                    v = acc.get(k, alg.field.zero) + c * x * y
                    if v:
                        acc[k] = v
                    elif k in acc:
                        del acc[k]
        if acc:
            return TensorCheck(False, gen, "diagonal")
    return TensorCheck(True)


class TensorRelationError(ValueError):
    def __init__(self, check):
        self.check = check
        super().__init__(
            f"relations are not tensor relations: generator "
            f"{check.witness.pretty()} fails the {check.failed_test} test")


def checked_algebra(quiver, relations, field=QQ):
    """The path algebra kQ/(R); raises TensorRelationError unless the
    relations are tensor relations."""
    alg = PathAlgebra(quiver, relations, field)
    check = is_tensor_relations(alg)
    if not check.ok:
        raise TensorRelationError(check)
    return alg


# -- subquiver compatibility ------------------------------------------


@dataclass
class CompatibilityResult:
    compatible: bool
    subquiver: object
    r_cap: tuple      # generators of R with every path inside Q'
    r_bar: tuple      # generators with outside arrows set to zero, nonzero ones
    witness: object = None   # an element of r_bar outside the ideal (R cap Q')


def compatibility(quiver, relations, verts, field=QQ):
    """Compare R cap Q' with R-bar on the full subquiver on `verts`."""
    sub, _, kept_labels = full_subquiver(quiver, verts)
    kept = set(kept_labels)

    def inside(path):
        return all(a in kept for a in path.arrows)

    r_cap = []
    r_bar = []
    for gen in _coerced(relations, field):
        if all(inside(p) for _, p in gen.terms):
            r_cap.append(gen)
            continue
        terms = [(c, p) for c, p in gen.terms if inside(p)]
        if terms:
            r_bar.append(Relation(gen.source, gen.target, tuple(terms)))

    # membership of each r-bar generator in the ideal generated by r_cap,
    # tested inside the subquiver's path algebra component
    _, by_pair = enumerate_paths(sub)
    witness = None
    for gen in r_bar:
        pair = (gen.source, gen.target)
        plist = by_pair.get(pair, [])
        ech = Echelon(len(plist), field)
        for r in _ideal_rows(pair, r_cap, by_pair, field):
            ech.add(r)
        index = {p: i for i, p in enumerate(plist)}
        vec = [field.zero] * len(plist)
        for c, p in gen.terms:
            vec[index[p]] = vec[index[p]] + c
        if any(ech.reduce(vec)):
            witness = gen
            break
    return CompatibilityResult(witness is None, sub, tuple(r_cap), tuple(r_bar), witness)


# -- Hom spaces between the projective right modules -------------------


def module_hom_space(alg, n, m):
    """Basis of right-module homomorphisms M_m -> M_n.

    A module map out of the cyclic module M_m is pinned down by the image
    v of the trivial-path generator; v is admissible exactly when it kills
    every relation of that generator, i.e. v * w = 0 whenever e_m * w = 0
    in M_m.  Solving that linear system over the algebra basis gives all
    maps; each is returned as its matrix from M_m to M_n in module bases.
    """
    mb_m = alg.module_basis(m)
    mb_n = alg.module_basis(n)
    dm, dn = len(mb_m), len(mb_n)
    pos_m = {gi: k for k, gi in enumerate(mb_m)}

    # action map Lambda -> M_m, w -> e_m * w, and its kernel
    e_m = alg.idempotent_index[m]
    cols = []
    for j in range(alg.dim):
        prod = alg.product_indices(e_m, j)
        col = [alg.field.zero] * dm
        for gi, c in prod.items():
            col[pos_m[gi]] = c
        cols.append(tuple(col))
    action = Matrix.from_columns(cols, alg.field, rows=dm)
    relations_of_generator = kernel_basis(action)

    # constraints on v in M_n: for each kernel element, sum c_w (v * w) = 0
    constraint_rows = []
    for kappa in relations_of_generator:
        constraint_rows.extend(
            alg.right_mult_of_element(n, dict(enumerate(kappa))).entries)
    if constraint_rows:
        sys_mat = Matrix.from_rows(list(constraint_rows), alg.field, cols=dn)
    else:
        sys_mat = Matrix.zeros(0, dn, alg.field)
    vs = kernel_basis(sys_mat)

    maps = []
    for v in vs:
        # column for module basis element x is v * x
        fcols = []
        for gi in mb_m:
            fcols.append(alg.right_mult_on_module(n, gi).apply(v))
        maps.append(Matrix.from_columns(fcols, alg.field, rows=dn))
    return maps
