"""The path algebra with relations kQ/(R): basis, structure constants,
tensor-relation checking, subquiver compatibility, and module Hom spaces.

The quotient is computed one (source, target) component at a time;
acyclicity makes every component finite.  The span of {p * r * q} over all
paths p, q and relation generators r is put into one fully reduced echelon
whose columns list the component's paths in reverse (by length, then
lexicographic arrow word), so each pivot is the last path of some ideal
element: its leading path, or "tip" in the sense of E. L. Green,
*Noncommutative Groebner bases, and projective resolutions* (1999).

The basis keeps the paths that are not tips.  These are exactly the
earliest paths whose residues stay independent modulo the ideal, since
path k is a tip iff e_k lies in I + span(e_j : j < k), so structure
constants are deterministic and reports are byte-stable.  A basis path's
normal form is itself; a tip's is read off its pivot row, which equals the
tip minus its normal form.

Every linear system here is sparse and goes to `linalg.Echelon` as
{column: coefficient} dicts: each ideal row p * r * q has one entry per
term of r, and the Hom-space constraints and module-map columns are built
straight from the cached structure constants, one nonzero product at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
from .linalg import Echelon, Matrix
from .quiver import Path, QuiverError, Relation, admissible_order, enumerate_paths, full_subquiver


# Kept only because `perfbench/tracing.py` wraps `RREFEchelon.add` by name.
RREFEchelon = Echelon


def _coerced(relations, field):
    """The relation generators with every coefficient in `field`."""
    return tuple(Relation(g.source, g.target,
                          tuple((field(c), p) for c, p in g.terms))
                 for g in relations)


def _columns(plist):
    """Column of each path of a component: the paths in reverse, so that
    an echelon's lowest nonzero column is its last path."""
    last = len(plist) - 1
    return {p: last - k for k, p in enumerate(plist)}


def _vector(terms, column):
    """The combination of paths `terms` as {column: coefficient}, without
    zeros."""
    vec = {}
    for c, p in terms:
        k = column[p]
        vec[k] = vec[k] + c if k in vec else c
    return {k: c for k, c in vec.items() if c}


def _ideal_rows(pair, generators, paths_by_pair):
    """Spanning vectors of the (n, m) component of the two-sided ideal,
    the p * r * q with r a generator, as {column: coefficient} dicts over
    `_columns` of the component's path list."""
    n, m = pair
    column = _columns(paths_by_pair.get(pair, []))
    rows = []
    for gen in generators:
        lefts = paths_by_pair.get((n, gen.source), [])
        rights = paths_by_pair.get((gen.target, m), [])
        for left in lefts:
            for right in rights:
                row = _vector([(c, left.compose(mid).compose(right))
                               for c, mid in gen.terms], column)
                if row:
                    rows.append(row)
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
        self._generator_relations = {}

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
        one = self.field.one

        for pair in sorted(self.paths_by_pair, key=self._pair_sort):
            plist = self.paths_by_pair[pair]
            last = len(plist) - 1
            # path k sits in column last - k, so every pivot is the last
            # path of some ideal element: its leading path
            ech = Echelon(len(plist), self.field)
            for row in _ideal_rows(pair, self.relations, self.paths_by_pair):
                ech.add(row)
            local = []
            basis_at = {}   # column -> global index, of the basis paths so far
            for k, p in enumerate(plist):
                col = last - k
                row = ech.rows.get(col)
                if row is None:
                    gi = len(self.basis)
                    self.basis.append(p)
                    self.basis_index[p] = gi
                    self.pair_of.append(pair)
                    local.append(gi)
                    basis_at[col] = gi
                    self._path_nf[p] = {gi: one}
                else:
                    # the row is p plus a combination of earlier basis
                    # paths (higher columns), and lies in the ideal
                    self._path_nf[p] = {basis_at[c]: -row[c]
                                        for c in sorted(row, reverse=True)
                                        if c != col}
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
        """Structure constants: (basis class i) * (basis class j), as
        {basis index: c}.  The dict is cached and shared, so callers must
        not change it."""
        key = (i, j)
        cached = self._product_cache.get(key)
        if cached is None:
            pi, pj = self.basis[i], self.basis[j]
            if pi.target != pj.source:
                cached = {}
            else:
                cached = self._path_nf[pi.compose(pj)]
            self._product_cache[key] = cached
        return cached

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
        rows = [[self.field.zero] * len(mb) for _ in mb]
        for k, gi in enumerate(mb):
            for gk, c in self.product_indices(gi, j).items():
                rows[pos[gk]][k] = c
        mat = Matrix._raw(len(mb), len(mb), tuple(map(tuple, rows)), self.field)
        self._module_action_cache[key] = mat
        return mat

    def generator_relations(self, m):
        """Basis of the kernel of the action map Lambda -> M_m,
        w -> e_m * w: the relations of the generator of M_m, each as the
        list of its nonzero (basis index, coefficient) pairs."""
        rels = self._generator_relations.get(m)
        if rels is None:
            e_m = self.idempotent_index[m]
            action = {}     # basis index of M_m -> linear form in w
            for j in range(self.dim):
                for gi, c in self.product_indices(e_m, j).items():
                    action.setdefault(gi, {})[j] = c
            ech = Echelon(self.dim, self.field)
            for row in action.values():
                ech.add(row)
            rels = self._generator_relations[m] = [
                list(kappa.items()) for kappa in ech.sparse_kernel_basis()]
        return rels


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
        for r in _ideal_rows(pair, r_cap, by_pair):
            ech.add(r)
        if not ech.contains(_vector(gen.terms, _columns(plist))):
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
    field = alg.field
    mb_m, mb_n = alg.module_basis(m), alg.module_basis(n)
    dm, dn = len(mb_m), len(mb_n)
    pos_n = {gi: k for k, gi in enumerate(mb_n)}

    # constraints on v = sum v_k x_k in M_n: for each relation kappa of the
    # generator, v * kappa = sum v_k c_j (x_k * p_j) = 0, one row per basis
    # index of M_n; once they have full rank only v = 0 is left
    constraints = Echelon(dn, field)
    for kappa in alg.generator_relations(m):
        if constraints.rank == dn:
            break
        rows = {}
        for j, c in kappa:
            # x * p_j is zero unless x ends where p_j starts
            for x in alg.pair_indices.get((n, alg.pair_of[j][0]), ()):
                k = pos_n[x]
                for g, y in alg.product_indices(x, j).items():
                    row = rows.setdefault(g, {})
                    row[k] = row[k] + c * y if k in row else c * y
        for row in rows.values():
            constraints.add(row)

    maps = []
    for v in constraints.sparse_kernel_basis():
        # column for module basis element x is v * x
        terms = [(mb_n[k], a) for k, a in v.items()]
        cols = []
        for x in mb_m:
            col = [field.zero] * dn
            for g, a in terms:
                for h, y in alg.product_indices(g, x).items():
                    col[pos_n[h]] = col[pos_n[h]] + a * y
            cols.append(col)
        maps.append(Matrix._raw(dn, dm, tuple(zip(*cols)), field))
    return maps
