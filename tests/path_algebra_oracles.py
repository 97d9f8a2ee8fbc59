"""The path-algebra builder as it was before the basis and normal forms
were read off one reversed-order echelon, kept as a differential oracle,
and subquiver compatibility as it was before the library used Groebner
bases.

The builder lists every path itself, reduces every standard vector modulo
the ideal, keeps the earliest paths whose residues stay independent, and
solves for every path's coordinates in the kept residues, with the dense
kernels of `linalg_oracles`.  The ideal rows are dense and list the paths
in forward order, as the library's did before it made them sparse and
reversed.  Compatibility tests membership of each r-bar generator by
reducing its vector against an echelon of the subquiver's ideal rows.
`QuotientSumsOracle` keeps the sparse sums of the quotient (normal forms,
products, arrow steps, the diagonal tensor square) as hand-written loops.
"""

from types import SimpleNamespace

from quivertt.linalg import Matrix
from quivertt.quiver import (Relation, admissible_order, enumerate_paths,
                             full_subquiver)

from linalg_oracles import RREFEchelonOracle, solve_many_oracle


def ideal_rows_oracle(pair, generators, paths_by_pair, field):
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


def pairs_in_order(quiver, by_pair):
    """The (source, target) keys of `by_pair`, by the positions of source
    and target in the admissible order."""
    pos = {v: i for i, v in enumerate(admissible_order(quiver))}
    return sorted(by_pair, key=lambda st: (pos[st[0]], pos[st[1]]))


def quotient_oracle(alg):
    """The basis, its indices and the path normal forms of the quotient
    `alg` describes, computed afresh from its quiver's paths and its
    relations."""
    field = alg.field
    _, by_pair = enumerate_paths(alg.quiver)
    out = SimpleNamespace(basis=[], basis_index={}, pair_indices={},
                          pair_of=[], path_nf={}, module_bases={})
    for pair in pairs_in_order(alg.quiver, by_pair):
        plist = by_pair[pair]
        ech = RREFEchelonOracle(len(plist), field)
        for r in ideal_rows_oracle(pair, alg.relations, by_pair, field):
            ech.add(r)
        residues = []
        keep = RREFEchelonOracle(len(plist), field)
        chosen = []
        for k in range(len(plist)):
            e = [field.zero] * len(plist)
            e[k] = field.one
            r = ech.reduce(e)
            residues.append(r)
            if keep.add(r):
                chosen.append(k)
        if chosen:
            span = Matrix.from_columns([residues[k] for k in chosen], field,
                                       rows=len(plist))
            coords = solve_many_oracle(span, residues)
        else:
            coords = [() for _ in plist]
        local = []
        for k in chosen:
            gi = len(out.basis)
            out.basis.append(plist[k])
            out.basis_index[plist[k]] = gi
            out.pair_of.append(pair)
            local.append(gi)
        for k, p in enumerate(plist):
            out.path_nf[p] = {gi: c for gi, c in zip(local, coords[k]) if c}
        out.pair_indices[pair] = local
        out.module_bases.setdefault(pair[0], []).extend(local)
    return out


def compatibility_oracle(quiver, relations, verts, field):
    """(r_cap, r_bar, witness) of the full subquiver on `verts`: the first
    r-bar generator outside the ideal of the subquiver generated by r_cap,
    found by whether its vector lies in the span of the ideal rows.
    `relations` must already have coefficients in `field`."""
    sub, _, kept_labels = full_subquiver(quiver, verts)
    kept = set(kept_labels)

    def inside(path):
        return all(a in kept for a in path.arrows)

    r_cap, r_bar = [], []
    for gen in relations:
        if all(inside(p) for _, p in gen.terms):
            r_cap.append(gen)
            continue
        terms = [(c, p) for c, p in gen.terms if inside(p)]
        if terms:
            r_bar.append(Relation(gen.source, gen.target, tuple(terms)))
    _, by_pair = enumerate_paths(sub)
    witness = None
    for gen in r_bar:
        pair = (gen.source, gen.target)
        plist = by_pair.get(pair, [])
        ech = RREFEchelonOracle(len(plist), field)
        for r in ideal_rows_oracle(pair, r_cap, by_pair, field):
            ech.add(r)
        vec = [field.zero] * len(plist)
        for c, p in gen.terms:
            k = plist.index(p)
            vec[k] = vec[k] + c
        if any(ech.reduce(vec)):
            witness = gen
            break
    return tuple(r_cap), tuple(r_bar), witness


def right_mult_oracle(alg, v, j):
    """The matrix of right multiplication by basis class j on the module
    M_v = e_v * Lambda, in the basis `alg.module_basis(v)`, one column per
    basis class read off `product_indices`."""
    mb = alg.module_basis(v)
    pos = {gi: k for k, gi in enumerate(mb)}
    rows = [[alg.field.zero] * len(mb) for _ in mb]
    for k, gi in enumerate(mb):
        for gk, c in alg.product_indices(gi, j).items():
            rows[pos[gk]][k] = c
    return Matrix(len(mb), len(mb), rows, alg.field)



class QuotientSumsOracle:
    """The sparse sums of the quotient `alg` as they were written out loop
    by loop, before they went through `linalg.combine`.  Each keeps its
    own zero handling: the prefix fold and `arrow_step` sort and filter
    once at the end, and `product` skips zero coefficients up front and
    deletes an entry as soon as it cancels.  Normal forms come from this
    object's own fold, never from the library's cache; only the basis and
    the Groebner basis are read off `alg`."""

    def __init__(self, alg):
        self.alg = alg
        self.field = alg.field
        self._index = {p.arrows: gi for gi, p in enumerate(alg.basis)
                       if p.arrows}
        self._word_nf = {}

    def nf_word(self, w):
        """The normal form of the path with the non-trivial word `w`: a
        basis path times an arrow reduced by the Groebner basis, any other
        path folded from its prefix's normal form."""
        nf = self._word_nf.get(w)
        if nf is not None:
            return nf
        head, a = w[:-1], w[-1]
        index = self._index
        if not head or head in index:
            red = self.alg.groebner.reduce({w: self.field.one})
            nf = {index[u]: red[u] for u in sorted(red, key=index.__getitem__)}
        else:
            acc = {}
            for b, c in self.nf_word(head).items():
                for g, x in self.nf_word(self.alg.basis[b].arrows
                                         + (a,)).items():
                    acc[g] = acc[g] + c * x if g in acc else c * x
            nf = {g: acc[g] for g in sorted(acc) if acc[g]}
        self._word_nf[w] = nf
        return nf

    def nf(self, p):
        """The normal form of the path p of the quiver."""
        if p.arrows:
            return self.nf_word(p.arrows)
        return {self.alg.basis.index(p): self.field.one}

    def product_indices(self, i, j):
        """(basis class i) * (basis class j), as {basis index: c}."""
        pi, pj = self.alg.basis[i], self.alg.basis[j]
        if pi.target != pj.source:
            return {}
        return self.nf(pi.compose(pj))

    def arrow_step(self, x, arrow):
        """(basis class x) * (class of `arrow`), keys ascending."""
        acc = {}
        for j, cj in self.nf_word((arrow.label,)).items():
            for g, c in self.product_indices(x, j).items():
                acc[g] = acc[g] + cj * c if g in acc else cj * c
        return {g: acc[g] for g in sorted(acc) if acc[g]}

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

    def tensor_check(self):
        """(ok, witness, failed_test) of the tensor-relation criterion:
        the coefficient sum of each generator, then its diagonal square
        sum(c_i * cls(p_i) (x) cls(p_i)), keyed by i * dim + j."""
        d = self.alg.dim
        for gen in self.alg.relations:
            if gen.coefficient_sum():
                return False, gen, "unit"
            acc = {}
            for c, p in gen.terms:
                nf = self.nf(p)
                for i, x in nf.items():
                    for j, y in nf.items():
                        k = i * d + j
                        v = acc.get(k, self.field.zero) + c * x * y
                        if v:
                            acc[k] = v
                        elif k in acc:
                            del acc[k]
            if acc:
                return False, gen, "diagonal"
        return True, None, ""
