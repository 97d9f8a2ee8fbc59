"""The path-algebra builder as it was before the basis and normal forms
were read off one reversed-order echelon, kept as a differential oracle.

It reduces every standard vector modulo the ideal, keeps the earliest paths
whose residues stay independent, and solves for every path's coordinates in
the kept residues, with the dense kernels of `linalg_oracles`.  The ideal
rows are dense and list the paths in forward order, as the library's did
before it made them sparse and reversed.
"""

from types import SimpleNamespace

from quivertt.linalg import InconsistentSystem, Matrix

from linalg_oracles import RREFEchelonOracle, rref_oracle


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


def solve_many_oracle(a, bs):
    """Particular solutions of a x = b for each b, read off the RREF of
    the augmented matrix [a | b_0 | b_1 | ...]."""
    field = a.field
    aug = a.hstack(Matrix.from_columns([list(b) for b in bs], field, rows=a.rows))
    red, pivots, _ = rref_oracle(aug)
    if any(p >= a.cols for p in pivots):
        raise InconsistentSystem("rhs not in column span")
    sols = []
    for k in range(len(bs)):
        x = [field.zero] * a.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.entries[r][a.cols + k]
        sols.append(tuple(x))
    return sols


def quotient_oracle(alg):
    """The basis, its indices and the path normal forms of the quotient
    `alg` describes, computed afresh from its paths and relations."""
    field = alg.field
    out = SimpleNamespace(basis=[], basis_index={}, pair_indices={},
                          pair_of=[], path_nf={}, module_bases={})
    for pair in sorted(alg.paths_by_pair, key=alg._pair_sort):
        plist = alg.paths_by_pair[pair]
        ech = RREFEchelonOracle(len(plist), field)
        for r in ideal_rows_oracle(pair, alg.relations, alg.paths_by_pair, field):
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
