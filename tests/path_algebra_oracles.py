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
`word_nf_oracle`, `nf_path_oracle` and `product_indices_oracle` give
normal forms as {basis index: c} dicts, each word reduced by the Groebner
basis in one go, as the library did before a tensor quotient's normal
form became one class index; they serve any quotient, tensor or not.
`combine_product` is `PathAlgebra.product` as one `linalg.combine` of
those dicts for every input.  `nf_path` reads a path's class off the
library's step table.
`first_reads` gives, for each reader of the quotient's listed basis, what
it must return, read off `quotient_oracle`'s build.
`groebner_basis_oracle` is Buchberger's loop as it was before the tips
were indexed by their first and last arrows: each new tip is matched
against every rule, both ways round, at every overlap length.
`coerced_oracle` and `check_path_oracle` are the relation coercion and
the path check of a `Presentation` as they were before a relation already
in the field was kept and each word was walked once: every relation is
rebuilt, and a word is checked by two passes over its arrows.

Over F_p every oracle computes in the field of `fields_oracle.oracle_field`,
whose `FpElement`s reduce in each operator; the library's F_p elements are
plain `int`s, on which the oracles' sums would run over Z.
"""

from collections import deque
from types import SimpleNamespace

from quivertt.linalg import Matrix, combine
from quivertt.path_algebra import GroebnerBasis, TensorRelationError
from quivertt.quiver import (Path, QuiverError, Relation, admissible_order,
                             enumerate_paths, full_subquiver)

from conftest import path_from_arrows
from fields_oracle import oracle_field
from linalg_oracles import RREFEchelonOracle, solve_many_oracle


def join_paths(p, q):
    """The path p followed by the path q; defined when p ends where q
    starts."""
    if p.target != q.source:
        raise QuiverError(f"paths {p} and {q} do not compose")
    return Path(p.source, q.target, p.arrows + q.arrows)


def order_key(word):
    """`quiver.word_order` of a path with this word."""
    return (len(word), word)


def contains(word, sub):
    """Whether the word `sub` occurs inside the word `word`."""
    n = len(sub)
    return any(word[i:i + n] == sub for i in range(len(word) - n + 1))


def s_polynomials_oracle(u, ru, v, rv):
    """The S-polynomial of each overlap of the tip u (rule u -> ru) with
    the tip v (rule v -> rv): u = x*s and v = s*y with s a proper suffix
    of u and a proper prefix of v, and the S-polynomial
    (u - ru)*y - x*(v - rv) = x*rv - ru*y, unreduced."""
    for k in range(1, min(len(u), len(v))):
        if u[len(u) - k:] == v[:k]:
            x, y = u[:len(u) - k], v[k:]
            s = {x + w: c for w, c in rv.items()}
            for w, c in ru.items():
                wy = w + y
                s[wy] = s[wy] - c if wy in s else -c
            yield s


def groebner_basis_oracle(polys, field):
    """The reduced Groebner basis of the ideal generated by `polys`, by
    Buchberger's loop that pairs each new tip with every rule, both ways
    round; it reduces with the library's `GroebnerBasis.reduce`, over the
    library's `field`."""
    gb = GroebnerBasis(field)
    rules = gb.rules
    queue = deque(polys)
    while queue:
        f = gb.reduce(queue.popleft())
        if not f:
            continue
        tip = max(f, key=order_key)
        scale = -field.inv(f[tip])
        rhs = field.nonzero((w, c * scale) for w, c in f.items() if w != tip)
        for t in [t for t in rules if contains(t, tip)]:
            back = {w: -c for w, c in rules.pop(t).items()}
            queue.append({t: field.one, **back})
        rules[tip] = rhs
        gb.lengths = sorted({len(t) for t in rules})
        for t, other in list(rules.items()):
            queue.extend(s_polynomials_oracle(tip, rhs, t, other))
            if t != tip:
                queue.extend(s_polynomials_oracle(t, other, tip, rhs))
    for t in rules:
        rules[t] = gb.reduce(rules[t])
    return gb


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
                    full = join_paths(join_paths(left, mid), right)
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
    field = oracle_field(alg.field)
    _, by_pair = enumerate_paths(alg.quiver)
    out = SimpleNamespace(basis=[], basis_index={}, pair_indices={},
                          path_nf={}, module_bases={})
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
            local.append(gi)
        for k, p in enumerate(plist):
            out.path_nf[p] = {gi: c for gi, c in zip(local, coords[k]) if c}
        if local:
            # the algebra indexes only the pairs with a basis class
            out.pair_indices[pair] = local
        out.module_bases.setdefault(pair[0], []).extend(local)
    return out


def coerced_oracle(relations, field):
    """The relation generators with every coefficient in `field`, each
    rebuilt."""
    return tuple(Relation(g.source, g.target,
                          tuple((field(c), p) for c, p in g.terms))
                 for g in relations)


def check_path_oracle(quiver, p):
    """Raise QuiverError unless `p` is a path of `quiver`."""
    w = p.arrows
    src = {a.label: a.source for a in quiver.arrows}
    tgt = {a.label: a.target for a in quiver.arrows}
    if w:
        ok = (all(a in src for a in w)
              and all(tgt[a] == src[b] for a, b in zip(w, w[1:]))
              and p.source == src[w[0]] and p.target == tgt[w[-1]])
    else:
        ok = p.source in set(quiver.vertices) and p.target == p.source
    if not ok:
        raise QuiverError(f"path {p} does not belong to this quiver")


def compatibility_oracle(quiver, relations, verts, field):
    """(r_cap, r_bar, witness) of the full subquiver on `verts`: the first
    r-bar generator outside the ideal of the subquiver generated by r_cap,
    found by whether its vector lies in the span of the ideal rows.
    `relations` must already have coefficients in `field`."""
    field = oracle_field(field)
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


def word_nf_oracle(alg, word):
    """The normal form of the path of `alg` with the non-trivial `word`,
    as {basis index: c} in ascending order: the word reduced by the
    Groebner basis in one go, on any quotient, tensor or not."""
    red = alg.groebner.reduce({word: alg.field.one})
    return dict(sorted((alg.word_index[u], c) for u, c in red.items()))


def nf_path_oracle(alg, p):
    """The normal form of the path p of `alg`, as {basis index: c}."""
    if p.arrows:
        return word_nf_oracle(alg, p.arrows)
    return {alg.idempotent_index[p.source]: alg.field.one}


def nf_path(alg, p):
    """The basis class of the residue of the path p of the tensor quotient
    `alg`, an index, walked from the idempotent of p's source through the
    algebra's step table; `PathAlgebra.nf_path` as the library had it
    before `center_and_z` took each arrow's class as one `arrow_step`.
    Raises QuiverError unless p is a path of the quiver."""
    alg._check_path(p)
    return alg._walk(alg.idempotent_index[p.source], p.source, p.arrows)


def product_indices_oracle(alg, i, j):
    """(basis class i) * (basis class j) as {basis index: c}: the normal
    form of the joined word, {} if the two classes do not compose.  On a
    tensor quotient it holds one entry, (`alg.product_indices(i, j)`, 1)."""
    pi, pj = alg.basis[i], alg.basis[j]
    if pi.target != pj.source:
        return {}
    if not pj.arrows:
        return {i: alg.field.one}
    return word_nf_oracle(alg, pi.arrows + pj.arrows)


def right_mult_oracle(alg, v, j):
    """The matrix of right multiplication by basis class j on the module
    M_v = e_v * Lambda, in the basis `alg.module_basis(v)`, one column per
    basis class read off `product_indices_oracle`."""
    mb = alg.module_basis(v)
    pos = {gi: k for k, gi in enumerate(mb)}
    rows = [[alg.field.zero] * len(mb) for _ in mb]
    for k, gi in enumerate(mb):
        for gk, c in product_indices_oracle(alg, gi, j).items():
            rows[pos[gk]][k] = c
    return Matrix(len(mb), len(mb), rows, alg.field)


def module_map_oracle(alg, n, m, image):
    """The dense matrix, in module bases, of the map M_m -> M_n that sends
    the generator e_m to `image` {basis index: c}: its column for the
    module basis element x of M_m is image * x."""
    field = oracle_field(alg.field)
    mb_m, mb_n = alg.module_basis(m), alg.module_basis(n)
    pos_n = {gi: k for k, gi in enumerate(mb_n)}
    cols = []
    for x in mb_m:
        col = [field.zero] * len(mb_n)
        for g, a in image.items():
            for h, y in product_indices_oracle(alg, g, x).items():
                col[pos_n[h]] = col[pos_n[h]] + a * y
        cols.append(col)
    return Matrix.from_columns(cols, field, rows=len(mb_n))


def combine_product(alg, a, b):
    """The product of the elements a and b of `alg` as one `combine` of
    the normal forms of `product_indices_oracle`, over the algebra's own
    field, on any quotient."""
    return combine(((ca * cb, product_indices_oracle(alg, i, j))
                    for i, ca in a.items() for j, cb in b.items()),
                   alg.field)


def first_reads(quiver, want, tensor):
    """{reader: (read, expected)} for every reader of the listed basis of a
    `PathAlgebra` on `quiver` whose oracle build is `want`: `read(alg)`
    reads the algebra through that reader alone, and must return
    `expected`.  The step readers `nf_path`, `arrow_step` and
    `product_indices` return the one class of the oracle's normal form on
    a tensor quotient (`tensor`); on any other, `expected` is
    `TensorRelationError`, which they must raise.  The arguments come from
    the oracle, so that no read but `read`'s own touches the algebra."""
    basis, verts = want.basis, quiver.vertices
    d = len(basis)
    paths = list(want.path_nf)

    def index(path):
        nf = want.path_nf[path]
        (k,) = nf
        assert nf == {k: 1}, path
        return k

    def walked(p, q):
        return index(join_paths(p, q)) if p.target == q.source else None

    arrows = quiver.arrows
    steps = {
        "nf_path": (lambda alg: [nf_path(alg, p) for p in paths],
                    lambda: [index(p) for p in paths]),
        "arrow_step": (lambda alg: [alg.arrow_step(x, a.label)
                                    for x in range(d) for a in arrows],
                       lambda: [walked(basis[x], path_from_arrows([a]))
                                for x in range(d) for a in arrows]),
        "product_indices": (lambda alg: [alg.product_indices(i, j)
                                         for i in range(d) for j in range(d)],
                            lambda: [walked(basis[i], basis[j])
                                     for i in range(d) for j in range(d)]),
    }
    pairs = [(n, m) for n in verts for m in verts]
    reads = {
        "basis": (lambda alg: alg.basis, basis),
        "pair_indices": (lambda alg: list(alg.pair_indices.items()),
                         list(want.pair_indices.items())),
        "word_index": (lambda alg: list(alg.word_index.items()),
                       [(p.arrows, gi) for p, gi in want.basis_index.items()
                        if p.arrows]),
        "idempotent_index": (lambda alg: list(alg.idempotent_index.items()),
                             [(v, want.basis_index[Path(v, v, ())])
                              for v in verts]),
        "dim": (lambda alg: alg.dim, d),
        "dim_pair": (lambda alg: [alg.dim_pair(n, m) for n, m in pairs],
                     [len(want.pair_indices.get(pair, ())) for pair in pairs]),
        "element_word": (lambda alg: [alg.element_word(i) for i in range(d)],
                         [p.word() for p in basis]),
        "module_basis": (lambda alg: [alg.module_basis(v) for v in verts],
                         [want.module_bases.get(v, []) for v in verts]),
    }
    for name, (read, expected) in steps.items():
        reads[name] = (read, expected() if tensor else TensorRelationError)
    return reads


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
        self.field = oracle_field(alg.field)
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
            red = self.alg.groebner.reduce({w: self.alg.field.one})
            nf = {index[u]: self.field(red[u])
                  for u in sorted(red, key=index.__getitem__)}
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
        return self.nf(join_paths(pi, pj))

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
            if sum((c for c, _ in gen.terms), self.field.zero):
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


def tensor_check_oracle(quiver, relations, field):
    """(dim kQ/(R), the failed test) of `relations` over `field`, read off
    `quotient_oracle`'s normal forms: "" for tensor relations, else "unit"
    or "diagonal" for the first generator that fails, as in the library's
    criterion.  The coefficients are coerced into `field` first."""
    rels = tuple(Relation(g.source, g.target,
                          tuple((field(c), p) for c, p in g.terms))
                 for g in relations)
    quotient = quotient_oracle(
        SimpleNamespace(quiver=quiver, relations=rels, field=field))
    dim = len(quotient.basis)
    for gen in rels:
        if sum((c for c, _ in gen.terms), field.zero):
            return dim, "unit"
        square = {}
        for c, p in gen.terms:
            nf = quotient.path_nf[p]
            for i, x in nf.items():
                for j, y in nf.items():
                    square[i, j] = square.get((i, j), field.zero) + c * x * y
        if any(square.values()):
            return dim, "diagonal"
    return dim, ""
