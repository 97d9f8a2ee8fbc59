"""The path algebra with relations kQ/(R): basis, structure constants,
tensor-relation checking, subquiver compatibility, and module Hom spaces.

Paths are ordered by length, then by their word of arrow labels
(`Path.sort_key`).  That order is admissible: a well-order compatible with
composition on both sides.  So the ideal (R) has a unique reduced Groebner
basis, whose elements are "tip - normal form of the tip" with the tips the
minimal leading paths of the ideal: E. L. Green, *Noncommutative Groebner
bases, and projective resolutions* (1999); T. Mora, *An introduction to
commutative and non-commutative Groebner bases*, Theoret. Comput. Sci. 134
(1994).  `groebner_basis` finds it by Buchberger's algorithm.  Each
overlap of two tips (a proper suffix of one equal to a proper prefix of
the other, a tip with itself included) gives an S-polynomial, which is
reduced and, if it is not zero, joins the basis with a monic tip; an older
element whose tip contains the new tip goes back to be reduced again.  The
tails are fully reduced at the end.  Polynomials are {word: coefficient}
dicts, a word being a tuple of arrow labels; a path's source and target
follow from its arrows.

The basis of kQ/(R) is the set of paths that contain no tip, listed by a
depth-first search from each vertex that stops as soon as a suffix of the
path is a tip.  These are exactly the earliest paths whose residues stay
independent modulo the ideal, since path k is a tip iff e_k lies in
I + span(e_j : j < k), so structure constants are deterministic and
reports are byte-stable.  A basis path is found by its word
(`word_index`), or by its vertex if it is trivial (`idempotent_index`).
Normal forms are computed on demand and kept in one memo, `_word_nf`,
keyed by word.  The entry of a basis path times an arrow is filled by
reduction by the Groebner basis, and it is what `arrow_step` returns; the
entry of any other path is folded along its arrows from its prefix's
entry, one `arrow_step` per class of it.  Neither the build nor
`compatibility` lists the paths of the quiver: the path budget
(`quiver.check_path_budget`) is checked first, and every tip is a path,
so it bounds the Groebner computation too.

Every sum of multiples of sparse vectors here is one `linalg.combine`.
`product` of two single classes whose coefficients multiply to 1 copies
the memoised normal form, which `combine` would return unchanged.
`module_hom_space` solves no system: the maps M_m -> M_n are the basis
classes from n to m, each the image of the generator.

Over F_p an element is a plain `int` (see `fields`), and the field
reduces it: the Groebner rules end in `field.nonzero`, and the unit half
of the tensor check in `field(x)`.  The relation polynomials, the
S-polynomials and the rules sent back to be reduced again are left
unreduced, since each goes only into `GroebnerBasis.reduce`.  That is the
one loop here that reads `field.modulus`: it reduces each term as it pops
it and skips zeros.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .fields import QQ
from .linalg import Echelon, combine
from .quiver import (Path, QuiverError, Relation, admissible_order,
                     check_path_budget, enumerate_paths, full_subquiver)


# Kept only because `perfbench/tracing.py` wraps `RREFEchelon.add` by name.
RREFEchelon = Echelon

# the product of two classes that do not compose; shared, never changed
_NO_PRODUCT = {}


def _coerced(relations, field):
    """The relation generators with every coefficient in `field`."""
    return tuple(Relation(g.source, g.target,
                          tuple((field(c), p) for c, p in g.terms))
                 for g in relations)


def _order_key(word):
    """`Path.sort_key` of a path with this word."""
    return (len(word), word)


def _polynomial(terms):
    """The combination of paths `terms` as {word: coefficient}, with
    repeated words summed; it may hold zeros and, over F_p, unreduced
    ints, which `GroebnerBasis.reduce` drops and reduces."""
    poly = {}
    for c, path in terms:
        w = path.arrows
        poly[w] = poly[w] + c if w in poly else c
    return poly


def _contains(word, sub):
    n = len(sub)
    return any(word[i:i + n] == sub for i in range(len(word) - n + 1))


def _s_polynomials(u, ru, v, rv):
    """The S-polynomial of each overlap of the tip u (rule u -> ru) with
    the tip v (rule v -> rv): u = x*s and v = s*y with s a proper suffix
    of u and a proper prefix of v, and the S-polynomial
    (u - ru)*y - x*(v - rv) = x*rv - ru*y, unreduced, like `_polynomial`."""
    for k in range(1, min(len(u), len(v))):
        if u[len(u) - k:] == v[:k]:
            x, y = u[:len(u) - k], v[k:]
            s = {x + w: c for w, c in rv.items()}
            for w, c in ru.items():
                wy = w + y
                s[wy] = s[wy] - c if wy in s else -c
            yield s


class GroebnerBasis:
    """Rewriting rules tip -> rhs over `field`, one per element tip - rhs
    of a Groebner basis whose tips are monic and contain no other tip."""

    def __init__(self, field):
        self.field = field
        self.rules = {}
        self.lengths = []   # the tip lengths, ascending

    def divisor(self, word):
        """(start, tip) of the first tip found inside `word`, or None."""
        n, rules = len(word), self.rules
        for k in self.lengths:
            if k > n:
                break
            for i in range(n - k + 1):
                if word[i:i + k] in rules:
                    return i, word[i:i + k]
        return None

    def ends_in_tip(self, word):
        """Whether some suffix of `word` is a tip."""
        n, rules = len(word), self.rules
        return any(word[n - k:] in rules for k in self.lengths if k <= n)

    def reduce(self, poly):
        """The normal form of the polynomial `poly`: no word of it contains
        a tip.  Terms are rewritten from the largest word down, so every
        word that a rewrite adds is smaller than the one it replaces, and
        each word is popped once, with its final coefficient.  So the
        work list may hold zeros and, over F_p, unreduced ints: a term is
        reduced mod p when it is popped, and skipped if it is zero."""
        todo = dict(poly)
        out = {}
        p = self.field.modulus
        while todo:
            w = max(todo, key=_order_key)
            c = todo.pop(w)
            if p is not None:
                c %= p
            if not c:
                continue
            hit = self.divisor(w)
            if hit is None:
                out[w] = c
                continue
            i, tip = hit
            left, right = w[:i], w[i + len(tip):]
            for v, d in self.rules[tip].items():
                u = left + v + right
                todo[u] = todo[u] + c * d if u in todo else c * d
        return out


def groebner_basis(polys, field):
    """The reduced Groebner basis of the two-sided ideal generated by the
    homogeneous polynomials `polys`, by Buchberger's algorithm."""
    gb = GroebnerBasis(field)
    rules = gb.rules
    queue = deque(polys)
    while queue:
        f = gb.reduce(queue.popleft())
        if not f:
            continue
        tip = max(f, key=_order_key)
        scale = -field.inv(f[tip])
        rhs = field.nonzero((w, c * scale) for w, c in f.items() if w != tip)
        # an element whose tip contains the new one is reduced again
        for t in [t for t in rules if _contains(t, tip)]:
            back = {w: -c for w, c in rules.pop(t).items()}
            queue.append({t: field.one, **back})
        rules[tip] = rhs
        gb.lengths = sorted({len(t) for t in rules})
        for t, other in list(rules.items()):
            queue.extend(_s_polynomials(tip, rhs, t, other))
            if t != tip:
                queue.extend(_s_polynomials(t, other, tip, rhs))
    for t in rules:
        rules[t] = gb.reduce(rules[t])
    return gb


class PathAlgebra:
    """Finite-dimensional quotient of a path algebra by homogeneous
    relation generators, with structure constants in a fixed basis."""

    def __init__(self, quiver, relations, field=QQ):
        self.quiver = quiver
        self.relations = _coerced(relations, field)
        self.field = field
        self.order = admissible_order(quiver)
        self._pos = {v: i for i, v in enumerate(self.order)}
        check_path_budget(quiver)
        self._source = {a.label: a.source for a in quiver.arrows}
        self._target = {a.label: a.target for a in quiver.arrows}
        for gen in self.relations:
            for _, p in gen.terms:
                self._check_path(p)
        self._build()
        self._tensor_check = None

    @property
    def tensor_check(self):
        """`is_tensor_relations(self)`, computed on first use and kept."""
        # not a cached_property: adding a key to the instance dict after
        # __init__ slows every later attribute lookup on the algebra
        if self._tensor_check is None:
            self._tensor_check = is_tensor_relations(self)
        return self._tensor_check

    @property
    def paths_by_pair(self):
        """Every path, grouped by (source, target), listed on each read.
        Kept only because `perfbench/tracing.py` counts ideal rows from it,
        once per build; the algebra never lists its paths.  Not a
        cached_property, for the reason `tensor_check` is not."""
        return enumerate_paths(self.quiver)[1]

    # -- construction -------------------------------------------------

    def _build(self):
        self.groebner = groebner_basis(
            [_polynomial(g.terms) for g in self.relations], self.field)

        # the paths that contain no tip, each extended from its prefix;
        # the prefix contains none, so only the suffixes need a look
        words_by_pair = {}
        for v in self.quiver.vertices:
            stack = [((), v)]
            while stack:
                w, t = stack.pop()
                words_by_pair.setdefault((v, t), []).append(w)
                for a in self.quiver.arrows_from(t):
                    longer = w + (a.label,)
                    if not self.groebner.ends_in_tip(longer):
                        stack.append((longer, a.target))

        # every pair joined by a path has a component, possibly zero
        reach = {}
        for v in reversed(self.order):
            r = {v}
            for a in self.quiver.arrows_from(v):
                r |= reach[a.target]
            reach[v] = r

        self.basis = []
        self.pair_indices = {}
        self.pair_of = []
        self._module_bases = {}
        self.word_index = {}    # the word of a non-trivial basis path -> index
        # vertex -> index of its trivial path, in the quiver's vertex order
        self.idempotent_index = dict.fromkeys(self.quiver.vertices)
        for s in self.order:
            for t in sorted(reach[s], key=self._pos.__getitem__):
                pair = (s, t)
                local = []
                for w in sorted(words_by_pair.get(pair, ()), key=_order_key):
                    gi = len(self.basis)
                    self.basis.append(Path(s, t, w))
                    self.pair_of.append(pair)
                    local.append(gi)
                    if w:
                        self.word_index[w] = gi
                    else:
                        self.idempotent_index[s] = gi
                self.pair_indices[pair] = local
                self._module_bases.setdefault(s, []).extend(local)
        self._word_nf = {}   # non-trivial word -> normal form, on demand

    # -- normal forms ---------------------------------------------------

    def _check_path(self, p):
        """Raise QuiverError unless `p` is a path of the quiver."""
        w = p.arrows
        src, tgt = self._source, self._target
        if w:
            ok = (all(a in src for a in w)
                  and all(tgt[a] == src[b] for a, b in zip(w, w[1:]))
                  and p.source == src[w[0]] and p.target == tgt[w[-1]])
        else:
            ok = p.source in self._pos and p.target == p.source
        if not ok:
            raise QuiverError(f"path {p} does not belong to this quiver")

    def _nf_word(self, w):
        """The normal form of the path with the non-trivial word `w`, cached
        and shared.  A basis path times an arrow is reduced by the Groebner
        basis; any other path is folded from its prefix's normal form, one
        `arrow_step` per class of it."""
        nf = self._word_nf.get(w)
        if nf is not None:
            return nf
        head, a = w[:-1], w[-1]
        index = self.word_index
        if not head or head in index:
            red = self.groebner.reduce({w: self.field.one})
            nf = {index[u]: red[u] for u in sorted(red, key=index.__getitem__)}
        else:
            nf = combine(((c, self.arrow_step(b, a))
                          for b, c in self._nf_word(head).items()), self.field)
        self._word_nf[w] = nf
        return nf

    def _nf(self, p):
        """The normal form of the path p, cached and shared for a
        non-trivial one; raises QuiverError unless p is a path of the
        quiver."""
        self._check_path(p)
        if p.arrows:
            return self._nf_word(p.arrows)
        return {self.idempotent_index[p.source]: self.field.one}

    # -- basic queries -------------------------------------------------

    @property
    def dim(self):
        return len(self.basis)

    def dim_pair(self, n, m):
        return len(self.pair_indices.get((n, m), []))

    def nf_path(self, p):
        """Coordinates of the residue class of a path, as {basis index: c}."""
        return dict(self._nf(p))

    def product_indices(self, i, j):
        """Structure constants: (basis class i) * (basis class j), as
        {basis index: c}: the normal form of the concatenated word, read
        from the memo of normal forms.  The dict may be shared, so callers
        must not change it."""
        pi, pj = self.basis[i], self.basis[j]
        if pi.target != pj.source:
            return _NO_PRODUCT
        w = pi.arrows + pj.arrows
        if not w:
            return {i: self.field.one}
        nf = self._word_nf.get(w)
        return nf if nf is not None else self._nf_word(w)

    def arrow_step(self, x, label):
        """(basis class x) * (class of the arrow `label`), as
        {basis index: c} in ascending index order: one step of a walk along
        arrows.  It is the normal form of x's word followed by the arrow,
        the memo entry of `_nf_word`, so callers must not change it."""
        p = self.basis[x]
        if p.target != self._source[label]:
            return _NO_PRODUCT
        return self._nf_word(p.arrows + (label,))

    def product(self, a, b):
        """Product of two elements given as {basis index: coefficient},
        in ascending index order; a new dict."""
        if len(a) == 1 and len(b) == 1:
            (i, ca), = a.items()
            (j, cb), = b.items()
            # two classes whose coefficients multiply to 1: `combine`
            # would add the memoised normal form, whose keys ascend and
            # whose values are nonzero field elements, without
            # multiplying it, so the copy is equal.  Over F_p a product
            # congruent to 1 but not equal to it still goes to `combine`.
            # This copy and the one-entry path of `Echelon.add` were part
            # of a 13% cut of `reconstruct-f101` `wall_s`, 17.21 -> 14.92
            # ms (better in 10/10 alternating pairs of 20 s perfbench
            # runs, Python 3.11.7, 2-core x86-64 Xeon)
            if ca * cb == 1:
                return dict(self.product_indices(i, j))
        return combine(((ca * cb, self.product_indices(i, j))
                        for i, ca in a.items() for j, cb in b.items()),
                       self.field)

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
    field = alg.field
    for gen in alg.relations:
        if field(gen.coefficient_sum()):
            return TensorCheck(False, gen, "unit")
        # cls(p) (x) cls(p) is the sum of x_i * (e_i (x) cls(p)) over the
        # terms x_i e_i of cls(p), and e_i (x) cls(p) is cls(p) shifted by
        # i * dim
        d = alg.dim
        nfs = [(c, alg._nf(p)) for c, p in gen.terms]
        if combine(((c * x, {i * d + j: y for j, y in nf.items()})
                    for c, nf in nfs for i, x in nf.items()), field):
            return TensorCheck(False, gen, "diagonal")
    return TensorCheck(True)


class TensorRelationError(ValueError):
    def __init__(self, check, field):
        self.check = check
        super().__init__(
            f"relations are not tensor relations: generator "
            f"{check.witness.pretty(field)} fails the {check.failed_test} test")


def require_tensor_relations(alg):
    """Raise TensorRelationError unless the relations of `alg` are tensor
    relations."""
    if not alg.tensor_check.ok:
        raise TensorRelationError(alg.tensor_check, alg.field)


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

    # an r-bar generator lies in the ideal of kQ' generated by r_cap iff it
    # reduces to zero by that ideal's Groebner basis; every overlap of two
    # tips inside Q' stays inside Q'
    check_path_budget(sub)
    witness = None
    if r_bar:
        gb = groebner_basis([_polynomial(g.terms) for g in r_cap], field)
        witness = next((gen for gen in r_bar
                        if gb.reduce(_polynomial(gen.terms))), None)
    return CompatibilityResult(witness is None, sub, tuple(r_cap), tuple(r_bar), witness)


# -- Hom spaces between the projective right modules -------------------


def module_hom_space(alg, n, m):
    """Basis of right-module homomorphisms M_m -> M_n, each given by the
    image of the generator, as {basis index: c}: the basis classes from n
    to m.

    A module map out of the cyclic module M_m is pinned down by the image
    v of the trivial-path generator e_m, and v is admissible exactly when
    v * w = 0 whenever e_m * w = 0.  The idempotents e_u, u != m, generate
    those w as a right ideal, so v is admissible iff v * e_u = 0 for each
    of them, that is iff v lies in e_n Lambda e_m (Assem, Simson and
    Skowronski, Elements of the Representation Theory of Associative
    Algebras 1, 2006, ch. I): no system is solved.  `reconstruct` does not
    call it; it stays because `perfbench/tracing.py` wraps it by name."""
    one = alg.field.one
    return [{i: one} for i in alg.pair_indices.get((n, m), [])]
