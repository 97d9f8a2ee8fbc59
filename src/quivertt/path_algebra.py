"""The path algebra with relations kQ/(R): basis, structure constants,
tensor-relation checking, subquiver compatibility, and module Hom spaces.

Paths are ordered by length, then by their word of arrow labels
(`quiver.word_order`).  That order is admissible: a well-order compatible with
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
overlaps of a new tip are found through an index of the tips by their
first and by their last arrow, so it meets only the tips it overlaps.  The
tails are fully reduced at the end.  Polynomials are {word: coefficient}
dicts, a word being a tuple of arrow labels; a path's source and target
follow from its arrows.

A `Presentation` is the quiver, the relations and the field.  Its
relations are the given ones in the field: a `Relation` whose
coefficients already are field elements, as a parsed spec's are, is kept
as it is, and any other is rebuilt.  Building one walks each relation
word once along the quiver, checks the path budget
(`quiver.check_path_budget`), runs the Groebner basis and certifies the
tensor verdict; every tip is a path, so the budget bounds the Groebner
computation too.  It lists no path: the spectrum, the sheaves, the
k-points and `check-tensor` need only the quiver and the certified
tensor verdict, so they take a `Presentation`.
A `PathAlgebra` is a `Presentation` that lists the basis of kQ/(R) when
it is built.  The basis is the set of paths that contain no tip, listed
by `quiver.list_paths`, the depth-first search of `enumerate_paths`,
pruned as soon as a suffix of the path is a tip.  These are exactly the
earliest paths whose residues stay independent modulo the ideal, since
path k is a tip iff e_k lies in I + span(e_j : j < k), so structure
constants are deterministic and reports are byte-stable.  Each fact
about the basis is kept once: the paths (`basis`, whose source and
target give the pair of a class), their indices by pair (`pair_indices`,
which also give the basis of M_v), by word (`word_index`) and, for the
trivial paths, by vertex (`idempotent_index`).  The build lists no path
but the basis, and `compatibility` lists none.

R is a set of tensor relations iff every rule of the reduced Groebner
basis rewrites its tip to one word with coefficient 1
(docs/tensor-relations-criterion.md): then kQ/(R) = k[C] for a category C,
and every path is one basis class.  Building a presentation compares that
shape with the per-generator criterion `is_tensor_relations`
(`certify_quotient`) and raises QuotientCertificateError where they
disagree; `tensor_check` holds the certified verdict.  On a certified
tensor quotient a normal form is one class index: `arrow_step` and
`product_indices` walk one table, (basis class, arrow) -> basis class,
and return an index, or None for classes that do not compose; on any
other quotient there is no table, and they raise TensorRelationError.
The table starts empty, and the certified rules, word -> word, fill it
one step at a time through the table itself (`PathAlgebra._fill`): a
basis word followed by an arrow is a basis word, or it ends in one tip,
and then its step is the walk along that tip's rule from the class of
the rest.  No step reduces a polynomial.  A wrong rule whose right side
cannot be walked, or leads back to the step being filled, raises
RewriteError, a QuotientCertificateError.  `product` is one
`linalg.combine` of the products of classes.  The tensor check reads the
Groebner basis directly: it reduces each relation term's word by it and
sums the diagonal square per pair of normal-form words.
`module_hom_space` solves no system: the maps M_m -> M_n are the basis
classes from n to m, each the image of the generator.

Over F_p an element is a plain `int` (see `fields`), and the field
reduces it: the Groebner rules and the tensor check's diagonal square end
in `field.nonzero`, and its unit half in `field(x)`.  The relation
polynomials, the S-polynomials and the rules sent back to be reduced
again are left unreduced, since each goes only into
`GroebnerBasis.reduce`, which passes each term through `field(x)` as it
pops it and skips zeros.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .fields import QQ
from .linalg import Echelon, combine
from .quiver import (QuiverError, Relation, admissible_order,
                     check_path_budget, enumerate_paths, full_subquiver,
                     list_paths, word_order)


# Kept only because `perfbench/tracing.py` wraps `RREFEchelon.add` by name.
RREFEchelon = Echelon


def _coerced(relations, field):
    """The relation generators with every coefficient in `field`.  A
    `Relation` whose every coefficient c already is `field(c)`, of the
    same class, is kept as it is: it is immutable and was checked
    homogeneous when it was built."""
    out = []
    for g in relations:
        if g.__class__ is Relation:
            for c, _ in g.terms:
                d = field(c)
                if d.__class__ is not c.__class__ or d != c:
                    break
            else:
                out.append(g)
                continue
        out.append(Relation(g.source, g.target,
                            [(field(c), p) for c, p in g.terms]))
    return tuple(out)


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


def _s_polynomial(x, rv, ru, y):
    """x*rv - ru*y, unreduced, like `_polynomial`: the S-polynomial
    (u - ru)*y - x*(v - rv) of the overlap u*y = x*v of the tips u and v
    of the rules u -> ru and v -> rv."""
    s = {x + w: c for w, c in rv.items()}
    for w, c in ru.items():
        wy = w + y
        s[wy] = s[wy] - c if wy in s else -c
    return s


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
        work list may hold zeros and, over F_p, unreduced ints: a term goes
        through `field(x)` when it is popped, and is skipped if it is
        zero."""
        todo = dict(poly)
        out = {}
        field = self.field
        while todo:
            w = max(todo, key=word_order)
            c = field(todo.pop(w))
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
    # the tips by first and by last arrow; dicts, not sets, so that the
    # queue order does not follow the per-process string hash
    firsts, lasts = {}, {}
    queue = deque(polys)
    while queue:
        f = gb.reduce(queue.popleft())
        if not f:
            continue
        u = max(f, key=word_order)
        scale = -field.inv(f[u])
        ru = field.nonzero((w, c * scale) for w, c in f.items() if w != u)
        # an element whose tip contains the new one is reduced again; u
        # contains no tip, so such a tip is longer than u
        for t in [t for t in rules if len(t) > len(u) and _contains(t, u)]:
            del firsts[t[0]][t], lasts[t[-1]][t]
            back = {w: -c for w, c in rules.pop(t).items()}
            queue.append({t: field.one, **back})
        rules[u] = ru
        firsts.setdefault(u[0], {})[u] = None
        lasts.setdefault(u[-1], {})[u] = None
        gb.lengths = sorted({len(t) for t in rules})
        # the overlaps u = x*s, t = s*y (t = u included) and t = x*s,
        # u = s*y (t != u) with |s| = k, found by the first or the last
        # arrow of s; no other tip lies inside u, so s is a proper part of t
        for k in range(1, len(u)):
            for t in firsts.get(u[-k], ()):
                if t[:k] == u[-k:]:
                    queue.append(_s_polynomial(u[:-k], rules[t], ru, t[k:]))
            for t in lasts.get(u[k - 1], ()):
                if t != u and t[-k:] == u[:k]:
                    queue.append(_s_polynomial(t[:-k], ru, rules[t], u[k:]))
    for t in rules:
        rules[t] = gb.reduce(rules[t])
    return gb


class Presentation:
    """A quiver with homogeneous relation generators over a field: the
    relations with their coefficients in the field, the reduced Groebner
    basis of their ideal and the certified tensor verdict.  It lists no
    basis of kQ/(R)."""

    def __init__(self, quiver, relations, field=QQ):
        self.quiver = quiver
        self.relations = _coerced(relations, field)
        self.field = field
        self._pos = {v: i for i, v in enumerate(admissible_order(quiver))}
        check_path_budget(quiver)
        self._source = {a.label: a.source for a in quiver.arrows}
        self._target = {a.label: a.target for a in quiver.arrows}
        for gen in self.relations:
            for _, p in gen.terms:
                self._check_path(p)
        self.groebner = groebner_basis(
            [_polynomial(g.terms) for g in self.relations], field)
        self.tensor_check = certify_quotient(self, is_tensor_relations(self))

    def _check_path(self, p):
        """Raise QuiverError unless `p` is a path of the quiver: one walk
        from `p.source`, a vertex, along its word, each arrow known and
        starting where the walk stands, that ends at `p.target`."""
        at = p.source
        if at in self._pos:
            src, tgt = self._source, self._target
            for a in p.arrows:
                if a not in src or src[a] != at:
                    break
                at = tgt[a]
            else:
                if p.target == at:
                    return
        raise QuiverError(f"path {p} does not belong to this quiver")


class PathAlgebra(Presentation):
    """Finite-dimensional quotient kQ/(R) of a presentation, with its basis
    listed when it is built and structure constants in that basis.

    `basis` holds the basis paths in basis order, `pair_indices` maps
    (source, target) to the basis indices of that pair, ascending, for
    every pair with a basis class, `word_index` the word of each non-trivial
    basis path to its index, and `idempotent_index` each vertex, in vertex
    order, to the index of its trivial path."""

    def __init__(self, quiver, relations, field=QQ):
        super().__init__(quiver, relations, field)
        # (basis class, arrow label) -> basis class, filled on demand; None
        # unless the quotient is certified tensor
        self._steps = {} if self.tensor_check.ok else None
        # the steps that `_fill` is filling: meeting one again means the
        # rules rewrite a word back to itself
        self._filling = set()
        self._list_basis()

    @property
    def paths_by_pair(self):
        """Every path, grouped by (source, target), listed on each read.
        Kept only because `perfbench/tracing.py` counts ideal rows from it,
        once per build; the algebra never lists its paths.  Not a
        cached_property: adding a key to the instance dict after __init__
        slows every later attribute lookup on the instance."""
        return enumerate_paths(self.quiver)[1]

    def _list_basis(self):
        """Set `basis`, `pair_indices`, `word_index`, `idempotent_index`
        and `dim`: the basis is the paths that contain no tip of the
        Groebner basis, and a path contains a tip iff some prefix of it
        ends in one, so `list_paths` pruned by `ends_in_tip` lists them."""
        basis = list_paths(self.quiver, self.groebner.ends_in_tip)[0]
        pair_indices, word_index = {}, {}
        idempotent_index = dict.fromkeys(self.quiver.vertices)
        for i, p in enumerate(basis):
            pair_indices.setdefault((p.source, p.target), []).append(i)
            if p.arrows:
                word_index[p.arrows] = i
            else:
                idempotent_index[p.source] = i
        self.basis, self.pair_indices = basis, pair_indices
        self.word_index, self.idempotent_index = word_index, idempotent_index
        self.dim = len(basis)

    # -- normal forms ---------------------------------------------------

    def _walk(self, x, start, word):
        """The basis class of (basis class x) followed by the path `word`
        from the vertex `start`, or None if x does not end at `start`.  A
        step is read from the table `_steps`, or filled from the certified
        rules by `_fill`.  Raises TensorRelationError unless the relations
        are tensor relations."""
        steps = self._steps
        if steps is None:
            raise TensorRelationError(self.tensor_check, self.field)
        if self.basis[x].target != start:
            return None
        for a in word:
            y = steps.get((x, a))
            x = self._fill(x, a) if y is None else y
        return x

    def _fill(self, x, a):
        """Fill the step (basis class x, arrow a) of the table from the
        certified rules, and return it.  The basis word w of x contains no
        tip, so w*a holds a tip only as a suffix.  If it holds none, w*a is
        a basis word.  Else w*a = u*t for the tip t with rule t -> r, and
        the step is the class of u, a prefix of w and so a basis word,
        walked along r through the table.  A certified rule rewrites its
        tip to a smaller word, and the order is compatible with
        composition, so every step that walk fills has a smaller word than
        w*a.  A step is never filled inside its own filling, so the
        recursion ends even on rules that are neither confluent nor
        decreasing.  Raises RewriteError if a rule's right side cannot be
        walked from u's class to where w*a ends, or leads back to the step
        being filled."""
        p = self.basis[x]
        w = p.arrows + (a,)
        if self._source.get(a) != p.target:
            raise RewriteError(w, "is not a path")
        y = self.word_index.get(w)
        if y is None:
            # the basis is the paths whose prefixes end in no tip
            rules, n = self.groebner.rules, len(w)
            t = next(w[n - k:] for k in self.groebner.lengths
                     if k <= n and w[n - k:] in rules)
            (r,) = rules[t]
            u = w[:n - len(t)]
            filling = self._filling
            if (x, a) in filling:
                raise RewriteError(w, "is rewritten back to itself")
            filling.add((x, a))
            try:
                y = self._walk(self.word_index[u] if u
                               else self.idempotent_index[p.source],
                               self._source.get(r[0]) if r else None, r)
            finally:
                filling.discard((x, a))
            if y is None or self.basis[y].target != self._target[a]:
                raise RewriteError(w, f"ends in the tip {'*'.join(t)}, "
                                      f"whose rule's right side "
                                      f"{'*'.join(r)} cannot be walked "
                                      f"from {'*'.join(u) or p.source}")
        self._steps[x, a] = y
        return y

    # -- basic queries -------------------------------------------------

    def dim_pair(self, n, m):
        return len(self.pair_indices.get((n, m), []))

    def product_indices(self, i, j):
        """Structure constants: (basis class i) * (basis class j), a basis
        index, or None if the two classes do not compose."""
        pj = self.basis[j]
        return self._walk(i, pj.source, pj.arrows)

    def arrow_step(self, x, label):
        """(basis class x) * (class of the arrow `label`), a basis index,
        or None if they do not compose: one step of a walk along arrows."""
        return self._walk(x, self._source[label], (label,))

    def product(self, a, b):
        """Product of two elements given as {basis index: coefficient},
        in ascending index order; a new dict."""
        return combine(((ca, {k: cb}) for i, ca in a.items()
                        for j, cb in b.items()
                        if (k := self.product_indices(i, j)) is not None),
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
        """Global basis indices of M_v, in basis order: the classes of the
        pairs from v, which `pair_indices` holds in basis order.  Kept
        only because `perfbench/tracing.py` counts Hom rows from it."""
        return [i for (s, _), local in self.pair_indices.items() if s == v
                for i in local]


# -- tensor-relation criterion ----------------------------------------


@dataclass
class TensorCheck:
    ok: bool
    witness: object = None       # the violating generator, if any
    failed_test: str = ""        # "unit" or "diagonal"


def is_tensor_relations(alg):
    """Decide whether the relation generators of the presentation `alg`
    cut out a monoidal subcategory of the representation category.

    Two linear conditions per generator r = sum(c_i * p_i):
      unit:     sum(c_i) = 0, so the all-identities representation
                satisfies r;
      diagonal: sum(c_i * cls(p_i) (x) cls(p_i)) = 0 in the tensor square
                of the quotient algebra, which forces r to vanish on every
                tensor product of representations satisfying the relations
                (and conversely, via the regular representation).
    """
    field, reduce = alg.field, alg.groebner.reduce
    for gen in alg.relations:
        if field(gen.coefficient_sum()):
            return TensorCheck(False, gen, "unit")
        # cls(p) (x) cls(p) is the sum of x * y * (u (x) v) over the terms
        # x*u and y*v of the normal form of p, u and v words of basis paths
        square = {}
        for w, c in _polynomial(gen.terms).items():
            nf = reduce({w: field.one}).items()
            for u, x in nf:
                for v, y in nf:
                    z = c * x * y
                    square[u, v] = square[u, v] + z if (u, v) in square else z
        if field.nonzero(square.items()):
            return TensorCheck(False, gen, "diagonal")
    return TensorCheck(True)


class TensorRelationError(ValueError):
    def __init__(self, check, field):
        self.check = check
        super().__init__(
            f"relations are not tensor relations: generator "
            f"{check.witness.pretty(field)} fails the {check.failed_test} test")


class QuotientCertificateError(ValueError):
    """The quotient's Groebner rules and the tensor-relation criterion
    disagree, so the quotient is wrong: R is tensor iff every rule
    rewrites its tip to one word with coefficient 1.  `witness` is the
    first rule of another shape, as (tip, rhs), or else the generator that
    fails the criterion."""

    stage = "quotient"

    def __init__(self, witness, check, field):
        self.witness = witness
        if check.ok:
            tip, rhs = witness
            text = " + ".join(f"{field.format(c)} {'*'.join(w)}"
                              for w, c in rhs.items()) or "0"
            why = (f"the Groebner rule {'*'.join(tip)} -> {text} is not one "
                   f"word with coefficient 1, yet the relations pass the "
                   f"tensor-relation criterion")
        else:
            why = (f"every Groebner rule is one word with coefficient 1, yet "
                   f"generator {witness.pretty(field)} fails the "
                   f"{check.failed_test} test")
        super().__init__(f"{self.stage} certificate failed: {why}")


class RewriteError(QuotientCertificateError):
    """A step of the table that the certified rules cannot fill: the word
    `witness`, a basis word followed by an arrow, is no path, or it ends in
    a tip whose rule cannot be walked or rewrites it back to itself.
    `groebner_basis` gives no such rule; a wrong one can."""

    def __init__(self, word, why):
        self.witness = word
        ValueError.__init__(self, f"{self.stage} certificate failed: the "
                                  f"word {'*'.join(word)} {why}")


def certify_quotient(alg, check):
    """`check`, the tensor verdict of the presentation `alg`, if the shape
    of the Groebner rules agrees with it; raises QuotientCertificateError
    if not.  One look per rule (docs/tensor-relations-criterion.md)."""
    one = [alg.field.one]
    bad = next(((tip, rhs) for tip, rhs in alg.groebner.rules.items()
                if list(rhs.values()) != one), None)
    if check.ok != (bad is None):
        raise QuotientCertificateError(bad if check.ok else check.witness,
                                       check, alg.field)
    return check


def require_tensor_relations(alg):
    """Raise TensorRelationError unless the relations of the presentation
    `alg` are tensor relations."""
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
