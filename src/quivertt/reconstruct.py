"""Recovering the path algebra with relations from the derived tensor
category: evaluation functors as k-points, spaces of natural
transformations between them, the assembled algebra with its composition
product, and the mutually inverse comparison maps with kQ/(R).

Product convention: for transformations alpha: F_n => F_m and
beta: F_m => F_l, the algebra product alpha * beta is the composite
beta o alpha (apply alpha first); non-composable pairs multiply to zero.
With the left-to-right path word convention this makes the comparison map
a homomorphism rather than an anti-homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (BoundedComplex, cohomology_at, eval_functor,
                        id_morphism, induced_on_cohomology)
from .linalg import Echelon, Matrix, combine, sparse_kernel
from .path_algebra import (PathAlgebra, module_hom_space,
                           require_tensor_relations)
from .quiver import Path
from .repcat import hom_space, simple_object, unit_object
from .spectrum import prime_at


class ReconstructionError(ValueError):
    pass


@dataclass(frozen=True)
class RationalPoint:
    """The k-point attached to a vertex: a complex goes to its graded
    cohomology at that vertex."""

    vertex: str

    def evaluate(self, cx):
        return eval_functor(cx, self.vertex)


@dataclass
class RationalPointsReport:
    points: list
    distinguishing_matrix: list   # [F_n(U(m)) total dim]_{n, m}
    identity_pattern: bool
    kernels_are_primes: bool


def rational_points(alg):
    """One point per vertex of the path algebra `alg`, certified pairwise
    distinct by evaluating on the simple objects, with each kernel matched
    against the corresponding prime ideal on those probes."""
    require_tensor_relations(alg)
    quiver = alg.quiver
    points = [RationalPoint(n) for n in quiver.vertices]
    simples = {m: BoundedComplex.from_representation(simple_object(quiver, m, alg.field))
               for m in quiver.vertices}
    values = [[point.evaluate(simples[m]) for m in quiver.vertices]
              for point in points]
    grid = [[h.total_dim for h in row] for row in values]
    ident = all(grid[i][j] == (1 if quiver.vertices[i] == quiver.vertices[j] else 0)
                for i in range(len(grid)) for j in range(len(grid)))
    kernels_ok = True
    for n, row in zip(quiver.vertices, values):
        p_n = prime_at(quiver, n)
        for m, h in zip(quiver.vertices, row):
            in_kernel = h.is_zero()
            in_prime = m in p_n.support_bound
            if in_kernel != in_prime:
                kernels_ok = False
    return RationalPointsReport(points, grid, ident, kernels_ok)


@dataclass
class PhiTransformation:
    """The natural transformation F_n => F_m induced by an algebra element
    supported on paths from n to m, acting on cohomology through the
    arrow matrices."""

    alg: object
    source_vertex: str
    target_vertex: str
    element: dict      # {basis index: coefficient}

    def action_terms(self):
        return [(c, self.alg.basis[i]) for i, c in self.element.items()]

    def on_complex(self, cx):
        """Per-degree matrices H(V)_n -> H(V)_m in the chosen bases."""
        n, m = self.source_vertex, self.target_vertex
        field = cx.field
        terms = self.action_terms()

        def act_on(t):
            act = t.element_action(terms)
            if act is None:
                act = Matrix.zeros(t.dims[m], t.dims[n], field)
            return act

        if not cx.differentials:
            # cohomology is the complex itself; bases are the standard ones
            return {i: act_on(t) for i, t in cx.terms.items()}
        h_n = cohomology_at(cx, n)
        h_m = cohomology_at(cx, m)
        return {i: induced_on_cohomology(act_on(cx.term(i)), h_n, h_m, i)
                for i in h_n.representatives}


def phi(alg, element, source_vertex=None, target_vertex=None):
    """Wrap an element of e_n Lambda e_m as a natural transformation."""
    pairs = {alg.pair_of[i] for i in element if element[i]}
    if source_vertex is None or target_vertex is None:
        if len(pairs) != 1:
            raise ReconstructionError(
                "element is not homogeneous; pass source and target vertices")
        (source_vertex, target_vertex), = pairs
    elif any(p != (source_vertex, target_vertex) for p in pairs):
        raise ReconstructionError("element not supported on the stated pair")
    return PhiTransformation(alg, source_vertex, target_vertex, dict(element))


def psi(alg, n, m, image):
    """The module homomorphism M_m -> M_n whose generator image is `image`,
    {basis index: c}, evaluated at the trivial path: that image, which
    must lie in e_n Lambda e_m."""
    out = {gi: c for gi, c in image.items() if c}
    if any(alg.pair_of[gi] != (n, m) for gi in out):
        raise ReconstructionError(
            "module map image of the generator lies outside e_n Lambda e_m")
    return out


class ProbeEvaluator:
    """Evaluates transformations on the degree-zero projective probes M_n
    by pushing sparse vectors {basis index: c} through them, one arrow at
    a time; no matrix is formed, and every sum of pushed vectors but a
    single term with coefficient one (see below) is one `linalg.combine`.

    `walk(x, j)` is the basis class x of a probe pushed along the word of
    the basis class j.  It is cached per (x, j): the start class belongs
    to the key, since one class j acts on every class that ends where j
    starts.  Basis paths are closed under prefixes, so each entry is one
    arrow step (`PathAlgebra.arrow_step`) from the entry of j's prefix,
    which `word_index` finds by its word (`idempotent_index` if it is
    trivial).  The image of the generator e_n under i is walk(e_n, i); the
    second step of `compose` walks each class of the first image along
    each class of the second element.

    Images come from arrow steps alone, the arrow action of the probe,
    never from `product_indices` on two whole classes.  An arrow step is
    the algebra's memoised normal form of a basis path followed by one
    arrow.  `PathAlgebra.product` reads the normal form of the joined word
    of two classes, which `_nf_word` folds along the tail of that word;
    `walk` folds the arrow steps along j's arrows, starting from x.  So
    comparing `compose` with `product` compares two folds over one memo
    of arrow steps: it sees a fault in either fold, but not a wrong
    Groebner basis, which both folds read alike.

    The checks of `assemble_A` evaluate one basis class with coefficient
    one at a time.  For such an input the sum is a single cached walk,
    whose keys ascend and whose values are nonzero field elements, so
    `combine` would return an equal dict: `_on_generator` returns the
    shared walk, and `yoneda` and `compose` a copy of it, never the cached
    dict itself.  Every other input is one `combine`."""

    def __init__(self, alg):
        self.alg = alg
        self._walks = {}

    def walk(self, x, j):
        """The basis class x, which ends where basis class j starts, pushed
        along the arrows of j's word, as {basis index: c}.  The dict is
        cached and shared, so callers must not change it."""
        key = (x, j)
        out = self._walks.get(key)
        if out is None:
            alg = self.alg
            p = alg.basis[j]
            if p.is_trivial:
                out = {x: alg.field.one}
            else:
                head, last = p.arrows[:-1], p.arrows[-1]
                prefix = (alg.word_index[head] if head
                          else alg.idempotent_index[p.source])
                out = combine(((c, alg.arrow_step(y, last))
                               for y, c in self.walk(x, prefix).items()),
                              alg.field)
            self._walks[key] = out
        return out

    def generator_image(self, n, i):
        """Where basis class i, which starts at n, sends the generator e_n
        of the probe M_n, as {basis index: c}; shared, like `walk`."""
        return self.walk(self.alg.idempotent_index[n], i)

    def _on_generator(self, elem, n):
        """The image of e_n under elem, which starts at n.  It may be the
        shared `generator_image`, so callers must not change it."""
        if len(elem) == 1:
            (i, c), = elem.items()
            # one class with coefficient one: `combine` of the cached
            # walk, which is canonical, equals the walk itself.  Skipping
            # that `combine` is part of a 13% cut of `reconstruct-f101`
            # `wall_s` (see `compose`)
            if c == 1:
                return self.generator_image(n, i)
        return combine(((c, self.generator_image(n, i))
                        for i, c in elem.items()), self.alg.field)

    def yoneda(self, elem, n):
        """Coordinates of elem: F_n => F_m, read off its image of e_n."""
        return dict(self._on_generator(elem, n))

    def compose(self, elem1, n, elem2):
        """Coordinates of the composite action of elem1: F_n => F_m then
        elem2: F_m => F_l on the probe M_n."""
        first = self._on_generator(elem1, n)
        if len(first) == 1 and len(elem2) == 1:
            (x, a), = first.items()
            (j, c), = elem2.items()
            # the one term has coefficient c * a == 1, so `combine` would
            # add the cached walk, canonical already, without multiplying
            # it, and return an equal dict: the copy is exact.  Over F_p
            # a product congruent to 1 but not equal to it (2 * 51 in
            # F_101) still goes to `combine`, which reduces it.  With the
            # same paths in `_on_generator`, `PathAlgebra.product` and
            # `Echelon.add`, `reconstruct-f101` `wall_s` fell 17.21 ->
            # 14.92 ms (better in 10/10 alternating pairs of 20 s
            # perfbench runs, Python 3.11.7, 2-core x86-64 Xeon)
            if c * a == 1:
                return dict(self.walk(x, j))
        return combine(((c * a, self.walk(x, j))
                        for j, c in elem2.items() for x, a in first.items()),
                       self.alg.field)


def yoneda_coordinates(alg, transform):
    """Coordinates of a natural transformation F_n => F_m, read off from
    its action on the projective probe M_n placed in degree zero."""
    return ProbeEvaluator(alg).yoneda(transform.element,
                                      transform.source_vertex)


@dataclass
class NatTransSpace:
    source_vertex: str
    target_vertex: str
    basis: list        # of element dicts {basis index: coefficient}
    hom_route_dimension: int

    @property
    def dimension(self):
        return len(self.basis)


@dataclass
class IsomorphismVerdict:
    dimensions_match: bool
    round_trip_identity: bool
    structure_constants_match: bool

    @property
    def isomorphic(self):
        return (self.dimensions_match and self.round_trip_identity
                and self.structure_constants_match)


@dataclass
class ReconstructedAlgebra:
    algebra: PathAlgebra
    components: dict          # (n, m) -> NatTransSpace
    verdict: IsomorphismVerdict

    @property
    def dim(self):
        return sum(c.dimension for c in self.components.values())


def assemble_A(alg):
    """Build every transformation space of the path algebra `alg` by two
    routes, compose the transformations on probes, and compare the
    resulting structure constants with the algebra's.  Exact equality
    throughout; refuses non-tensor relations."""
    require_tensor_relations(alg)
    components = {}
    module_maps = {}
    dims_ok = True
    for n in alg.quiver.vertices:
        for m in alg.quiver.vertices:
            route1 = [{i: alg.field.one} for i in alg.pair_indices.get((n, m), [])]
            route2 = module_maps[(n, m)] = module_hom_space(alg, n, m)
            if len(route1) != len(route2):
                dims_ok = False
            components[(n, m)] = NatTransSpace(n, m, route1, len(route2))

    evaluator = ProbeEvaluator(alg)

    # round trip through the probe evaluation, and psi sends the module
    # maps of route 2 to the basis of route 1, map for map
    round_trip = True
    for (n, m), space in components.items():
        for elem in space.basis:
            if evaluator.yoneda(elem, n) != elem:
                round_trip = False
        try:
            images = [psi(alg, n, m, f) for f in module_maps[(n, m)]]
        except ReconstructionError:   # a module map outside e_n Lambda e_m
            images = None
        if images != space.basis:
            round_trip = False

    # structure constants of the composition product vs the path algebra
    constants_ok = True
    for (n, m), space in components.items():
        for (m2, _), space2 in components.items():
            if m2 != m:
                continue
            for elem in space.basis:
                for elem2 in space2.basis:
                    composed = evaluator.compose(elem, n, elem2)
                    expected = alg.product(elem, elem2)
                    if composed != expected:
                        constants_ok = False
    verdict = IsomorphismVerdict(dims_ok, round_trip, constants_ok)
    return ReconstructedAlgebra(alg, components, verdict)


@dataclass
class CenterReport:
    center_basis: list        # element dicts spanning Z(A)
    center_dimension: int
    end_unit_dimension: int
    z_images: list            # image of each End(U) basis morphism in A
    z_lands_in_center: bool
    z_is_unital_ring_map: bool

    @property
    def dimensions_match(self):
        return self.center_dimension == self.end_unit_dimension


def z_image(alg, f):
    """The image in the algebra of a unit endomorphism f: the combination
    of trivial paths e_v weighted by the scalars f acts by at each vertex."""
    elem = {}
    for v in alg.quiver.vertices:
        c = f.components[v].entries[0][0]
        if c:
            elem[alg.idempotent_index[v]] = c
    return elem


def _commutant(alg, unknowns, generators):
    """Kernel basis, in the coordinates y, of x = sum y_r * unknowns[r]
    commuting with every element of `generators`: one `sparse_kernel`
    group per generator b, whose terms are the structure constants of
    x * b - b * x, so the rows are filled without a `combine` per
    unknown.  A zero product, as of two classes that do not compose, gives
    no term."""
    def commutator(b):
        for r, x in enumerate(unknowns):
            for i, cx in x.items():
                for j, cb in b.items():
                    p = alg.product_indices(i, j)
                    if p:
                        yield r, cx * cb, p
                    p = alg.product_indices(j, i)
                    if p:
                        yield r, -(cx * cb), p

    return sparse_kernel(len(unknowns), alg.field, map(commutator, generators))


def center_and_z(assembled):
    """The center of the assembled algebra, the endomorphisms of the unit
    object over the algebra's quiver and field, and the comparison map
    between them.

    The center is the commutant of the idempotents and the arrow classes.
    For a basis class x from s to t, e_v * x - x * e_v is
    ([v = s] - [v = t]) * x, so the commutant of the idempotents is
    spanned by the classes with s = t, read off `pair_of` in ascending
    order; it is the kernel basis of the idempotents' system.  Only the
    arrow commutators are solved, in unknowns over those classes alone,
    and the kernel basis mapped back is that of the one combined system.

    A unit endomorphism has one scalar per vertex (constant on connected
    components); transporting it through the unit isomorphisms makes it
    act on the value of each point functor as that vertex's scalar, so its
    image in the algebra is the matching combination of trivial paths."""
    alg = assembled.algebra
    quiver, field, d = alg.quiver, alg.field, alg.dim

    arrows = [alg.nf_path(Path.from_arrows([a])) for a in quiver.arrows]
    diagonal = [i for i, (s, t) in enumerate(alg.pair_of) if s == t]
    center_basis = [{diagonal[r]: c for r, c in y.items()}
                    for y in _commutant(alg, [{i: field.one} for i in diagonal],
                                        arrows)]

    unit = unit_object(quiver, field)
    end_u = hom_space(unit, unit)

    center_span = Echelon(d, field)
    for v in center_basis:
        center_span.add(v)

    z_images = [z_image(alg, f) for f in end_u]
    in_center = all(center_span.contains(elem) for elem in z_images)

    # ring map: multiplicative on the End(U) basis, and sends id_U to 1
    ring_ok = all(
        alg.product(z_images[i], z_images[j]) == z_image(alg, f.compose(g))
        for i, f in enumerate(end_u) for j, g in enumerate(end_u))
    if z_image(alg, id_morphism(unit)) != alg.unit():
        ring_ok = False

    return CenterReport(center_basis, len(center_basis), len(end_u),
                        z_images, in_center, ring_ok)
