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
                        induced_on_cohomology)
from .linalg import Echelon, Matrix, combine
from .path_algebra import (PathAlgebra, module_hom_space,
                           require_tensor_relations)
from .quiver import Path
from .repcat import RepMorphism, hom_space, simple_object, unit_object
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


def psi(alg, n, m, module_map):
    """Evaluate a module homomorphism M_m -> M_n at the trivial path,
    landing in e_n Lambda e_m."""
    mb_m = alg.module_basis(m)
    mb_n = alg.module_basis(n)
    e_m_pos = mb_m.index(alg.idempotent_index[m])
    col = module_map.column(e_m_pos)
    out = {}
    for k, gi in enumerate(mb_n):
        if col[k]:
            out[gi] = col[k]
    for gi in out:
        if alg.pair_of[gi] != (n, m):
            raise ReconstructionError(
                "module map image of the generator lies outside e_n Lambda e_m")
    return out


class ProbeEvaluator:
    """Evaluates transformations on the degree-zero projective probes M_n
    by pushing sparse vectors {basis index: c} through them, one arrow at
    a time; no matrix is formed, and every sum of pushed vectors is one
    `linalg.combine`.

    `walk(x, j)` is the basis class x of a probe pushed along the word of
    the basis class j.  It is cached per (x, j): the start class belongs
    to the key, since one class j acts on every class that ends where j
    starts.  Basis paths are closed under prefixes, so each entry is one
    arrow step (`PathAlgebra.arrow_step`) from the entry of j's prefix.
    The image of the generator e_n under i is walk(e_n, i); the second step
    of `compose` walks each class of the first image along each class of
    the second element.

    Images come from arrow steps alone, the arrow action of the probe,
    never from `product_indices` on two whole classes.  So comparing
    `compose` with `PathAlgebra.product` stays a comparison of two
    routes."""

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
                *head, last = p.arrows
                prefix = alg.basis_index[
                    Path(p.source, alg.quiver.arrow(last).source, tuple(head))]
                out = combine((c, alg.arrow_step(y, last))
                              for y, c in self.walk(x, prefix).items())
            self._walks[key] = out
        return out

    def generator_image(self, n, i):
        """Where basis class i, which starts at n, sends the generator e_n
        of the probe M_n, as {basis index: c}; shared, like `walk`."""
        return self.walk(self.alg.idempotent_index[n], i)

    def _on_generator(self, elem, n):
        """The image of e_n under elem, which starts at n."""
        return combine((c, self.generator_image(n, i))
                       for i, c in elem.items())

    def yoneda(self, elem, n):
        """Coordinates of elem: F_n => F_m, read off its image of e_n."""
        return self._on_generator(elem, n)

    def compose(self, elem1, n, elem2):
        """Coordinates of the composite action of elem1: F_n => F_m then
        elem2: F_m => F_l on the probe M_n."""
        first = self._on_generator(elem1, n)
        return combine((c * a, self.walk(x, j))
                       for j, c in elem2.items() for x, a in first.items())


def yoneda_coordinates(alg, transform):
    """Coordinates of a natural transformation F_n => F_m, read off from
    its action on the projective probe M_n placed in degree zero."""
    return ProbeEvaluator(alg).yoneda(transform.element,
                                      transform.source_vertex)


def compose_on_probe(alg, first, second):
    """Yoneda coordinates of (second o first) for first: F_n => F_m and
    second: F_m => F_l, evaluated on the probe M_n."""
    return ProbeEvaluator(alg).compose(first.element, first.source_vertex,
                                       second.element)


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
    quiver: object
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

    # round trip through the probe evaluation and through module maps
    round_trip = True
    for (n, m), space in components.items():
        for elem in space.basis:
            if evaluator.yoneda(elem, n) != elem:
                round_trip = False
        for f in module_maps[(n, m)]:
            back = psi(alg, n, m, f)
            if evaluator.yoneda(back, n) != back:
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
    return ReconstructedAlgebra(alg.quiver, alg, components, verdict)


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


def center_and_z(assembled):
    """The center of the assembled algebra, the endomorphisms of the unit
    object over the algebra's quiver and field, and the comparison map
    between them.

    A unit endomorphism has one scalar per vertex (constant on connected
    components); transporting it through the unit isomorphisms makes it
    act on the value of each point functor as that vertex's scalar, so its
    image in the algebra is the matching combination of trivial paths."""
    alg = assembled.algebra
    quiver, field, d = alg.quiver, alg.field, alg.dim

    # center: the x with x * b - b * x = 0 for b running over the generators,
    # the idempotents and the arrow classes; their commutant is Z(A)
    generators = [alg.idempotent(v) for v in quiver.vertices]
    generators += [alg.nf_path(Path.from_arrows([a])) for a in quiver.arrows]
    commutes = Echelon(d, field)
    for b in generators:
        # one pass fills every row; a `combine` per unknown costs more
        blocks = {}   # output basis index -> linear form {unknown: c}
        for i in range(d):
            for j, cb in b.items():
                for gi, c in alg.product_indices(i, j).items():
                    row = blocks.setdefault(gi, {})
                    row[i] = row[i] + cb * c if i in row else cb * c
                for gi, c in alg.product_indices(j, i).items():
                    row = blocks.setdefault(gi, {})
                    row[i] = row[i] - cb * c if i in row else -(cb * c)
        for row in blocks.values():
            commutes.add(row)
    center_basis = commutes.sparse_kernel_basis()

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
    id_u = RepMorphism(unit, unit, {v: Matrix.identity(1, field)
                                    for v in quiver.vertices})
    if z_image(alg, id_u) != alg.unit():
        ring_ok = False

    return CenterReport(center_basis, len(center_basis), len(end_u),
                        z_images, in_center, ring_ok)
