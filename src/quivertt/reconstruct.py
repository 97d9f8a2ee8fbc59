"""Recovering the path algebra with relations from the derived tensor
category: evaluation functors as k-points, spaces of natural
transformations between them, the assembled algebra with its composition
product, and the mutually inverse comparison maps with kQ/(R).

The algebra is reconstructed by two routes, and `assemble_A` compares
them.  One is the quotient kQ/(R) of `path_algebra`, read off a reduced
Groebner basis of the relation ideal.  The other is the probes M_n =
e_n kQ/(R), the projective right modules, built as representations from
the quiver and the relations alone (`repcat.Probe`), so that a wrong
Groebner basis shows as a disagreement.  By Yoneda the transformations
F_n => F_m are Hom(M_m, M_n) = M_n(m), and a basis class acts on a probe
by pushing its generator along the class's word.

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
from .path_algebra import PathAlgebra, require_tensor_relations
from .quiver import Path
from .repcat import Probe, hom_space, simple_object, unit_object
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
    """Evaluates transformations on the probes M_n, each a `Probe` built
    on first use.  An element acts on M_n by pushing a vector along the
    word of each of its classes (`Probe.walk`): the generator e_n for its
    image, that image for a composite.  A class acts on the part of the
    vector that ends where it starts, and kills the rest.  The image, a
    vector of basis words, is read back as basis classes by word
    (`word_index`), the trivial word by the probe's vertex
    (`idempotent_index`).  A probe word that is no basis word of the
    quotient raises ReconstructionError: the probe and the quotient
    disagree there."""

    def __init__(self, alg):
        self.alg = alg
        self._probes = {}

    def probe(self, n):
        """The probe M_n, built on first use."""
        probe = self._probes.get(n)
        if probe is None:
            alg = self.alg
            probe = self._probes[n] = Probe(alg.quiver, alg.relations,
                                            alg.field, alg.order, n)
        return probe

    def _push(self, n, vec, elem):
        """The vector `vec` of M_n, {basis word: c}, times elem."""
        alg = self.alg
        probe, quiver = self.probe(n), alg.quiver
        terms = []
        for i, c in elem.items():
            p = alg.basis[i]
            start = {x: a for x, a in vec.items()
                     if (quiver.arrow(x[-1]).target if x else n) == p.source}
            terms.append((c, probe.walk(p.arrows, start)))
        return combine(terms, alg.field)

    def _classes(self, n, vec):
        """The vector `vec` of M_n as {basis index: c}, in ascending order."""
        alg = self.alg
        out = []
        for word, c in vec.items():
            i = alg.word_index.get(word) if word else alg.idempotent_index[n]
            if i is None:
                raise ReconstructionError(
                    f"the word {'*'.join(word)} is a basis word of the probe "
                    f"M_{n} but not of the quotient")
            out.append((i, c))
        return dict(sorted(out))

    def yoneda(self, elem, n):
        """Coordinates of elem: F_n => F_m, read off its image of e_n."""
        return self._classes(n, self._push(n, {(): self.alg.field.one}, elem))

    def compose(self, elem1, n, elem2):
        """Coordinates of the composite action of elem1: F_n => F_m then
        elem2: F_m => F_l on the probe M_n."""
        first = self._push(n, {(): self.alg.field.one}, elem1)
        return self._classes(n, self._push(n, first, elem2))


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
    """Compare the path algebra `alg`, the quotient read off its Groebner
    basis, with the probes M_n = e_n kQ/(R) built from the quiver and the
    relations alone (`Probe`).  The transformations F_n => F_m are the
    basis classes of e_n kQ/(R) e_m; by Yoneda, Hom(M_m, M_n) is M_n(m),
    since M_m is projective, and a class x from n to m acts on the probe
    by sending the generator e_n along x's word.  Exact equality
    throughout; refuses non-tensor relations.

    - `dimensions_match`: dim e_n kQ/(R) e_m is dim M_n(m) for every pair.
    - `round_trip_identity`: the word of every basis class is a basis
      word of its probe, and the generator pushed along that word is that
      word's own basis vector.
    - `structure_constants_match`: for every basis class x and arrow a out
      of x's target, the probe action of a on x's vector is
      `alg.arrow_step(x, a)`.  The basis words are closed under prefixes,
      and the product of two classes is the normal form of the joined
      word, folded one arrow step at a time.  So, since the algebra is
      associative, phi(x * y) = phi(x) * phi(y) for every pair, by
      induction on the length of y, and the idempotents act as the
      identity of their vertex on both sides."""
    require_tensor_relations(alg)
    probe = {n: Probe(alg.quiver, alg.relations, alg.field, alg.order, n)
             for n in alg.quiver.vertices}
    components = {}
    dims_ok = True
    for n in alg.quiver.vertices:
        for m in alg.quiver.vertices:
            route1 = [{i: alg.field.one} for i in alg.pair_indices.get((n, m), [])]
            dim = probe[n].dim(m)
            if len(route1) != dim:
                dims_ok = False
            components[(n, m)] = NatTransSpace(n, m, route1, dim)

    round_trip = constants_ok = True
    one, basis = alg.field.one, alg.basis
    for x, p in enumerate(basis):
        n = p.source
        vec = probe[n].walk(p.arrows)
        if vec != {p.arrows: one}:
            round_trip = False
        for a in alg.quiver.arrows_from(p.target):
            step = alg.arrow_step(x, a.label)
            if (probe[n].act(vec, a.label)
                    != {basis[j].arrows: c for j, c in step.items()}):
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
