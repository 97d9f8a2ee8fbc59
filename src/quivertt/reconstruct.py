"""Recovering the path algebra with relations from the derived tensor
category: evaluation functors as k-points, natural transformations
between them, the verdict that the algebra they assemble is kQ/(R), its
center, and the mutually inverse comparison maps with kQ/(R).

The algebra is reconstructed by two routes, and `assemble_A` compares
them.  One is the quotient kQ/(R) of `path_algebra`, read off a reduced
Groebner basis of the relation ideal.  The other is the probes M_n =
e_n kQ/(R), the projective right modules, built as representations from
the quiver and the relations alone (`repcat.Probe`), so that a wrong
Groebner basis whose rules still pass the quotient's certificate shows as
a disagreement.  The algebra A is the quotient's basis classes, so
`assemble_A` returns only its verdict, the dimension of A is
`PathAlgebra.dim`, and `center_and_z` reads the quotient.  By Yoneda the
transformations F_n => F_m are Hom(M_m, M_n) = M_n(m), and a basis class
acts on a probe by pushing its generator along the class's word, which
`assemble_A` does one arrow at a time from the vector of the class's
prefix.  The quotient side reads basis indices only: a product of two
classes and an arrow step are each one index, walked through the step
table that the certified rules fill (`PathAlgebra.product_indices`,
`arrow_step`), the class of an arrow is its step from the idempotent of
its source, and only `PathAlgebra.product` and the probe evaluator sum.

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
from .linalg import Echelon, Matrix, combine, sparse_kernel
from .path_algebra import require_tensor_relations
from .repcat import Probe, simple_object
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
    """One point per vertex of the presentation `alg`, certified pairwise
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
    basis = alg.basis
    pairs = {(basis[i].source, basis[i].target) for i in element if element[i]}
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
    basis = alg.basis
    if any((basis[gi].source, basis[gi].target) != (n, m) for gi in out):
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
                                            alg.field, n)
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
        """The coordinates of elem: F_n => F_m, read off its image of e_n."""
        return self._classes(n, self._push(n, {(): self.alg.field.one}, elem))

    def compose(self, elem1, n, elem2):
        """The coordinates of the composite action of elem1: F_n => F_m then
        elem2: F_m => F_l on the probe M_n."""
        first = self._push(n, {(): self.alg.field.one}, elem1)
        return self._classes(n, self._push(n, first, elem2))


def yoneda_coordinates(evaluator, transform):
    """The coordinates of a natural transformation F_n => F_m, read off
    its action on the projective probe M_n of the `ProbeEvaluator`
    `evaluator`, which builds each probe once."""
    return evaluator.yoneda(transform.element, transform.source_vertex)


@dataclass
class IsomorphismVerdict:
    dimensions_match: bool
    round_trip_identity: bool
    structure_constants_match: bool

    @property
    def isomorphic(self):
        return (self.dimensions_match and self.round_trip_identity
                and self.structure_constants_match)


def assemble_A(alg):
    """The `IsomorphismVerdict` of the path algebra `alg`, the quotient
    read off its Groebner basis, against the probes M_n = e_n kQ/(R)
    built from the quiver and the relations alone (`Probe`).  The
    transformations F_n => F_m are the basis classes of e_n kQ/(R) e_m; by
    Yoneda, Hom(M_m, M_n) is M_n(m), since M_m is projective, and a class
    x from n to m acts on the probe by sending the generator e_n along x's
    word: x's vector.  The basis words are closed under prefixes, and a
    prefix comes earlier in basis order, so each class's vector is its
    prefix class's vector pushed along its last arrow (`Probe.walk`): one
    arrow per class.  Exact equality throughout; refuses non-tensor
    relations.

    - `dimensions_match`: dim e_n kQ/(R) e_m is dim M_n(m) for every pair.
    - `round_trip_identity`: the word of every basis class is a basis
      word of its probe, and the generator pushed along that word is that
      word's own basis vector.
    - `structure_constants_match`: for every basis class x and arrow a out
      of x's target, the probe action of a on x's vector is the vector of
      the class `alg.arrow_step(x, a)`.  The basis words are closed under
      prefixes, and the product of two classes is the class of the joined
      word, walked one arrow step at a time.  So, since the algebra is
      associative, phi(x * y) = phi(x) * phi(y) for every pair, by
      induction on the length of y, and the idempotents act as the
      identity of their vertex on both sides."""
    require_tensor_relations(alg)
    vertices = alg.quiver.vertices
    probe = {n: Probe(alg.quiver, alg.relations, alg.field, n)
             for n in vertices}
    dims_ok = all(alg.dim_pair(n, m) == probe[n].dim(m)
                  for n in vertices for m in vertices)

    round_trip = constants_ok = True
    one, basis, word_index = alg.field.one, alg.basis, alg.word_index
    vectors = []
    for x, p in enumerate(basis):
        n, w = p.source, p.arrows
        if w:
            prefix = (word_index[w[:-1]] if len(w) > 1
                      else alg.idempotent_index[n])
            vec = probe[n].walk(w[-1:], vectors[prefix])
        else:
            vec = {(): one}
        vectors.append(vec)
        if vec != {w: one}:
            round_trip = False
        for a in alg.quiver.arrows_from(p.target):
            step = basis[alg.arrow_step(x, a.label)]
            if probe[n].act(vec, a.label) != {step.arrows: one}:
                constants_ok = False
    return IsomorphismVerdict(dims_ok, round_trip, constants_ok)


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


def z_image(alg, vertices):
    """The image in the algebra of the unit endomorphism that is 1 at
    `vertices` and 0 elsewhere: the sum of their trivial paths e_v."""
    return dict.fromkeys(sorted(alg.idempotent_index[v] for v in vertices),
                         alg.field.one)


def _commutant(alg, unknowns, generators):
    """Kernel basis, in the coordinates y, of x = sum y_r * (basis class
    unknowns[r]) commuting with every basis class of `generators`: one
    `sparse_kernel` group per generator b, whose terms are the classes
    of x * b - b * x, so the rows are filled without a `combine` per
    unknown.  Two classes compose only where one ends and the other
    starts, so a group visits only the unknowns that end where b starts
    and those that start where b ends."""
    one, basis = alg.field.one, alg.basis
    ending, starting = {}, {}
    for r, i in enumerate(unknowns):
        ending.setdefault(basis[i].target, []).append((r, i))
        starting.setdefault(basis[i].source, []).append((r, i))

    def commutator(b):
        p = basis[b]
        for r, i in ending.get(p.source, ()):
            yield r, one, {alg.product_indices(i, b): one}
        for r, i in starting.get(p.target, ()):
            yield r, -one, {alg.product_indices(b, i): one}

    return sparse_kernel(len(unknowns), alg.field, map(commutator, generators))


def center_and_z(alg):
    """The center of the algebra `alg`, the endomorphisms of the unit
    object over its quiver and field, and the comparison map between them.

    The center is the commutant of the idempotents and the arrow classes.
    For a basis class x from s to t, e_v * x - x * e_v is
    ([v = s] - [v = t]) * x, so the commutant of the idempotents is
    spanned by the classes with s = t, in ascending order; it is the
    kernel basis of the idempotents' system.  The quiver has no oriented
    cycle, so the only class from a vertex to itself is its trivial path:
    those classes are the idempotents.  Only the arrow commutators are
    solved, in unknowns over the idempotents alone, and the kernel basis
    mapped back is that of the one combined system.

    The unit U is k at every vertex with identity arrows, so a map
    U -> U is natural exactly when its scalars at the two ends of every
    arrow agree: End(U) is k^pi0(Q), with the indicators of the connected
    components for basis, orthogonal idempotents that sum to 1.  Through
    the unit isomorphisms an indicator acts on the value of each point
    functor by its scalar at that vertex, so its image in the algebra is
    the sum of the trivial paths of its component (`z_image`).  The
    ring-map check multiplies those images, and the center membership is
    tested against the commutant's span, so both can fail."""
    quiver, field, d = alg.quiver, alg.field, alg.dim

    idempotent = alg.idempotent_index
    arrows = [alg.arrow_step(idempotent[a.source], a.label)
              for a in quiver.arrows]
    diagonal = sorted(idempotent.values())
    center_basis = [{diagonal[r]: c for r, c in y.items()}
                    for y in _commutant(alg, diagonal, arrows)]

    center_span = Echelon(d, field)
    for v in center_basis:
        center_span.add(v)

    z_images = [z_image(alg, c) for c in quiver.undirected_components()]
    in_center = all(center_span.contains(elem) for elem in z_images)

    # ring map: the images are orthogonal idempotents, and the indicator
    # of every vertex, id_U, goes to 1
    ring_ok = all(alg.product(zi, zj) == (zi if i == j else {})
                  for i, zi in enumerate(z_images)
                  for j, zj in enumerate(z_images))
    if z_image(alg, quiver.vertices) != alg.unit():
        ring_ok = False

    return CenterReport(center_basis, len(center_basis), len(z_images),
                        z_images, in_center, ring_ok)
