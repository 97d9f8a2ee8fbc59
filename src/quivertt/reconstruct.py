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

from .fields import QQ
from .complexes import (BoundedComplex, cohomology_at, cohomology_coordinates,
                        eval_functor)
from .linalg import Echelon, Matrix, kernel_basis
from .path_algebra import PathAlgebra, checked_algebra, module_hom_space
from .repcat import hom_space, module_representation, simple_object, unit_object
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


def rational_points(quiver, relations, field=QQ):
    """One point per vertex, certified pairwise distinct by evaluating on
    the simple objects, with each kernel matched against the
    corresponding prime ideal on those probes."""
    checked_algebra(quiver, relations, field)
    points = [RationalPoint(n) for n in quiver.vertices]
    simples = {m: BoundedComplex.from_representation(simple_object(quiver, m, field))
               for m in quiver.vertices}
    grid = [[points[i].evaluate(simples[m]).total_dim
             for m in quiver.vertices]
            for i, _ in enumerate(quiver.vertices)]
    ident = all(grid[i][j] == (1 if quiver.vertices[i] == quiver.vertices[j] else 0)
                for i in range(len(grid)) for j in range(len(grid)))
    kernels_ok = True
    for i, n in enumerate(quiver.vertices):
        p_n = prime_at(quiver, n)
        for m in quiver.vertices:
            in_kernel = points[i].evaluate(simples[m]).is_zero()
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
        out = {}
        for i, reps in h_n.representatives.items():
            act = act_on(cx.term(i))
            rows = h_m.dims.get(i, 0)
            cols = []
            for r in reps:
                coord = tuple(cohomology_coordinates(cx, m, h_m, i, act.apply(r)))
                cols.append(coord if len(coord) == rows else (field.zero,) * rows)
            out[i] = Matrix.from_columns(cols, field, rows=rows)
        return out


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
    """Evaluates transformations on the degree-zero projective probes,
    caching the probe representations and the per-strand action matrices
    of each basis class (computed through composite arrow matrices, not
    the structure constants, so the comparison stays two-route)."""

    def __init__(self, alg):
        self.alg = alg
        self._probes = {}
        self._actions = {}

    def probe(self, n):
        if n not in self._probes:
            self._probes[n] = module_representation(self.alg, n)
        return self._probes[n]

    def action(self, n, i):
        """Matrix of basis class i acting on the probe M_n, from the
        strand at its source vertex to the strand at its target."""
        key = (n, i)
        if key not in self._actions:
            self._actions[key] = self.probe(n).path_action(self.alg.basis[i])
        return self._actions[key]

    def apply_element(self, n, elem, source_vertex, target_vertex):
        t = self.probe(n)
        out = Matrix.zeros(t.dims[target_vertex], t.dims[source_vertex],
                           self.alg.field)
        for i, c in elem.items():
            out = out + self.action(n, i).scale(c)
        return out

    def _generator_column(self, n):
        basis_n = self.alg.pair_indices.get((n, n), [])
        return basis_n.index(self.alg.idempotent_index[n])

    def _to_element(self, n, m, col):
        basis_m = self.alg.pair_indices.get((n, m), [])
        return {gi: col[k] for k, gi in enumerate(basis_m) if col[k]}

    def yoneda(self, elem, n, m):
        mat = self.apply_element(n, elem, n, m)
        col = mat.column(self._generator_column(n))
        return self._to_element(n, m, col)

    def compose(self, elem1, n, m, elem2, l):
        """Coordinates of the composite action of elem1: F_n => F_m then
        elem2: F_m => F_l on the probe M_n."""
        first = self.apply_element(n, elem1, n, m)
        second = self.apply_element(n, elem2, m, l)
        col = second.apply(first.column(self._generator_column(n)))
        return self._to_element(n, l, col)


def yoneda_coordinates(alg, transform):
    """Coordinates of a natural transformation F_n => F_m, read off from
    its action on the projective probe M_n placed in degree zero."""
    return ProbeEvaluator(alg).yoneda(transform.element,
                                      transform.source_vertex,
                                      transform.target_vertex)


def compose_on_probe(alg, first, second):
    """Yoneda coordinates of (second o first) for first: F_n => F_m and
    second: F_m => F_l, evaluated on the probe M_n."""
    return ProbeEvaluator(alg).compose(first.element, first.source_vertex,
                                       first.target_vertex, second.element,
                                       second.target_vertex)


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


def assemble_A(quiver, relations, field=QQ):
    """Build every transformation space by two routes, compose the
    transformations on probes, and compare the resulting structure
    constants with the path algebra's.  Exact equality throughout."""
    alg = checked_algebra(quiver, relations, field)
    components = {}
    dims_ok = True
    for n in quiver.vertices:
        for m in quiver.vertices:
            route1 = [{i: field.one} for i in alg.pair_indices.get((n, m), [])]
            route2 = module_hom_space(alg, n, m)
            if len(route1) != len(route2):
                dims_ok = False
            components[(n, m)] = NatTransSpace(n, m, route1, len(route2))

    evaluator = ProbeEvaluator(alg)

    # round trip through the probe evaluation and through module maps
    round_trip = True
    for (n, m), space in components.items():
        for elem in space.basis:
            if evaluator.yoneda(elem, n, m) != elem:
                round_trip = False
        for f in module_hom_space(alg, n, m):
            back = psi(alg, n, m, f)
            if evaluator.yoneda(back, n, m) != back:
                round_trip = False

    # structure constants of the composition product vs the path algebra
    constants_ok = True
    for (n, m), space in components.items():
        for (m2, l), space2 in components.items():
            if m2 != m:
                continue
            for elem in space.basis:
                for elem2 in space2.basis:
                    composed = evaluator.compose(elem, n, m, elem2, l)
                    expected = alg.product(elem, elem2)
                    if composed != expected:
                        constants_ok = False
    verdict = IsomorphismVerdict(dims_ok, round_trip, constants_ok)
    return ReconstructedAlgebra(quiver, alg, components, verdict)


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


def center_and_z(quiver, relations, assembled, field=QQ):
    """The center of the assembled algebra, the endomorphisms of the unit
    object, and the comparison map between them.

    A unit endomorphism has one scalar per vertex (constant on connected
    components); transporting it through the unit isomorphisms makes it
    act on the value of each point functor as that vertex's scalar, so its
    image in the algebra is the matching combination of trivial paths."""
    alg = assembled.algebra
    d = alg.dim

    # center: solve x * b - b * x = 0 against every basis class
    rows = []
    for b in range(d):
        blocks = {}   # output basis index -> linear form in the unknowns
        for i in range(d):
            for gi, c in alg.product_indices(i, b).items():
                row = blocks.setdefault(gi, [field.zero] * d)
                row[i] = row[i] + c
            for gi, c in alg.product_indices(b, i).items():
                row = blocks.setdefault(gi, [field.zero] * d)
                row[i] = row[i] - c
        rows.extend(r for r in blocks.values() if any(r))
    sys_mat = Matrix.from_rows(rows, field, cols=d) if rows \
        else Matrix.zeros(0, d, field)
    center_vecs = kernel_basis(sys_mat)
    center_basis = [{i: v[i] for i in range(d) if v[i]} for v in center_vecs]

    unit = unit_object(quiver, field)
    end_u = hom_space(unit, unit)

    center_span = Echelon(d, field)
    for v in center_vecs:
        center_span.add(v)

    def to_vector(elem):
        out = [field.zero] * d
        for i, c in elem.items():
            out[i] = c
        return out

    z_images = []
    in_center = True
    for f in end_u:
        elem = {}
        for v in quiver.vertices:
            c = f.components[v].entries[0][0]
            if c:
                elem[alg.idempotent_index[v]] = c
        z_images.append(elem)
        if not center_span.contains(to_vector(elem)):
            in_center = False

    # ring map: multiplicative on the End(U) basis, and sends id_U to 1
    ring_ok = True
    for i, f in enumerate(end_u):
        for j, g in enumerate(end_u):
            fg = f.compose(g)
            elem_fg = {}
            for v in quiver.vertices:
                c = fg.components[v].entries[0][0]
                if c:
                    elem_fg[alg.idempotent_index[v]] = c
            if alg.product(z_images[i], z_images[j]) != elem_fg:
                ring_ok = False
    # the identity endomorphism of the unit must land on the algebra unit
    img_id = {alg.idempotent_index[v]: field.one for v in quiver.vertices}
    if img_id != alg.unit():
        ring_ok = False

    return CenterReport(center_basis, len(center_basis), len(end_u),
                        z_images, in_center, ring_ok)
