"""The prime-ideal spectrum of the derived tensor category of a finite
ordered quiver with tensor relations: points, Zariski topology, structure
sheaf sections and the finer presheaf sections over full subquivers.

Thick tensor ideals are encoded by their support bound: the subset S of
vertices such that the ideal consists of all complexes whose cohomology is
concentrated on S.  Supports are a complete invariant here, which is what
makes this finite encoding possible.

Both kinds of sections are algebras k^n, read off the quiver rather than
solved for: the sheaf has one factor per point of the open set, and the
presheaf one per connected component of the full subquiver, since the
endomorphisms of the unit there are the scalars constant on each
component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import support
from .path_algebra import compatibility, require_tensor_relations
from .quiver import QuiverError, full_subquiver


class IncompatibleSubquiver(ValueError):
    def __init__(self, result, field):
        self.result = result
        bar = ", ".join(g.pretty(field) for g in result.r_bar)
        super().__init__(
            f"subquiver incompatible with relations (r-bar = {{{bar}}})")


@dataclass(frozen=True)
class IdealDescriptor:
    quiver: object
    support_bound: frozenset

    def __post_init__(self):
        object.__setattr__(self, "support_bound", frozenset(self.support_bound))
        for v in self.support_bound:
            if v not in self.quiver.vertices:
                raise QuiverError(f"unknown vertex {v!r}")

    @property
    def is_zero(self):
        return not self.support_bound


def ideal_of(objects, quiver=None):
    """Descriptor of the smallest thick tensor ideal containing the given
    complexes: its support bound is the union of their supports."""
    objects = list(objects)
    if quiver is None:
        quiver = objects[0].quiver
    bound = frozenset()
    for cx in objects:
        bound = bound | support(cx)
    return IdealDescriptor(quiver, bound)


def contains(descriptor, cx):
    return support(cx) <= descriptor.support_bound


def prime_at(quiver, n):
    """The prime ideal of complexes with vanishing cohomology at n."""
    if n not in quiver.vertices:
        raise QuiverError(f"unknown vertex {n!r}")
    return IdealDescriptor(quiver, frozenset(quiver.vertices) - {n})


@dataclass
class SpectrumPoint:
    vertex: str
    descriptor: IdealDescriptor


@dataclass
class SpectrumReport:
    quiver: object
    points: list
    topology: str = "discrete"
    closed_sets: dict = None     # label -> sorted vertex list, for supplied object lists

    @property
    def point_count(self):
        return len(self.points)


def closed_set(quiver, objects):
    """Z(S): points whose prime misses every object of S, realized as the
    intersection of the supports."""
    verts = frozenset(quiver.vertices)
    for cx in objects:
        verts = verts & support(cx)
    return verts


def spc(alg, object_lists=None):
    """Points and topology of the spectrum of the path algebra `alg`;
    refuses non-tensor relations.

    `object_lists` may map labels to lists of complexes; each gets its
    Zariski-closed set Z(S) in the report, cross-checked against the
    support intersection pointwise."""
    require_tensor_relations(alg)
    quiver = alg.quiver
    points = [SpectrumPoint(n, prime_at(quiver, n)) for n in quiver.vertices]
    closed = {}
    if object_lists:
        for label, objs in object_lists.items():
            via_z = frozenset(
                p.vertex for p in points
                if all(not contains(p.descriptor, cx) for cx in objs))
            via_supp = closed_set(quiver, objs)
            if via_z != via_supp:
                raise AssertionError("Z(S) disagrees with support intersection")
            closed[label] = sorted(via_z)
    return SpectrumReport(quiver, points, "discrete", closed)


@dataclass
class AlgebraSections:
    open_set: tuple
    dimension: int
    basis_labels: list
    multiplication: list   # table[i][j] = coefficient list over the basis
    kind: str              # "sheaf" or "presheaf"
    components: list = None   # for presheaf: the pi0 blocks of the subquiver


def _idempotent_table(n):
    """The structure constants of k^n on its orthogonal idempotents
    e_0, ..., e_{n-1}: table[i][j] lists the coefficients of e_i e_j,
    which is e_i when i = j and 0 otherwise."""
    return [[[int(i == j == k) for k in range(n)] for j in range(n)]
            for i in range(n)]


def sheaf_sections(alg, open_set):
    """Sections of the structure sheaf over an open set: the product over
    its points of the endomorphisms of the unit on the one-vertex
    subquiver, i.e. the constant sheaf with stalk k.  Nothing is computed
    per point: a one-vertex subquiver of an ordered quiver has no arrows
    (no loops), so the unit there is k and its endomorphisms are k."""
    require_tensor_relations(alg)
    _, opens, _ = full_subquiver(alg.quiver, open_set)
    n = len(opens)
    return AlgebraSections(tuple(opens), n, [f"1_{v}" for v in opens],
                           _idempotent_table(n), "sheaf")


def presheaf_sections(alg, open_set):
    """Endomorphisms of the unit over the full subquiver on the open set.

    This computes sections before sheafification; it requires the
    subquiver to be compatible with the relations and refuses otherwise,
    returning the witness pair (R cap Q', R-bar).  Once it is compatible,
    the unit there is k at every vertex with identity arrows, so its
    endomorphisms are the scalars constant on each connected component:
    k^pi0 of the subquiver, one idempotent per component."""
    require_tensor_relations(alg)
    field = alg.field
    comp = compatibility(alg.quiver, alg.relations, open_set, field)
    if not comp.compatible:
        raise IncompatibleSubquiver(comp, field)
    sub = comp.subquiver
    components = [sorted(c) for c in sub.undirected_components()]
    n = len(components)
    return AlgebraSections(tuple(sub.vertices), n,
                           [f"pi0_{i}" for i in range(n)],
                           _idempotent_table(n), "presheaf", components)


@dataclass
class QuiverMorphism:
    source: object
    target: object
    vertex_map: dict
    arrow_map: dict

    def __post_init__(self):
        for v in self.source.vertices:
            if self.vertex_map.get(v) not in self.target.vertices:
                raise QuiverError(f"vertex {v!r} has no valid image")
        for a in self.source.arrows:
            label = self.arrow_map.get(a.label)
            if label is None:
                raise QuiverError(f"arrow {a.label!r} has no image")
            b = self.target.arrow(label)
            if (b.source != self.vertex_map[a.source]
                    or b.target != self.vertex_map[a.target]):
                raise QuiverError(
                    f"arrow {a.label!r} maps incompatibly to {label!r}")


@dataclass
class SpectrumMapReport:
    point_map: dict            # source vertex -> target vertex
    injective: bool
    surjective: bool
    bijection: bool
    sheaf_sections_match: bool


def induced_spectrum_map(morphism):
    """The map on spectra induced by a quiver morphism: the point at a
    vertex goes to the point at its image.  Sheaf sections over the whole
    space match exactly when the point map is a bijection, since the
    structure sheaf is the constant sheaf k."""
    pm = {v: morphism.vertex_map[v] for v in morphism.source.vertices}
    image = set(pm.values())
    injective = len(image) == len(pm)
    surjective = image == set(morphism.target.vertices)
    bij = injective and surjective
    return SpectrumMapReport(pm, injective, surjective, bij, bij)
