"""Finite ordered quivers: vertices, arrows, paths, relation generators.

Vertices and arrow labels are plain strings.  Path words compose left to
right: the word (a, b) means "traverse a, then b", so it is a path from
source(a) to target(b).  The trivial path at a vertex has an empty word.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass


# The most paths, trivial ones included, that a quiver may have: the path
# algebra kQ/(R), subquiver compatibility and `enumerate_paths` all refuse
# a larger quiver (`check_path_budget`).  The build lists no paths: it runs
# the Groebner basis, and every Groebner tip is a path, so the budget bounds
# it too; the basis of kQ/(R) is listed on first read.  On the Beilinson
# chains beil(2, L) (L vertices, three parallel arrows per step, every
# commutativity relation), beil(2,7) (1636 paths) takes about 0.3 ms for
# the Groebner basis and 0.5 ms for the basis listing, and beil(2,8) (4916
# paths, refused) would take about 0.3 and 0.9 ms, best of 15 runs on one
# x86-64 core with Python 3.11.
# Lifting the budget waits for a budget of its own on `reconstruct`.  Its
# checks run over the (basis class, arrow) pairs of the quotient and the
# relation images of its probes, not over pairs of classes: with the
# budget lifted, `assemble_A` took 0.15 s on P^6 = beil(6,7) (dimension
# 3003) and 0.86 s on P^7 (dimension 11440), in-process, best of 5 and 3
# runs on a 2-core x86-64 Xeon with Python 3.11.7.
MAX_PATHS = 2048


class QuiverError(ValueError):
    pass


class ResourceBudget(Exception):
    """An input is larger than a stated budget allows."""


class NotOrdered(QuiverError):
    """Raised when a quiver contains an oriented cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"oriented cycle through vertices {' -> '.join(self.cycle)}")


class _Record:
    """An immutable record of the fields named in `_fields`, kept in slots
    that the constructor sets once through their descriptors; cheaper to
    build than a frozen dataclass, which assigns each field through
    `object.__setattr__`.  Like one, it equals only a record of its own
    class with equal fields and hashes as the tuple of its fields."""

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default protocol would restore the slots through __setattr__
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields))


def _setters(cls):
    """The `__set__` of each slot descriptor of `cls`, in slot order; one
    sets that slot on an instance of `cls`, past its `__setattr__`."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


class Arrow(_Record):
    __slots__ = _fields = ("label", "source", "target")

    def __init__(self, label, source, target):
        _arrow_label(self, label)
        _arrow_source(self, source)
        _arrow_target(self, target)

    def __repr__(self):
        return (f"Arrow(label={self.label!r}, source={self.source!r}, "
                f"target={self.target!r})")


_arrow_label, _arrow_source, _arrow_target = _setters(Arrow)


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arrows", tuple(self.arrows))
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex ids")
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise QuiverError("duplicate arrow labels")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.source not in vs or a.target not in vs:
                raise QuiverError(f"arrow {a.label} has unknown endpoint")
        # lookup tables, not dataclass fields: equality and hashing still
        # see only the vertices and the arrows
        out = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a)
        object.__setattr__(self, "_out",
                           {v: tuple(arrows) for v, arrows in out.items()})
        object.__setattr__(self, "_by_label",
                           {a.label: a for a in self.arrows})
        # the admissible order, filled in by the first `admissible_order`;
        # set here so that filling it in adds no key to the instance dict
        object.__setattr__(self, "_order", None)

    def arrow(self, label):
        try:
            return self._by_label[label]
        except KeyError:
            raise QuiverError(f"unknown arrow {label!r}") from None

    def arrows_from(self, v):
        """The arrows with source v, in the order of `arrows`."""
        return self._out.get(v, ())

    def undirected_components(self):
        """Connected components of the underlying undirected graph, as a
        list of frozensets in order of first vertex."""
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a in self.arrows:
            ra, rb = find(a.source), find(a.target)
            if ra != rb:
                parent[ra] = rb
        comps = {}
        for v in self.vertices:
            comps.setdefault(find(v), []).append(v)
        return [frozenset(c) for c in sorted(comps.values(),
                                             key=lambda c: self.vertices.index(c[0]))]


def admissible_order(q):
    """Topological order of the vertices, as a new list; raises NotOrdered
    with a cycle witness if the quiver has an oriented cycle.  The order is
    computed once per quiver and kept on it."""
    order = q._order
    if order is None:
        order = _topological_order(q)
        object.__setattr__(q, "_order", order)
    return list(order)


def _topological_order(q):
    indeg = {v: 0 for v in q.vertices}
    for a in q.arrows:
        if a.source != a.target:
            indeg[a.target] += 1
        else:
            raise NotOrdered([a.source, a.target])
    ready = [v for v in q.vertices if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for a in q.arrows_from(v):
            indeg[a.target] -= 1
            if indeg[a.target] == 0:
                ready.append(a.target)
    if len(order) == len(q.vertices):
        return tuple(order)
    # walk forward inside the leftover subgraph until a vertex repeats
    left = [v for v in q.vertices if v not in set(order)]
    seen = []
    v = left[0]
    while v not in seen:
        seen.append(v)
        v = next(a.target for a in q.arrows_from(v) if a.target in left)
    cycle = seen[seen.index(v):] + [v]
    raise NotOrdered(cycle)


class Path(_Record):
    """A path from `source` to `target` whose word is `arrows`, the tuple
    of its arrow labels; the trivial path at v is (v, v, ()).  The path
    algebra finds its basis paths by word, so no library dict is keyed by
    a path, and its hash is the record's, computed on each call."""

    __slots__ = _fields = ("source", "target", "arrows")

    def __init__(self, source, target, arrows=()):
        _path_source(self, source)
        _path_target(self, target)
        _path_arrows(self, tuple(arrows))

    # a class that defines __eq__ must name its __hash__
    __hash__ = _Record.__hash__

    def __eq__(self, other):
        if other.__class__ is not Path:
            return NotImplemented
        return (self.arrows == other.arrows and self.source == other.source
                and self.target == other.target)

    @classmethod
    def trivial(cls, v):
        return cls(v, v, ())

    @classmethod
    def from_arrows(cls, arrows):
        arrows = list(arrows)
        if not arrows:
            raise QuiverError("empty arrow list; use Path.trivial")
        for a, b in zip(arrows, arrows[1:]):
            if a.target != b.source:
                raise QuiverError(
                    f"arrows {a.label} and {b.label} do not compose")
        return cls(arrows[0].source, arrows[-1].target,
                   tuple(a.label for a in arrows))

    @property
    def is_trivial(self):
        return not self.arrows

    def __len__(self):
        return len(self.arrows)

    def sort_key(self):
        return (len(self.arrows), self.arrows)

    def word(self):
        return "*".join(self.arrows) if self.arrows else f"e_{self.source}"

    def __repr__(self):
        return f"Path({self.source}->{self.target}: {self.word()})"


_path_source, _path_target, _path_arrows = _setters(Path)


def count_paths(q):
    """The number of paths of an ordered quiver, trivial ones included,
    counted without listing them: a path from v is the trivial one or an
    arrow out of v followed by a path from the arrow's target."""
    starting_at = {}
    for v in reversed(admissible_order(q)):
        starting_at[v] = 1 + sum(starting_at[a.target] for a in q.arrows_from(v))
    return sum(starting_at.values())


def check_path_budget(q):
    """Raise ResourceBudget when the ordered quiver q has more than
    MAX_PATHS paths."""
    total = count_paths(q)
    if total > MAX_PATHS:
        raise ResourceBudget(
            f"quiver has {total} paths, above the budget of {MAX_PATHS}")


def enumerate_paths(q):
    """All paths of an ordered quiver, grouped by (source, target).

    Returns (flat list sorted by (source index, target index, length, word),
    dict keyed by (source, target)).  Raises ResourceBudget, before listing
    any path, when the quiver has more than MAX_PATHS paths.
    """
    check_path_budget(q)
    order = admissible_order(q)
    pos = {v: i for i, v in enumerate(order)}
    by_pair = {}
    for v in q.vertices:
        stack = [Path.trivial(v)]
        while stack:
            p = stack.pop()
            by_pair.setdefault((p.source, p.target), []).append(p)
            for a in q.arrows_from(p.target):
                stack.append(Path(p.source, a.target, p.arrows + (a.label,)))
    for key in by_pair:
        by_pair[key].sort(key=Path.sort_key)
    flat = []
    for (s, t) in sorted(by_pair, key=lambda st: (pos[st[0]], pos[st[1]])):
        flat.extend(by_pair[(s, t)])
    return flat, by_pair


class Relation(_Record):
    """A homogeneous linear combination of non-trivial paths with a common
    source and target: a generator of the relation ideal."""

    __slots__ = _fields = ("source", "target", "terms")

    def __init__(self, source, target, terms):
        terms = tuple(terms)   # of (coefficient, Path)
        if not terms:
            raise QuiverError("empty relation")
        for c, p in terms:
            if not p.arrows:
                raise QuiverError(f"relation contains trivial path at {p.source}")
            if p.source != source or p.target != target:
                raise QuiverError(
                    f"relation not homogeneous: path {p.word()} runs "
                    f"{p.source}->{p.target}, expected {source}->{target}")
        _relation_source(self, source)
        _relation_target(self, target)
        _relation_terms(self, terms)

    def coefficient_sum(self):
        total = None
        for c, _ in self.terms:
            total = c if total is None else total + c
        return total

    def pretty(self, field=None):
        fmt = field.format if field is not None else str
        out = ""
        for i, (c, p) in enumerate(self.terms):
            text = fmt(c)
            neg = text.startswith("-")
            mag = text[1:] if neg else text
            term = p.word() if mag == "1" else f"{mag} {p.word()}"
            if i == 0:
                out = ("-" + term) if neg else term
            else:
                out += (" - " if neg else " + ") + term
        return out

    def __repr__(self):
        return f"Relation({self.source}->{self.target}: {self.pretty()})"


_relation_source, _relation_target, _relation_terms = _setters(Relation)


def full_subquiver(q, verts):
    """The full subquiver on `verts`, plus (vertex list, kept arrow labels)."""
    vs = list(verts)
    known = set(q.vertices)
    for v in vs:
        if v not in known:
            raise QuiverError(f"unknown vertex {v!r}")
    keep = set(vs)
    sub_vertices = tuple(v for v in q.vertices if v in keep)
    sub_arrows = tuple(a for a in q.arrows if a.source in keep and a.target in keep)
    sub = Quiver(sub_vertices, sub_arrows)
    return sub, list(sub_vertices), [a.label for a in sub_arrows]
