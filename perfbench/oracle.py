"""Known answers computed without the layers under test.

Everything here works on plain data (vertex names, arrow triples, relation
word pairs, complex JSON) with the benchmark's own path counting, union-find
and Gaussian elimination over `Fraction`; nothing imports `quivertt`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def beilinson_dimension(m, length):
    """dim kQ/(R) of beil(m, L): sum over k < L of (L - k) * C(m + k, k)."""
    return sum((length - k) * comb(m + k, k) for k in range(length))


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)

    def classes(self):
        return len({self.find(x) for x in self.parent})


def components(vertices, arrows, keep=None):
    """Connected components of the full subquiver on `keep` (default: all)."""
    keep = set(vertices if keep is None else keep)
    uf = UnionFind([v for v in vertices if v in keep])
    for _, s, t in arrows:
        if s in keep and t in keep:
            uf.union(s, t)
    return uf.classes()


def paths(vertices, arrows):
    """All paths of an acyclic quiver as (source, target, arrow labels)."""
    out_arrows = {v: [] for v in vertices}
    for label, s, t in arrows:
        out_arrows[s].append((label, t))
    found = []
    stack = [(v, v, ()) for v in vertices]
    while stack:
        s, t, word = stack.pop()
        found.append((s, t, word))
        for label, nxt in out_arrows[t]:
            stack.append((s, nxt, word + (label,)))
    return found


def binomial_quotient_dimension(vertices, arrows, relations):
    """dim kQ/(R) for relations that are differences p - q of paths.

    The ideal is spanned by l*p*r - l*q*r, so the quotient has one basis
    element per class of the congruence those pairs generate."""
    all_paths = paths(vertices, arrows)
    uf = UnionFind([(s, w) for s, _, w in all_paths])
    ending = {v: [] for v in vertices}
    starting = {v: [] for v in vertices}
    for s, t, w in all_paths:
        ending[t].append((s, w))
        starting[s].append(w)
    for (src, tgt), p, q in relations:
        for left_src, left in ending[src]:
            for right in starting[tgt]:
                uf.union((left_src, left + p + right),
                         (left_src, left + q + right))
    return uf.classes()


def compatible(arrows, relations, keep):
    """Whether the full subquiver on `keep` is compatible with binomial
    relations: R-bar is empty exactly when no relation has one path inside
    the subquiver and the other outside (a lone path is never in an ideal
    spanned by differences)."""
    keep = set(keep)
    ends = {label: (s, t) for label, s, t in arrows}

    def inside(word):
        return all(ends[a][0] in keep and ends[a][1] in keep for a in word)

    return all(inside(p) == inside(q) for _, p, q in relations)


def rank(rows):
    """Rank of a matrix given as a list of rows of Fractions."""
    rows = [list(r) for r in rows if any(r)]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        head = rows[rk]
        for i in range(rk + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / head[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], head)]
        rk += 1
    return rk


def support(cx_json, vertices):
    """Vertices where a complex (in the CLI's JSON form) has cohomology:
    dim C^i - rank d^i - rank d^(i-1) > 0 for some degree i."""
    dims = {int(i): t["dims"] for i, t in cx_json["terms"].items()}
    ranks = {}
    for i, comps in cx_json["differentials"].items():
        for v, grid in comps.items():
            ranks[(int(i), v)] = rank([[Fraction(x) for x in row] for row in grid])
    out = set()
    for v in vertices:
        for i, d in dims.items():
            if d.get(v, 0) - ranks.get((i, v), 0) - ranks.get((i - 1, v), 0) > 0:
                out.add(v)
    return sorted(out, key=list(vertices).index)


def parse_binomial_spec(text):
    """Vertices, arrows and relations of a spec file whose relations are
    all of the form `p - q` (the form of every bundled fixture)."""
    vertices, arrows, relations = [], [], []
    for line in text.splitlines():
        words = line.split("#")[0].split()
        if not words:
            continue
        if words[0] == "vertices":
            vertices = words[1:]
        elif words[0] == "arrow":
            arrows.append((words[1], words[3], words[5]))
        elif words[0] == "relation":
            if len(words) != 4 or words[2] != "-":
                raise ValueError(f"not a binomial relation: {line!r}")
            ends = {label: (s, t) for label, s, t in arrows}
            p, q = tuple(words[1].split("*")), tuple(words[3].split("*"))
            relations.append(((ends[p[0]][0], ends[p[-1]][1]), p, q))
    return vertices, arrows, relations
