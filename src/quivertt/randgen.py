"""Random instances for stress tests and experiment scripts.

Everything takes an explicit `random.Random` so runs are reproducible.
Relations are generated as differences of parallel paths (commutativity
relations), which are automatically tensor relations; representations and
complexes are assembled from objects known to satisfy the relations
(unit, simples, projectives, filtration layers) via operations that
preserve satisfaction, so generated instances are valid by construction.
"""

from __future__ import annotations

from .fields import QQ
from .complexes import (BoundedComplex, ChainMap, cone, direct_sum_complex,
                        shift, zero_morphism)
from .quiver import Arrow, Quiver, Relation, enumerate_paths
from .repcat import (direct_sum, hom_space, module_representation,
                     simple_object, unit_filtration, unit_object)


def random_ordered_quiver(rng, max_vertices=6, max_arrows=10):
    """A random acyclic quiver: arrows only go up a fixed vertex order."""
    n = rng.randint(2, max_vertices)
    vertices = tuple(str(i) for i in range(1, n + 1))
    n_arrows = rng.randint(1, max_arrows)
    arrows = []
    for k in range(n_arrows):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        arrows.append(Arrow(f"a{k}", str(i), str(j)))
    return Quiver(vertices, tuple(arrows))


def parallel_path_pairs(quiver, max_pairs):
    """Up to `max_pairs` pairs of distinct non-trivial parallel paths,
    longest components first so relations tend to be non-vacuous."""
    _, by_pair = enumerate_paths(quiver)
    pairs = []
    for (s, t), plist in sorted(by_pair.items()):
        nontrivial = [p for p in plist if not p.is_trivial]
        for i in range(len(nontrivial)):
            for j in range(i + 1, len(nontrivial)):
                pairs.append((nontrivial[i], nontrivial[j]))
                if len(pairs) >= max_pairs:
                    return pairs
    return pairs


def random_commutativity_relations(rng, quiver, field=QQ):
    """A random subset of at most three commutativity relations p - q.
    Differences of paths that become equal in the quotient always pass
    both halves of the tensor-relations criterion, so the result is a
    tensor-relation set by construction."""
    pairs = parallel_path_pairs(quiver, max_pairs=50)
    if not pairs:
        return ()
    count = rng.randint(0, min(3, len(pairs)))
    chosen = rng.sample(pairs, count)
    minus_one = field(-1)
    return tuple(Relation(p.source, p.target, ((field.one, p), (minus_one, q)))
                 for p, q in chosen)


def random_tensor_quiver(rng, max_vertices=4, max_arrows=6, field=QQ):
    """A random quiver together with random tensor relations."""
    quiver = random_ordered_quiver(rng, max_vertices, max_arrows)
    return quiver, random_commutativity_relations(rng, quiver, field=field)


def representation_menu(quiver, relations, field=QQ):
    """The objects that satisfy the relations which `random_representation`
    sums: the unit, the simples, the projectives M_j and the
    unit-filtration layers.  Building it draws nothing from a generator,
    so one menu serves many draws."""
    menu = [unit_object(quiver, field)]
    menu.extend(simple_object(quiver, v, field) for v in quiver.vertices)
    menu.extend(module_representation(quiver, relations, field, v)
                for v in quiver.vertices)
    menu.extend(s.rep for s in unit_filtration(quiver, relations, field))
    return menu


def random_representation(rng, menu, max_summands=3):
    """A direct sum of one to `max_summands` objects drawn from `menu`, a
    `representation_menu`."""
    rep = rng.choice(menu)
    for _ in range(rng.randint(0, max_summands - 1)):
        rep = direct_sum(rep, rng.choice(menu))
    return rep


def random_complex(rng, quiver, relations, field=QQ):
    """A random bounded complex whose terms satisfy the relations.

    Built from a leaf in a random degree by up to two moves, each a shift,
    a sum with another leaf or the cone of a zero chain map to one, so
    d^2 = 0 holds structurally.  A leaf is a random representation or,
    about half the time, the two-term complex of a basis morphism from it
    to another one, a nonzero differential whenever such a morphism
    exists.  The menu of representations is built once per call."""
    menu = representation_menu(quiver, relations, field)

    def rep():
        return random_representation(rng, menu, 2)

    def leaf():
        v = rep()
        maps = hom_space(v, rep()) if rng.random() < 0.5 else ()
        cx = (BoundedComplex.from_map(rng.choice(maps)) if maps
              else BoundedComplex.from_representation(v))
        return shift(cx, rng.randint(-1, 1))

    cx = leaf()
    for _ in range(rng.randint(0, 2)):
        move = rng.randrange(3)
        if move == 0:
            cx = shift(cx, rng.choice((-1, 1)))
        elif move == 1:
            cx = direct_sum_complex(cx, leaf())
        else:
            other = leaf()
            zero = ChainMap(cx, other, {
                i: zero_morphism(cx.term(i), other.term(i))
                for i in set(cx.degrees()) | set(other.degrees())})
            cx = cone(zero)
    return cx


def random_morphism_complex(rng, quiver, relations, field=QQ):
    """A two-term complex built from a random morphism between random
    relation-satisfying representations (zero if no morphisms exist),
    both drawn from one menu."""
    menu = representation_menu(quiver, relations, field)
    v = random_representation(rng, menu, 2)
    w = random_representation(rng, menu, 2)
    basis = hom_space(v, w)
    if not basis:
        return BoundedComplex.from_representation(v)
    f = basis[0]
    for g in basis[1:]:
        if rng.random() < 0.5:
            f = f + g.scale(field(rng.randint(-2, 2)))
    return BoundedComplex.from_map(f, degree=rng.randint(-1, 0))
