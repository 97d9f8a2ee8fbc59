import copy
import pickle
import random

import pytest

import quivertt
from quivertt import complexes
from quivertt.quiver import (MAX_PATHS, Arrow, NotOrdered, Path, Quiver,
                             QuiverError, Relation, ResourceBudget,
                             admissible_order, count_paths, enumerate_paths,
                             full_subquiver)
from quivertt.randgen import random_ordered_quiver

from conftest import FIXTURE_NAMES, load_beilinson, load_fixture


def count_paths_dfs(quiver, src, tgt):
    """Independent path counter: naive recursion over outgoing arrows."""
    if src == tgt:
        base = 1  # the trivial path
    else:
        base = 0
    total = base
    for a in quiver.arrows_from(src):
        total += count_paths_dfs(quiver, a.target, tgt)
    return total


def chain(n):
    verts = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple(Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n))
    return Quiver(verts, arrows)


class TestQuiver:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(QuiverError):
            Quiver(("1", "1"), ())

    def test_arrow_endpoint_validated(self):
        with pytest.raises(QuiverError):
            Quiver(("1",), (Arrow("a", "1", "2"),))

    def test_duplicate_arrow_label_rejected(self):
        with pytest.raises(QuiverError):
            Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("a", "1", "2")))

    def test_lookups_agree_with_scans(self):
        # the per-vertex and per-label tables answer what scans of
        # `arrows` answered, on quivers with loops and parallel arrows
        rng = random.Random(11)
        for _ in range(30):
            verts = tuple(str(i) for i in range(rng.randint(1, 6)))
            arrows = tuple(Arrow(f"a{k}", rng.choice(verts), rng.choice(verts))
                           for k in range(rng.randint(0, 12)))
            q = Quiver(verts, arrows)
            for v in verts:
                assert list(q.arrows_from(v)) == [a for a in arrows
                                                  if a.source == v]
            for a in arrows:
                assert q.arrow(a.label) == next(
                    b for b in arrows if b.label == a.label)
            with pytest.raises(QuiverError):
                q.arrow("missing")
            same = Quiver(list(verts), list(arrows))
            assert same == q and hash(same) == hash(q)

    def test_undirected_components(self):
        q = Quiver(("1", "2", "3", "4"),
                   (Arrow("a", "1", "2"), Arrow("b", "3", "4")))
        comps = {frozenset(c) for c in q.undirected_components()}
        assert comps == {frozenset({"1", "2"}), frozenset({"3", "4"})}


class TestAdmissibleOrder:
    def test_chain_order(self):
        assert admissible_order(chain(4)) == ["1", "2", "3", "4"]

    def test_order_property(self, rng):
        for _ in range(25):
            q = random_ordered_quiver(rng)
            order = admissible_order(q)
            pos = {v: i for i, v in enumerate(order)}
            assert sorted(order) == sorted(q.vertices)
            for a in q.arrows:
                assert pos[a.source] < pos[a.target]

    def test_cycle_detected_with_witness(self):
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
        with pytest.raises(NotOrdered) as err:
            admissible_order(q)
        cycle = err.value.cycle
        assert cycle[0] == cycle[-1] and len(cycle) >= 3

    def test_self_loop_detected(self):
        q = Quiver(("1",), (Arrow("a", "1", "1"),))
        with pytest.raises(NotOrdered):
            admissible_order(q)


class TestPath:
    def test_non_composable_arrows_rejected(self):
        q = chain(4)
        with pytest.raises(QuiverError):
            Path.from_arrows([q.arrow("a1"), q.arrow("a3")])


P13 = Path("1", "3", ("a1", "a2"))
Q13 = Path("1", "3", ("b1", "b2"))
# kind: (record, its field names, records differing from it in one field,
# its repr)
RECORDS = {
    "path": (P13, ("source", "target", "arrows"),
             [Path("0", "3", ("a1", "a2")), Path("1", "4", ("a1", "a2")),
              Path("1", "3", ("a1",))], "Path(1->3: a1*a2)"),
    "trivial-path": (Path.trivial("1"), ("source", "target", "arrows"),
                     [Path.trivial("2"), Path("1", "2")], "Path(1->1: e_1)"),
    "arrow": (Arrow("a", "1", "2"), ("label", "source", "target"),
              [Arrow("b", "1", "2"), Arrow("a", "0", "2"),
               Arrow("a", "1", "3")],
              "Arrow(label='a', source='1', target='2')"),
    "relation": (Relation("1", "3", ((1, P13), (-1, Q13))),
                 ("source", "target", "terms"),
                 [Relation("1", "3", ((2, P13), (-1, Q13))),
                  Relation("1", "3", ((1, P13),))],
                 "Relation(1->3: a1*a2 - b1*b2)"),
}


@pytest.mark.parametrize("kind", RECORDS)
class TestRecords:
    """Path, Arrow and Relation keep the contract of the frozen
    dataclasses they were."""

    def test_equal_only_to_a_record_with_the_same_fields(self, kind):
        record, names, others, _ = RECORDS[kind]
        fields = tuple(getattr(record, name) for name in names)
        again = type(record)(*fields)
        assert again == record and hash(again) == hash(record)
        assert len({record, again}) == 1
        for other in [*others, fields]:
            assert record != other and not record == other

    def test_hash_is_that_of_its_fields(self, kind):
        # as the dataclass hash was: every field takes part
        record, names, _, _ = RECORDS[kind]
        assert hash(record) == hash(tuple(getattr(record, n) for n in names))

    def test_fields_cannot_be_assigned(self, kind):
        record, names, _, _ = RECORDS[kind]
        fields = tuple(getattr(record, name) for name in names)
        for name in (*names, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, "x")
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in names) == fields

    def test_repr(self, kind):
        record, _, _, text = RECORDS[kind]
        assert repr(record) == text

    def test_pickles_and_copies(self, kind):
        record, names, _, _ = RECORDS[kind]
        copies = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(record), copy.deepcopy(record),
                   copy.deepcopy({record: [record]})[record][0]]
        for r in copies:
            assert type(r) is type(record) and r == record
            assert hash(r) == hash(record)
            with pytest.raises(AttributeError):
                setattr(r, names[0], "9")


class TestEnumeratePaths:
    def test_counts_match_dfs_oracle(self, rng):
        for _ in range(15):
            q = random_ordered_quiver(rng, max_vertices=5, max_arrows=8)
            _, by_pair = enumerate_paths(q)
            for s in q.vertices:
                for t in q.vertices:
                    assert len(by_pair.get((s, t), [])) == \
                        count_paths_dfs(q, s, t)

    def test_sorted_by_length_then_word(self):
        q = Quiver(("1", "2"), (Arrow("b", "1", "2"), Arrow("a", "1", "2")))
        _, by_pair = enumerate_paths(q)
        assert [p.word() for p in by_pair[("1", "2")]] == ["a", "b"]


def parallel_arrows(k):
    """Two vertices and k arrows between them: k + 2 paths."""
    return Quiver(("1", "2"), tuple(Arrow(f"x{i}", "1", "2") for i in range(k)))


class TestPathBudget:
    def test_count_matches_enumeration(self, rng):
        for _ in range(30):
            q = random_ordered_quiver(rng, max_vertices=6, max_arrows=10)
            assert count_paths(q) == len(enumerate_paths(q)[0])

    def test_count_refuses_cycles(self):
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
        with pytest.raises(NotOrdered):
            count_paths(q)

    def test_boundary(self):
        flat, _ = enumerate_paths(parallel_arrows(MAX_PATHS - 2))
        assert len(flat) == MAX_PATHS
        with pytest.raises(ResourceBudget,
                           match=f"{MAX_PATHS + 1} paths, above the budget "
                                 f"of {MAX_PATHS}"):
            enumerate_paths(parallel_arrows(MAX_PATHS - 1))

    def test_refused_before_listing(self):
        # 2^30 - 1 paths from the first vertex alone
        spec = load_beilinson(1, 31)
        with pytest.raises(ResourceBudget) as exc:
            enumerate_paths(spec.quiver)
        assert str(count_paths(spec.quiver)) in str(exc.value)

    def test_fixtures_and_benchmark_instances_fit(self, rng):
        for name in FIXTURE_NAMES:
            assert count_paths(load_fixture(name).quiver) <= MAX_PATHS
        # the Beilinson chains of perfbench/inputs.py
        for m, length in ((2, 5), (3, 4), (1, 7), (1, 6), (3, 3), (1, 4),
                          (2, 4)):
            assert count_paths(load_beilinson(m, length).quiver) <= MAX_PATHS
        # the largest quivers its `sweep-small` workload draws
        for _ in range(300):
            q = random_ordered_quiver(rng, max_vertices=6, max_arrows=10)
            assert count_paths(q) <= MAX_PATHS

    def test_one_exception_everywhere(self):
        assert quivertt.ResourceBudget is ResourceBudget
        assert complexes.ResourceBudget is ResourceBudget


class TestRelation:
    def test_homogeneity_enforced(self):
        q = Quiver(("1", "2", "3"),
                   (Arrow("a", "1", "2"), Arrow("b", "1", "3")))
        pa = Path.from_arrows([q.arrow("a")])
        pb = Path.from_arrows([q.arrow("b")])
        with pytest.raises(QuiverError):
            Relation("1", "2", ((1, pa), (-1, pb)))

    def test_trivial_path_rejected(self):
        with pytest.raises(QuiverError):
            Relation("1", "1", ((1, Path.trivial("1")),))

    def test_pretty(self):
        q = chain(3)
        p = Path.from_arrows([q.arrow("a1"), q.arrow("a2")])
        r = Relation("1", "3", ((1, p), (-1, p)))
        assert r.pretty() == "a1*a2 - a1*a2"


class TestFullSubquiver:
    def test_keeps_internal_arrows_only(self):
        q = chain(4)
        sub, verts, labels = full_subquiver(q, ["1", "2", "4"])
        assert sub.vertices == ("1", "2", "4")
        assert labels == ["a1"]

    def test_unknown_vertex_rejected(self):
        with pytest.raises(QuiverError):
            full_subquiver(chain(3), ["9"])
