from math import comb

import pytest

from quivertt import path_algebra
from quivertt.fields import QQ, PrimeField
from quivertt.quiver import Arrow, Path, Quiver, QuiverError, Relation
from quivertt.linalg import combine
from quivertt.path_algebra import (PathAlgebra, TensorRelationError,
                                   compatibility, is_tensor_relations,
                                   module_hom_space)
from quivertt.randgen import random_tensor_quiver
from quivertt.reconstruct import assemble_A, rational_points
from quivertt.spectrum import presheaf_sections, sheaf_sections, spc

from conftest import load_fixture
from path_algebra_oracles import module_map_oracle, right_mult_oracle


def kronecker(n_arrows):
    q = Quiver(("1", "2"),
               tuple(Arrow(f"x{i}", "1", "2") for i in range(n_arrows)))
    return q


class TestBasis:
    def test_kronecker2_dimension(self):
        spec = load_fixture("kronecker2")
        alg = PathAlgebra(spec.quiver, spec.relations)
        assert alg.dim == 4
        assert alg.dim_pair("1", "2") == 2

    def test_beilinson_dimensions_match_closed_form(self):
        # dim e_i (kS_m/R) e_j is the number of degree-(j-i) monomials in
        # m+1 commuting variables: C(m + j - i, j - i)
        for m in (1, 2, 3):
            spec = load_fixture(f"beilinson{m}")
            alg = PathAlgebra(spec.quiver, spec.relations)
            total = 0
            for i in range(1, m + 2):
                for j in range(i, m + 2):
                    d = j - i
                    expected = comb(m + d, d)
                    assert alg.dim_pair(str(i), str(j)) == expected
                    total += expected
            assert alg.dim == total

    def test_beilinson2_known_values(self):
        spec = load_fixture("beilinson2")
        alg = PathAlgebra(spec.quiver, spec.relations)
        assert alg.dim == 15
        assert alg.dim_pair("1", "3") == 6

    def test_basis_is_greedy_deterministic(self):
        spec = load_fixture("kronecker3")
        alg = PathAlgebra(spec.quiver, spec.relations)
        assert [p.word() for p in alg.basis] == ["e_1", "x0", "x1", "x2", "e_2"]

    def test_relations_have_zero_normal_form(self, fixture_spec):
        alg = PathAlgebra(fixture_spec.quiver, fixture_spec.relations,
                          fixture_spec.field)
        for gen in fixture_spec.relations:
            assert combine(((c, alg.nf_path(p)) for c, p in gen.terms),
                           alg.field) == {}

    def test_prime_field_quotient(self):
        spec = load_fixture("beilinson2")
        f5 = PrimeField(5)
        alg = PathAlgebra(spec.quiver, tuple(
            Relation(r.source, r.target,
                     tuple((f5(int(c)), p) for c, p in r.terms))
            for r in spec.relations), f5)
        assert alg.dim == 15


class TestProduct:
    def test_unit_is_identity(self, fixture_spec):
        alg = PathAlgebra(fixture_spec.quiver, fixture_spec.relations)
        unit = alg.unit()
        for i in range(alg.dim):
            x = {i: QQ.one}
            assert alg.product(unit, x) == x
            assert alg.product(x, unit) == x

    def test_associativity_on_all_basis_triples(self):
        spec = load_fixture("square")
        alg = PathAlgebra(spec.quiver, spec.relations)
        elems = [{i: QQ.one} for i in range(alg.dim)]
        for a in elems:
            for b in elems:
                ab = alg.product(a, b)
                for c in elems:
                    assert alg.product(ab, c) == \
                        alg.product(a, alg.product(b, c))

    def test_orthogonal_idempotents(self):
        spec = load_fixture("chain4")
        alg = PathAlgebra(spec.quiver, spec.relations)
        for v in spec.quiver.vertices:
            for w in spec.quiver.vertices:
                prod = alg.product(alg.idempotent(v), alg.idempotent(w))
                assert prod == (alg.idempotent(v) if v == w else {})

    @pytest.mark.parametrize("path", [
        Path("1", "4", ("a", "z")),      # unknown arrow
        Path("1", "4", ("a", "d")),      # arrows that do not compose
        Path("1", "3", ("a", "b")),      # wrong target
        Path("2", "4", ("a", "b")),      # wrong source
        Path("1", "2", ()),              # trivial path with two ends
        Path("9", "9", ()),              # unknown vertex
    ], ids=repr)
    def test_nf_path_refuses_paths_outside_the_quiver(self, path):
        spec = load_fixture("square")
        alg = PathAlgebra(spec.quiver, spec.relations)
        # cached normal forms of the same words must not let them through
        alg.nf_path(Path("1", "4", ("a", "b")))
        with pytest.raises(QuiverError, match="does not belong"):
            alg.nf_path(path)

    def test_relation_outside_the_quiver_is_refused(self):
        spec = load_fixture("square")
        bad = Relation("1", "4", ((QQ.one, Path("1", "4", ("a", "d"))),))
        with pytest.raises(QuiverError, match="does not belong"):
            PathAlgebra(spec.quiver, spec.relations + (bad,))

    def test_product_respects_relation(self):
        # in kQ/(ab - cd) the two composites coincide
        spec = load_fixture("square")
        alg = PathAlgebra(spec.quiver, spec.relations)
        q = spec.quiver
        ab = alg.nf_path(Path.from_arrows([q.arrow("a"), q.arrow("b")]))
        cd = alg.nf_path(Path.from_arrows([q.arrow("c"), q.arrow("d")]))
        assert ab == cd and ab != {}


class TestTensorCriterion:
    def test_fixture_relations_pass(self, fixture_spec):
        alg = PathAlgebra(fixture_spec.quiver, fixture_spec.relations)
        assert is_tensor_relations(alg).ok

    def test_single_path_fails_unit(self):
        spec = load_fixture("chain4")
        q = spec.quiver
        p = Path.from_arrows([q.arrow("a"), q.arrow("b")])
        alg = PathAlgebra(q, (Relation("1", "3", ((QQ.one, p),)),))
        check = is_tensor_relations(alg)
        assert not check.ok and check.failed_test == "unit"

    def test_alternating_sum_fails_diagonal(self):
        # x0 - x1 + x2 - x3 on the 4-arrow Kronecker quiver: coefficient
        # sum vanishes but the diagonal tensor does not
        q = kronecker(4)
        terms = tuple((QQ((-1) ** i), Path.from_arrows([q.arrow(f"x{i}")]))
                      for i in range(4))
        alg = PathAlgebra(q, (Relation("1", "2", terms),))
        check = is_tensor_relations(alg)
        assert not check.ok and check.failed_test == "diagonal"

    def test_commutativity_difference_passes(self):
        q = kronecker(2)
        terms = ((QQ.one, Path.from_arrows([q.arrow("x0")])),
                 (-QQ.one, Path.from_arrows([q.arrow("x1")])))
        alg = PathAlgebra(q, (Relation("1", "2", terms),))
        assert is_tensor_relations(alg).ok


def single_path_algebra():
    """chain4 over QQ with the relation a*b, which fails the unit test."""
    q = load_fixture("chain4").quiver
    p = Path.from_arrows([q.arrow("a"), q.arrow("b")])
    return PathAlgebra(q, (Relation("1", "3", ((QQ.one, p),)),))


# every entry point that needs tensor relations, called on an algebra
GATED = {
    "spc": spc,
    "sheaf_sections": lambda alg: sheaf_sections(alg, ["1", "2"]),
    "presheaf_sections": lambda alg: presheaf_sections(alg, ["1", "2"]),
    "rational_points": rational_points,
    "assemble_A": assemble_A,
}


class TestTensorGate:
    @pytest.mark.parametrize("name", GATED)
    def test_entry_points_refuse_non_tensor_relations(self, name):
        with pytest.raises(TensorRelationError,
                           match=r"generator a\*b fails the unit test"):
            GATED[name](single_path_algebra())

    def test_the_check_runs_once_per_algebra(self, monkeypatch):
        calls = []
        real = path_algebra.is_tensor_relations

        def counted(alg):
            calls.append(alg)
            return real(alg)

        monkeypatch.setattr(path_algebra, "is_tensor_relations", counted)
        spec = load_fixture("kronecker2")
        alg = PathAlgebra(spec.quiver, spec.relations)
        for call in GATED.values():
            call(alg)
        assert alg.tensor_check.ok and calls == [alg]

    def test_reading_paths_by_pair_adds_no_instance_key(self):
        # a key added to the instance dict after __init__ slows every later
        # attribute lookup on the algebra, traced runs included
        spec = load_fixture("kronecker2")
        alg = PathAlgebra(spec.quiver, spec.relations)
        keys = list(vars(alg))
        assert sum(len(p) for p in alg.paths_by_pair.values()) == alg.dim
        assert list(vars(alg)) == keys


class TestCompatibility:
    def test_square_example(self):
        spec = load_fixture("square")
        result = compatibility(spec.quiver, spec.relations, ["1", "2", "4"])
        assert not result.compatible
        assert len(result.r_bar) == 1
        assert result.r_bar[0].pretty() == "a*b"
        assert result.witness.pretty() == "a*b"
        assert result.r_cap == ()

    def test_suffix_subquivers_always_compatible(self, fixture_spec):
        from quivertt.quiver import admissible_order
        order = admissible_order(fixture_spec.quiver)
        for start in range(len(order)):
            result = compatibility(fixture_spec.quiver,
                                   fixture_spec.relations, order[start:])
            assert result.compatible

    def test_one_vertex_always_compatible(self, fixture_spec):
        for v in fixture_spec.quiver.vertices:
            assert compatibility(fixture_spec.quiver,
                                 fixture_spec.relations, [v]).compatible

    def test_full_quiver_trivially_compatible(self, fixture_spec):
        result = compatibility(fixture_spec.quiver, fixture_spec.relations,
                               fixture_spec.quiver.vertices)
        assert result.compatible and result.r_bar == ()


class TestModuleHomSpace:
    def test_dimension_matches_pair_component(self, fixture_spec):
        alg = PathAlgebra(fixture_spec.quiver, fixture_spec.relations)
        for n in fixture_spec.quiver.vertices:
            for m in fixture_spec.quiver.vertices:
                maps = module_hom_space(alg, n, m)
                assert len(maps) == alg.dim_pair(n, m)

    def test_maps_commute_with_right_action(self, rng):
        quiver, relations = random_tensor_quiver(rng)
        alg = PathAlgebra(quiver, relations)
        for n in quiver.vertices:
            for m in quiver.vertices:
                mb_n = alg.module_basis(n)
                e_m = alg.module_basis(m).index(alg.idempotent_index[m])
                for image in module_hom_space(alg, n, m):
                    # the map x -> image * x sends the generator to the
                    # image, so the image extends to a module map
                    f = module_map_oracle(alg, n, m, image)
                    assert f.column(e_m) == tuple(image.get(gi, alg.field.zero)
                                                  for gi in mb_n)
                    for j in range(alg.dim):
                        lhs = f @ right_mult_oracle(alg, m, j)
                        rhs = right_mult_oracle(alg, n, j) @ f
                        assert lhs == rhs

    def test_endomorphisms_of_projective_contain_identity(self):
        spec = load_fixture("beilinson2")
        alg = PathAlgebra(spec.quiver, spec.relations)
        maps = module_hom_space(alg, "1", "1")
        assert alg.idempotent("1") in maps
