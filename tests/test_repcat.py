import pytest

from quivertt.fields import QQ
from quivertt.linalg import Matrix
from quivertt.path_algebra import PathAlgebra
from quivertt.quiver import Arrow, Quiver
from quivertt.randgen import (random_representation, random_tensor_quiver,
                              representation_menu)
from quivertt.repcat import (Representation, RepresentationError,
                             extend_by_zero, hom_space, module_representation,
                             restrict, satisfies_relations,
                             simple_object, sub_quotient, tensor,
                             unit_filtration, unit_object)

from conftest import load_fixture


class TestRepresentation:
    def test_arrow_map_shapes_validated(self):
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
        with pytest.raises(RepresentationError):
            Representation(q, {"1": 2, "2": 1},
                           {"a": Matrix(2, 2, [[1, 0], [0, 1]])})

    def test_negative_dimension_rejected(self):
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
        with pytest.raises(RepresentationError, match="negative dimension"):
            Representation(q, {"1": -1}, {})

    def test_path_action_is_reverse_composite(self):
        # path a*b acts as B @ A: apply a's matrix first, then b's
        q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
        A = Matrix(1, 2, [[1, 2]])
        B = Matrix(1, 1, [[3]])
        rep = Representation(q, {"1": 2, "2": 1, "3": 1}, {"a": A, "b": B})
        from quivertt.quiver import Path
        p = Path.from_arrows([q.arrow("a"), q.arrow("b")])
        assert rep.path_action(p) == B @ A

    def test_trivial_path_acts_as_identity(self):
        spec = load_fixture("chain4")
        u = unit_object(spec.quiver)
        from quivertt.quiver import Path
        assert u.path_action(Path.trivial("2")) == Matrix.identity(1)


class TestTensor:
    def test_unit_is_tensor_identity(self, fixture_spec):
        u = unit_object(fixture_spec.quiver)
        for v in fixture_spec.quiver.vertices:
            s = simple_object(fixture_spec.quiver, v)
            t = tensor(u, s)
            assert t.dims == s.dims
            assert all(t.arrow_maps[a.label] == s.arrow_maps[a.label]
                       for a in fixture_spec.quiver.arrows)

    def test_tensor_dims_multiply(self):
        spec = load_fixture("beilinson2")
        alg = PathAlgebra(spec.quiver, spec.relations)
        m1 = module_representation(alg, "1")
        t = tensor(m1, m1)
        for v in spec.quiver.vertices:
            assert t.dims[v] == m1.dims[v] ** 2

    def test_tensor_preserves_relations(self, rng):
        # semantic cross-validation of the tensor-relations criterion
        for _ in range(20):
            quiver, relations = random_tensor_quiver(rng)
            menu = representation_menu(quiver, relations)
            v = random_representation(rng, menu)
            w = random_representation(rng, menu)
            assert satisfies_relations(v, relations) is None
            assert satisfies_relations(w, relations) is None
            assert satisfies_relations(tensor(v, w), relations) is None


class TestHomSpace:
    def test_basis_elements_are_natural(self, fixture_spec):
        u = unit_object(fixture_spec.quiver)
        s = simple_object(fixture_spec.quiver,
                          fixture_spec.quiver.vertices[-1])
        for f in hom_space(u, s):
            assert f.is_natural()
        for f in hom_space(u, u):
            assert f.is_natural()

    def test_end_unit_dimension_is_component_count(self, fixture_spec):
        u = unit_object(fixture_spec.quiver)
        pi0 = len(fixture_spec.quiver.undirected_components())
        assert len(hom_space(u, u)) == pi0

    def test_hom_unit_to_simple_at_source(self):
        # a map U -> S_v exists iff v has no incoming arrow: an arrow
        # s -> v forces the component at v to vanish through the square
        # S(a) o f_s = f_v o U(a) with S(a) = 0 and U(a) = id
        spec = load_fixture("chain4")
        u = unit_object(spec.quiver)
        dims = [len(hom_space(u, simple_object(spec.quiver, v)))
                for v in spec.quiver.vertices]
        assert dims == [1, 0, 0, 0]

    def test_hom_between_projectives_matches_algebra(self):
        spec = load_fixture("beilinson2")
        alg = PathAlgebra(spec.quiver, spec.relations)
        m1 = module_representation(alg, "1")
        m3 = module_representation(alg, "3")
        # rep morphisms M_1 -> M_3 = Hom(e_3 L, e_1 L)... the projective
        # viewed as a representation has morphisms given by left
        # multiplication; dimension equals dim e_3 L e_1 + contributions
        # from naturality.  Just check hom_space agrees with the
        # module-theoretic computation on the same pair.
        from quivertt.path_algebra import module_hom_space
        assert len(hom_space(m3, m1)) == len(module_hom_space(alg, "1", "3"))


class TestSubQuotient:
    def test_instability_reported_with_arrow(self):
        spec = load_fixture("chain4")
        u = unit_object(spec.quiver)
        bases = {v: ([(QQ.one,)] if v == "1" else [])
                 for v in spec.quiver.vertices}
        with pytest.raises(RepresentationError) as err:
            sub_quotient(u, bases)
        assert "a" in str(err.value)

    def test_sub_plus_quotient_dimensions(self):
        spec = load_fixture("chain4")
        u = unit_object(spec.quiver)
        bases = {v: ([(QQ.one,)] if v in ("2", "3", "4") else [])
                 for v in spec.quiver.vertices}
        sub, quot, incl, proj = sub_quotient(u, bases)
        for v in spec.quiver.vertices:
            assert sub.dims[v] + quot.dims[v] == u.dims[v]
        assert incl.is_natural() and proj.is_natural()

    @pytest.mark.parametrize("vectors", [
        [(0, 0)], [(1, 0), (1, 0)], [(1, 2), (2, 4)], [(1, 0), (0, 1), (1, 1)]],
        ids=["zero", "duplicate", "parallel", "too-many"])
    def test_dependent_vectors_are_refused(self, vectors):
        # 1 -> 2 with both spaces 2-dimensional and the identity along a
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
        rep = Representation(q, {"1": 2, "2": 2},
                             {"a": Matrix.identity(2)})
        with pytest.raises(RepresentationError,
                           match="vectors at 2 are linearly dependent"):
            sub_quotient(rep, {"1": [], "2": vectors})

    def test_given_basis_is_kept_and_quotient_is_complemented(self):
        # 1 -> 2 with a = [[1, 1], [0, 2]]: the span of (1, 1) at both
        # vertices is stable with a acting by 2 on it, and the quotient
        # is spanned by (1, 0), the first standard vector independent of
        # (1, 1); v = x(1, 1) + y(1, 0) projects to y = v_0 - v_1
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
        rep = Representation(q, {"1": 2, "2": 2},
                             {"a": Matrix(2, 2, [[1, 1], [0, 2]])})
        sub, quot, incl, proj = sub_quotient(rep, {"1": [(1, 1)],
                                                   "2": [(1, 1)]})
        assert sub.arrow_maps["a"] == Matrix(1, 1, [[2]])
        assert quot.arrow_maps["a"] == Matrix(1, 1, [[1]])
        assert incl.components["2"] == Matrix(2, 1, [[1], [1]])
        assert proj.components["2"] == Matrix(1, 2, [[1, -1]])
        assert incl.is_natural() and proj.is_natural()
        assert proj.compose(incl).is_zero()


class TestRestrictExtend:
    def test_round_trip(self, fixture_spec):
        q = fixture_spec.quiver
        sub_verts = list(q.vertices[:2])
        v = unit_object(q)
        restricted = restrict(v, sub_verts)
        back = extend_by_zero(restricted, q)
        for w in q.vertices:
            assert back.dims[w] == (1 if w in sub_verts else 0)


class TestUnitFiltration:
    def test_filtration_on_fixture(self, fixture_spec):
        steps = unit_filtration(fixture_spec.quiver, fixture_spec.relations)
        n = len(fixture_spec.quiver.vertices)
        assert len(steps) == n
        total = None
        for step in steps:
            assert step.relation_witness is None
            assert step.quotient_is_simple
            dims_sum = sum(step.rep.dims.values())
            assert dims_sum == n - step.level + 1
        # K_1 is the whole unit
        assert steps[0].rep.dims == unit_object(fixture_spec.quiver).dims


class TestModuleRepresentation:
    def test_satisfies_relations(self, fixture_spec):
        alg = PathAlgebra(fixture_spec.quiver, fixture_spec.relations)
        for v in fixture_spec.quiver.vertices:
            rep = module_representation(alg, v)
            assert satisfies_relations(rep, fixture_spec.relations) is None

    def test_dims_are_pair_dimensions(self):
        spec = load_fixture("beilinson2")
        alg = PathAlgebra(spec.quiver, spec.relations)
        m1 = module_representation(alg, "1")
        assert [m1.dims[v] for v in spec.quiver.vertices] == [1, 3, 6]
