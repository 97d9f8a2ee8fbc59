import random

import pytest

from quivertt.linalg import Matrix
from quivertt.path_algebra import PathAlgebra
from quivertt.quiver import Quiver
from quivertt.randgen import random_complex, random_tensor_quiver
from quivertt.repcat import (module_representation, simple_object,
                             unit_object, zero_object)
from quivertt.complexes import (BoundedComplex, ChainMap, ComplexError,
                                cohomology_at, complex_from_json,
                                complex_to_json, cone, direct_sum_complex,
                                eval_functor, id_morphism,
                                induced_cohomology_map, shift,
                                split_vector_complex, support, tensor_complex)

from conftest import load_fixture
from linalg_oracles import rref_oracle


def cohomology_dim_oracle(cx, v, i):
    """dim H^i at vertex v = dim ker(d^i) - rank(d^{i-1}), computed from
    the strand matrices directly by `rref_oracle`."""
    d_i = cx.strand_matrix(i, v)
    d_prev = cx.strand_matrix(i - 1, v)
    return (d_i.cols - rref_oracle(d_i)[2]) - rref_oracle(d_prev)[2]


class TestBoundedComplex:
    def test_single_representation(self, fixture_spec):
        u = unit_object(fixture_spec.quiver)
        cx = BoundedComplex.from_representation(u, degree=2)
        assert cx.degrees() == [2]
        assert support(cx) == set(fixture_spec.quiver.vertices)

    def test_d_squared_checked(self):
        q = Quiver(("1",), ())
        r1 = module_representation(PathAlgebra(q, ()), "1")
        ident = id_morphism(r1)
        with pytest.raises(ComplexError):
            BoundedComplex(q, {0: r1, 1: r1, 2: r1},
                           {0: ident, 1: ident})

    def test_zero_terms_dropped(self):
        spec = load_fixture("chain4")
        z = zero_object(spec.quiver)
        cx = BoundedComplex(spec.quiver, {0: z})
        assert cx.degrees() == [] and cx.is_zero()


@pytest.mark.parametrize("include_projectives", [True, False])
def test_random_complex_draws_nonzero_differentials(include_projectives):
    # about half the leaves are two-term complexes of a basis morphism; 21
    # and 16 of these 40 draws have a nonzero differential
    drawn = 0
    for seed in range(40):
        rng = random.Random(seed)
        quiver, relations = random_tensor_quiver(rng)
        cx = random_complex(rng, quiver, relations,
                            include_projectives=include_projectives)
        drawn += any(not d.is_zero() for d in cx.differentials.values())
    assert drawn >= 10


class TestCohomology:
    def test_dims_match_rank_oracle(self, rng):
        for _ in range(10):
            quiver, relations = random_tensor_quiver(rng)
            cx = random_complex(rng, quiver, relations)
            for v in quiver.vertices:
                gvs = cohomology_at(cx, v)
                degrees = set(cx.degrees()) | set(gvs.dims)
                for i in degrees:
                    assert gvs.dims.get(i, 0) == \
                        cohomology_dim_oracle(cx, v, i)

    def test_identity_two_term_complex_is_acyclic(self, fixture_spec):
        u = unit_object(fixture_spec.quiver)
        cx = BoundedComplex.from_map(id_morphism(u))
        assert support(cx) == set()
        for v in fixture_spec.quiver.vertices:
            assert eval_functor(cx, v).is_zero()

    def test_simple_supported_at_its_vertex(self, fixture_spec):
        for v in fixture_spec.quiver.vertices:
            s = simple_object(fixture_spec.quiver, v)
            cx = BoundedComplex.from_representation(s)
            assert support(cx) == {v}

    def test_euler_characteristic_invariance(self, rng):
        # the alternating sum of term dims equals that of cohomology dims
        for _ in range(10):
            quiver, relations = random_tensor_quiver(rng)
            cx = random_complex(rng, quiver, relations)
            for v in quiver.vertices:
                chain_chi = sum((-1) ** i * cx.term_dim(i, v)
                                for i in cx.degrees())
                h = eval_functor(cx, v)
                assert sum((-1) ** i * d for i, d in h.dims.items()) == chain_chi


class TestShiftAndCone:
    def test_shift_moves_support_degrees(self):
        spec = load_fixture("kronecker2")
        u = unit_object(spec.quiver)
        cx = BoundedComplex.from_representation(u)
        sh = shift(cx, 3)
        assert sh.degrees() == [-3]
        assert support(sh) == support(cx)

    def test_double_shift_restores_differential(self, rng):
        quiver, relations = random_tensor_quiver(rng)
        cx = random_complex(rng, quiver, relations)
        back = shift(shift(cx, 1), -1)
        assert back.degrees() == cx.degrees()
        for i in cx.differentials:
            for v in quiver.vertices:
                assert back.strand_matrix(i, v) == cx.strand_matrix(i, v)

    def test_cone_of_identity_is_acyclic(self, fixture_spec):
        u = unit_object(fixture_spec.quiver)
        cx = BoundedComplex.from_representation(u)
        f = ChainMap(cx, cx, {0: id_morphism(u)})
        assert support(cone(f)) == set()

    def test_cone_of_zero_is_sum_of_shift_and_target(self):
        spec = load_fixture("chain4")
        u = unit_object(spec.quiver)
        s = simple_object(spec.quiver, "2")
        cv = BoundedComplex.from_representation(u)
        cw = BoundedComplex.from_representation(s)
        z = ChainMap(cv, cw, {})
        c = cone(z)
        assert support(c) == support(shift(cv, 1)) | support(cw)

    def test_cone_rejects_non_chain_map(self):
        spec = load_fixture("chain4")
        u = unit_object(spec.quiver)
        cx = BoundedComplex.from_map(id_morphism(u))
        # identity in the bottom degree only does not commute with the
        # identity differential of cx on both sides
        bottom = cx.degrees()[0]
        bad = ChainMap(cx, cx, {bottom: id_morphism(u)})
        assert not bad.is_chain_map()
        with pytest.raises(ComplexError):
            cone(bad)


class TestTensorComplex:
    def test_kunneth_dims(self, rng):
        for _ in range(8):
            quiver, relations = random_tensor_quiver(rng)
            v = random_complex(rng, quiver, relations, depth=1)
            w = random_complex(rng, quiver, relations, depth=1)
            t = tensor_complex(v, w)
            for x in quiver.vertices:
                hv = eval_functor(v, x)
                hw = eval_functor(w, x)
                ht = eval_functor(t, x)
                for i in set(ht.dims) | {a + b for a in hv.dims
                                         for b in hw.dims}:
                    expected = sum(hv.dims.get(a, 0) * hw.dims.get(i - a, 0)
                                   for a in hv.dims)
                    assert ht.dims.get(i, 0) == expected

    def test_support_intersection(self, rng):
        for _ in range(10):
            quiver, relations = random_tensor_quiver(rng)
            v = random_complex(rng, quiver, relations)
            w = random_complex(rng, quiver, relations)
            assert support(tensor_complex(v, w)) == support(v) & support(w)

    def test_direct_sum_support_union(self, rng):
        for _ in range(10):
            quiver, relations = random_tensor_quiver(rng)
            v = random_complex(rng, quiver, relations)
            w = random_complex(rng, quiver, relations)
            assert support(direct_sum_complex(v, w)) == \
                support(v) | support(w)

    def test_unit_complex_is_tensor_identity(self):
        spec = load_fixture("kronecker2")
        u = BoundedComplex.from_representation(unit_object(spec.quiver))
        s = BoundedComplex.from_representation(
            simple_object(spec.quiver, "2"))
        t = tensor_complex(u, s)
        for v in spec.quiver.vertices:
            assert eval_functor(t, v).dims == eval_functor(s, v).dims


class TestSplitVectorComplex:
    def test_split_is_quasi_isomorphic(self, rng):
        # splitting is defined for complexes of vector spaces, i.e. over
        # the one-vertex quiver
        point = Quiver(("1",), ())
        for _ in range(6):
            cx = random_complex(rng, point, ())
            h, to_h, from_h = split_vector_complex(cx)
            # the cohomology complex stores zero maps between adjacent
            # terms: its differentials are zero, not absent
            assert all(d.is_zero() for d in h.differentials.values())
            assert to_h.is_chain_map() and from_h.is_chain_map()
            assert eval_functor(h, "1").dims == eval_functor(cx, "1").dims


class TestInducedMap:
    def test_identity_induces_identity(self, fixture_spec):
        u = unit_object(fixture_spec.quiver)
        cx = BoundedComplex.from_representation(u)
        f = ChainMap(cx, cx, {0: id_morphism(u)})
        for v in fixture_spec.quiver.vertices:
            mats = induced_cohomology_map(f, v)
            for i, m in mats.items():
                assert m == Matrix.identity(m.rows)


class TestJson:
    def test_round_trip(self, rng):
        for _ in range(5):
            quiver, relations = random_tensor_quiver(rng)
            cx = random_complex(rng, quiver, relations)
            data = complex_to_json(cx)
            back = complex_from_json(data, quiver)
            assert complex_to_json(back) == data
            assert support(back) == support(cx)
