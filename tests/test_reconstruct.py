import pytest

from quivertt import reconstruct
from quivertt.cli import run_command
from quivertt.fields import QQ, PrimeField
from quivertt.complexes import (BoundedComplex, ChainMap,
                                induced_cohomology_map)
from quivertt.path_algebra import build_path_algebra, module_hom_space
from quivertt.randgen import (random_complex, random_representation,
                              random_tensor_quiver)
from quivertt.repcat import hom_space
from quivertt.reconstruct import (ReconstructionError, assemble_A,
                                  center_and_z, compose_on_probe, phi, psi,
                                  rational_points, yoneda_coordinates)
from quivertt.spectrum import TensorRelationError

from conftest import FIXTURE_DIR, load_fixture

SMALL_FIXTURES = ["kronecker1", "kronecker2", "kronecker3", "kronecker4",
                  "beilinson1", "beilinson2", "square", "disconnected",
                  "chain4"]


@pytest.fixture(params=SMALL_FIXTURES)
def small_spec(request):
    return load_fixture(request.param)


class TestRationalPoints:
    def test_points_separate_on_simples(self, small_spec):
        report = rational_points(small_spec.quiver, small_spec.relations)
        assert report.identity_pattern
        assert report.kernels_are_primes
        assert len(report.points) == len(small_spec.quiver.vertices)

    def test_refuses_non_tensor_relations(self):
        spec = load_fixture("chain4")
        from quivertt.quiver import Path, Relation
        p = Path.from_arrows([spec.quiver.arrow("a"), spec.quiver.arrow("b")])
        with pytest.raises(TensorRelationError):
            rational_points(spec.quiver, (Relation("1", "3", ((QQ.one, p),)),))


class TestPhiPsi:
    def test_round_trip_on_basis(self, small_spec):
        alg = build_path_algebra(small_spec.quiver, small_spec.relations)
        for i in range(alg.dim):
            elem = {i: QQ.one}
            t = phi(alg, elem)
            assert yoneda_coordinates(alg, t) == elem

    def test_psi_phi_round_trip_on_module_maps(self, small_spec):
        alg = build_path_algebra(small_spec.quiver, small_spec.relations)
        for n in small_spec.quiver.vertices:
            for m in small_spec.quiver.vertices:
                for f in module_hom_space(alg, n, m):
                    elem = psi(alg, n, m, f)
                    if not elem:
                        continue
                    t = phi(alg, elem, n, m)
                    assert yoneda_coordinates(alg, t) == elem

    def test_phi_rejects_inhomogeneous_without_pair(self):
        spec = load_fixture("chain4")
        alg = build_path_algebra(spec.quiver, spec.relations)
        e1 = alg.idempotent_index["1"]
        e2 = alg.idempotent_index["2"]
        with pytest.raises(ReconstructionError):
            phi(alg, {e1: QQ.one, e2: QQ.one})

    def test_multiplicativity(self, small_spec):
        # phi(p * q) = phi(p) composed with phi(q) on probes
        alg = build_path_algebra(small_spec.quiver, small_spec.relations)
        for i in range(alg.dim):
            for j in range(alg.dim):
                n, m = alg.pair_of[i]
                m2, l = alg.pair_of[j]
                if m != m2:
                    continue
                first = phi(alg, {i: QQ.one})
                second = phi(alg, {j: QQ.one})
                composed = compose_on_probe(alg, first, second)
                assert composed == alg.product({i: QQ.one}, {j: QQ.one})


class TestNaturality:
    def test_phi_commutes_with_morphism_functors(self, rng):
        # F_m(g) . phi(p)_V = phi(p)_W . F_n(g) for morphisms g of
        # degree-zero complexes coming from representation morphisms
        for _ in range(5):
            quiver, relations = random_tensor_quiver(rng)
            alg = build_path_algebra(quiver, relations)
            v = random_representation(rng, quiver, relations)
            w = random_representation(rng, quiver, relations)
            basis = hom_space(v, w)
            if not basis:
                continue
            g0 = basis[0]
            cv = BoundedComplex.from_representation(v)
            cw = BoundedComplex.from_representation(w)
            g = ChainMap(cv, cw, {0: g0})
            assert g.is_chain_map()
            for i in range(alg.dim):
                n, m = alg.pair_of[i]
                t = phi(alg, {i: QQ.one})
                tv = t.on_complex(cv)[0]
                tw = t.on_complex(cw)[0]
                from quivertt.linalg import Matrix
                fn_g = induced_cohomology_map(g, n).get(
                    0, Matrix.zeros(w.dims[n], v.dims[n]))
                fm_g = induced_cohomology_map(g, m).get(
                    0, Matrix.zeros(w.dims[m], v.dims[m]))
                assert fm_g @ tv == tw @ fn_g

    def test_phi_on_shifted_and_coned_complexes(self, rng):
        # the identity chain map commutes with phi on arbitrary complexes
        for _ in range(3):
            quiver, relations = random_tensor_quiver(rng)
            alg = build_path_algebra(quiver, relations)
            cx = random_complex(rng, quiver, relations)
            for i in range(alg.dim):
                t = phi(alg, {i: QQ.one})
                mats = t.on_complex(cx)
                n, m = alg.pair_of[i]
                from quivertt.complexes import eval_functor
                hn = eval_functor(cx, n)
                hm = eval_functor(cx, m)
                for d, mat in mats.items():
                    assert mat.cols == hn.dims.get(d, 0)
                    assert mat.rows == hm.dims.get(d, 0)


class TestAssembleA:
    def test_fixture_reconstruction(self, small_spec):
        assembled = assemble_A(small_spec.quiver, small_spec.relations)
        assert assembled.verdict.isomorphic
        assert assembled.dim == assembled.algebra.dim
        for (n, m), space in assembled.components.items():
            assert space.dimension == space.hom_route_dimension
            assert space.dimension == assembled.algebra.dim_pair(n, m)

    def test_rational_relations_over_prime_field(self, small_spec):
        f101 = PrimeField(101)
        assembled = assemble_A(small_spec.quiver, small_spec.relations, f101)
        assert assembled.verdict.isomorphic
        assert assembled.algebra.field == f101
        assert assembled.dim == build_path_algebra(
            small_spec.quiver, small_spec.relations).dim
        center = center_and_z(small_spec.quiver, small_spec.relations,
                              assembled, f101)
        assert center.dimensions_match and center.z_is_unital_ring_map

    def test_route_dimension_mismatch_clears_verdict(self, monkeypatch):
        real = reconstruct.module_hom_space
        spec = load_fixture("kronecker2")
        first = spec.quiver.vertices[0]

        def drop_one(alg, n, m):
            maps = real(alg, n, m)
            return maps[:-1] if n == m == first else maps

        monkeypatch.setattr(reconstruct, "module_hom_space", drop_one)
        verdict = assemble_A(spec.quiver, spec.relations).verdict
        assert verdict.dimensions_match is False
        assert verdict.isomorphic is False
        doc, code = run_command(
            ["reconstruct", str(FIXTURE_DIR / "kronecker2.quiver")])
        assert code == 0
        assert doc["verdict"]["dimensions_match"] is False
        assert doc["isomorphic_to_path_algebra"] is False

    def test_random_reconstruction(self, rng):
        for _ in range(5):
            quiver, relations = random_tensor_quiver(rng)
            assembled = assemble_A(quiver, relations)
            assert assembled.verdict.isomorphic


class TestCenter:
    def test_connected_center_is_one_dimensional(self):
        for name in ("kronecker2", "beilinson2", "square", "chain4"):
            spec = load_fixture(name)
            assembled = assemble_A(spec.quiver, spec.relations)
            center = center_and_z(spec.quiver, spec.relations, assembled)
            assert center.center_dimension == 1
            assert center.dimensions_match

    def test_disconnected_center(self):
        spec = load_fixture("disconnected")
        assembled = assemble_A(spec.quiver, spec.relations)
        center = center_and_z(spec.quiver, spec.relations, assembled)
        assert center.center_dimension == 2
        assert center.end_unit_dimension == 2
        assert center.dimensions_match

    def test_z_is_unital_ring_map_into_center(self, small_spec):
        assembled = assemble_A(small_spec.quiver, small_spec.relations)
        center = center_and_z(small_spec.quiver, small_spec.relations,
                              assembled)
        assert center.z_lands_in_center
        assert center.z_is_unital_ring_map

    def test_center_elements_commute(self, small_spec):
        assembled = assemble_A(small_spec.quiver, small_spec.relations)
        center = center_and_z(small_spec.quiver, small_spec.relations,
                              assembled)
        alg = assembled.algebra
        for z in center.center_basis:
            for i in range(alg.dim):
                b = {i: QQ.one}
                assert alg.product(z, b) == alg.product(b, z)
