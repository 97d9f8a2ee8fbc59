import pytest

from quivertt import reconstruct
from quivertt.cli import run_command
from quivertt.fields import QQ, PrimeField
from quivertt.complexes import (BoundedComplex, ChainMap,
                                induced_cohomology_map)
from quivertt.path_algebra import PathAlgebra, module_hom_space
from quivertt.randgen import (random_complex, random_representation,
                              random_tensor_quiver)
from quivertt.repcat import hom_space
from quivertt.reconstruct import (ProbeEvaluator, ReconstructionError,
                                  assemble_A, center_and_z, phi, psi,
                                  rational_points, yoneda_coordinates)

from conftest import FIXTURE_DIR, beilinson_text, load_fixture

SMALL_FIXTURES = ["kronecker1", "kronecker2", "kronecker3", "kronecker4",
                  "beilinson1", "beilinson2", "square", "disconnected",
                  "chain4"]


@pytest.fixture(params=SMALL_FIXTURES)
def small_spec(request):
    return load_fixture(request.param)


def algebra_of(spec):
    return PathAlgebra(spec.quiver, spec.relations)


class TestRationalPoints:
    def test_points_separate_on_simples(self, small_spec):
        report = rational_points(algebra_of(small_spec))
        assert report.identity_pattern
        assert report.kernels_are_primes
        assert len(report.points) == len(small_spec.quiver.vertices)


class TestPhiPsi:
    def test_round_trip_on_basis(self, small_spec):
        alg = PathAlgebra(small_spec.quiver, small_spec.relations)
        for i in range(alg.dim):
            elem = {i: QQ.one}
            t = phi(alg, elem)
            assert yoneda_coordinates(alg, t) == elem

    def test_psi_phi_round_trip_on_module_maps(self, small_spec):
        alg = PathAlgebra(small_spec.quiver, small_spec.relations)
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
        alg = PathAlgebra(spec.quiver, spec.relations)
        e1 = alg.idempotent_index["1"]
        e2 = alg.idempotent_index["2"]
        with pytest.raises(ReconstructionError):
            phi(alg, {e1: QQ.one, e2: QQ.one})

    def test_psi_rejects_image_outside_pair(self):
        spec = load_fixture("kronecker2")
        alg = algebra_of(spec)
        arrow = spec.quiver.arrows[0]
        n, m = arrow.source, arrow.target
        a = alg.word_index[(arrow.label,)]
        assert psi(alg, n, m, {a: QQ.one}) == {a: QQ.one}
        for image in ({alg.idempotent_index[n]: QQ.one},
                      {a: QQ.one, alg.idempotent_index[m]: QQ.one}):
            with pytest.raises(ReconstructionError):
                psi(alg, n, m, image)

    def test_multiplicativity(self, small_spec):
        # phi(p * q) = phi(p) composed with phi(q) on probes
        alg = PathAlgebra(small_spec.quiver, small_spec.relations)
        probes = ProbeEvaluator(alg)
        for i in range(alg.dim):
            for j in range(alg.dim):
                n, m = alg.pair_of[i]
                m2, l = alg.pair_of[j]
                if m != m2:
                    continue
                first = phi(alg, {i: QQ.one})
                second = phi(alg, {j: QQ.one})
                composed = probes.compose(first.element, first.source_vertex,
                                          second.element)
                assert composed == alg.product({i: QQ.one}, {j: QQ.one})


class TestNaturality:
    def test_phi_commutes_with_morphism_functors(self, rng):
        # F_m(g) . phi(p)_V = phi(p)_W . F_n(g) for morphisms g of
        # degree-zero complexes coming from representation morphisms
        for _ in range(5):
            quiver, relations = random_tensor_quiver(rng)
            alg = PathAlgebra(quiver, relations)
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
            alg = PathAlgebra(quiver, relations)
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
        assembled = assemble_A(algebra_of(small_spec))
        assert assembled.verdict.isomorphic
        assert assembled.dim == assembled.algebra.dim
        for (n, m), space in assembled.components.items():
            assert space.dimension == space.hom_route_dimension
            assert space.dimension == assembled.algebra.dim_pair(n, m)

    def test_rational_relations_over_prime_field(self, small_spec):
        f101 = PrimeField(101)
        assembled = assemble_A(PathAlgebra(small_spec.quiver,
                                           small_spec.relations, f101))
        assert assembled.verdict.isomorphic
        assert assembled.algebra.field == f101
        assert assembled.dim == PathAlgebra(
            small_spec.quiver, small_spec.relations).dim
        center = center_and_z(assembled)
        assert center.dimensions_match and center.z_is_unital_ring_map

    def test_route_dimension_mismatch_clears_verdict(self, monkeypatch):
        real = reconstruct.module_hom_space
        spec = load_fixture("kronecker2")
        first = spec.quiver.vertices[0]

        def drop_one(alg, n, m):
            maps = real(alg, n, m)
            return maps[:-1] if n == m == first else maps

        monkeypatch.setattr(reconstruct, "module_hom_space", drop_one)
        verdict = assemble_A(algebra_of(spec)).verdict
        assert verdict.dimensions_match is False
        assert verdict.isomorphic is False
        doc, code = run_command(
            ["reconstruct", str(FIXTURE_DIR / "kronecker2.quiver")])
        assert code == 0
        assert doc["verdict"]["dimensions_match"] is False
        assert doc["isomorphic_to_path_algebra"] is False

    def test_wrong_probe_image_clears_round_trip(self, monkeypatch):
        # the probe route sends the generator to twice the arrow class
        real = reconstruct.ProbeEvaluator.generator_image
        spec = load_fixture("kronecker2")
        arrow = spec.quiver.arrows[0]

        def doubled(self, n, i):
            image = real(self, n, i)
            if self.alg.basis[i].arrows == (arrow.label,):
                return {g: c + c for g, c in image.items()}
            return image

        monkeypatch.setattr(reconstruct.ProbeEvaluator, "generator_image",
                            doubled)
        verdict = assemble_A(algebra_of(spec)).verdict
        assert verdict.dimensions_match is True
        assert verdict.round_trip_identity is False
        # the arrow composed with a class after it has the one term
        # 2 * walk, which `compose` must scale, not copy
        assert verdict.structure_constants_match is False
        assert verdict.isomorphic is False
        doc, code = run_command(
            ["reconstruct", str(FIXTURE_DIR / "kronecker2.quiver")])
        assert code == 0
        assert doc["verdict"]["round_trip_identity"] is False
        assert doc["verdict"]["structure_constants_match"] is False
        assert doc["isomorphic_to_path_algebra"] is False

    def test_doubled_module_map_clears_round_trip(self, monkeypatch):
        # route 2 sends the generator to twice an arrow class: still a
        # module map, but psi of it is not the route-1 basis class
        real = reconstruct.module_hom_space
        spec = load_fixture("kronecker2")
        arrow = spec.quiver.arrows[0]

        def doubled(alg, n, m):
            images = real(alg, n, m)
            if (n, m) == (arrow.source, arrow.target):
                images[0] = {g: c + c for g, c in images[0].items()}
            return images

        monkeypatch.setattr(reconstruct, "module_hom_space", doubled)
        verdict = assemble_A(algebra_of(spec)).verdict
        assert verdict.dimensions_match is True
        assert verdict.round_trip_identity is False
        assert verdict.structure_constants_match is True
        assert verdict.isomorphic is False
        doc, code = run_command(
            ["reconstruct", str(FIXTURE_DIR / "kronecker2.quiver")])
        assert code == 0
        assert doc["verdict"]["round_trip_identity"] is False
        assert doc["isomorphic_to_path_algebra"] is False

    def test_wrong_structure_constant_clears_match(self, monkeypatch):
        # e_s * a = a for the arrow a: s -> t; the path algebra route
        # now claims 2a, while the probes still compose to a
        real = PathAlgebra.product
        spec = load_fixture("kronecker2")
        arrow = spec.quiver.arrows[0]

        def wrong(alg, a, b):
            out = real(alg, a, b)
            pair = [alg.basis[i] for i in a] + [alg.basis[j] for j in b]
            if (len(pair) == 2 and pair[0].is_trivial
                    and pair[0].source == arrow.source
                    and pair[1].arrows == (arrow.label,)):
                out = {gi: c + c for gi, c in out.items()}
            return out

        monkeypatch.setattr(PathAlgebra, "product", wrong)
        verdict = assemble_A(algebra_of(spec)).verdict
        assert verdict.dimensions_match is True
        assert verdict.round_trip_identity is True
        assert verdict.structure_constants_match is False
        assert verdict.isomorphic is False
        doc, code = run_command(
            ["reconstruct", str(FIXTURE_DIR / "kronecker2.quiver")])
        assert code == 0
        assert doc["verdict"]["structure_constants_match"] is False
        assert doc["isomorphic_to_path_algebra"] is False

    def test_checks_go_through_yoneda_compose_and_product(self,
                                                          monkeypatch):
        # one `yoneda` per basis class and one `compose` and one `product`
        # per composable pair: the probe span of the tracer and the
        # patched `product` above see every check
        alg = algebra_of(load_fixture("beilinson2"))
        for m in alg.quiver.vertices:   # cached; these call `product` too
            alg.generator_relations(m)
        calls = {"yoneda": 0, "compose": 0, "product": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, wrapper)

        counted(reconstruct.ProbeEvaluator, "yoneda")
        counted(reconstruct.ProbeEvaluator, "compose")
        counted(PathAlgebra, "product")
        composable = sum(alg.pair_of[i][1] == alg.pair_of[j][0]
                         for i in range(alg.dim) for j in range(alg.dim))
        assert assemble_A(alg).verdict.isomorphic
        assert calls == {"yoneda": alg.dim, "compose": composable,
                         "product": composable}

    def test_beilinson_2_7_reconstructs(self, tmp_path):
        # dim 210, within the path budget
        spec = tmp_path / "beil27.quiver"
        spec.write_text(beilinson_text(2, 7))
        doc, code = run_command(["reconstruct", str(spec)])
        assert code == 0
        assert doc["dimension"] == 210
        assert doc["isomorphic_to_path_algebra"] is True
        assert doc["center_dimension"] == doc["end_unit_dimension"] == 1

    def test_random_reconstruction(self, rng):
        for _ in range(5):
            quiver, relations = random_tensor_quiver(rng)
            assembled = assemble_A(PathAlgebra(quiver, relations))
            assert assembled.verdict.isomorphic


class TestCenter:
    def test_connected_center_is_one_dimensional(self):
        for name in ("kronecker2", "beilinson2", "square", "chain4"):
            spec = load_fixture(name)
            assembled = assemble_A(algebra_of(spec))
            center = center_and_z(assembled)
            assert center.center_dimension == 1
            assert center.dimensions_match

    def test_disconnected_center(self):
        spec = load_fixture("disconnected")
        assembled = assemble_A(algebra_of(spec))
        center = center_and_z(assembled)
        assert center.center_dimension == 2
        assert center.end_unit_dimension == 2
        assert center.dimensions_match

    def test_z_is_unital_ring_map_into_center(self, small_spec):
        assembled = assemble_A(algebra_of(small_spec))
        center = center_and_z(assembled)
        assert center.z_lands_in_center
        assert center.z_is_unital_ring_map

    def test_z_dropping_a_vertex_is_not_unital(self, monkeypatch):
        # on the connected kronecker2, End(U) is spanned by the identity,
        # and its image with the last vertex dropped is still
        # multiplicative (e_1 e_1 = e_1), so only the unit test sees it
        real = reconstruct.z_image
        spec = load_fixture("kronecker2")
        last = spec.quiver.vertices[-1]

        def drop_last(alg, f):
            return {i: c for i, c in real(alg, f).items()
                    if i != alg.idempotent_index[last]}

        monkeypatch.setattr(reconstruct, "z_image", drop_last)
        assembled = assemble_A(algebra_of(spec))
        center = center_and_z(assembled)
        assert center.z_is_unital_ring_map is False
        doc, code = run_command(
            ["reconstruct", str(FIXTURE_DIR / "kronecker2.quiver")])
        assert code == 0 and doc["z_is_unital_ring_map"] is False

    def test_center_elements_commute(self, small_spec):
        assembled = assemble_A(algebra_of(small_spec))
        center = center_and_z(assembled)
        alg = assembled.algebra
        for z in center.center_basis:
            for i in range(alg.dim):
                b = {i: QQ.one}
                assert alg.product(z, b) == alg.product(b, z)
