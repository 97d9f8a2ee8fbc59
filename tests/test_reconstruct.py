import pytest

from quivertt import path_algebra, reconstruct, repcat
from quivertt.cli import run_command
from quivertt.fields import QQ, PrimeField
from quivertt.complexes import (BoundedComplex, ChainMap,
                                induced_cohomology_map)
from quivertt.path_algebra import PathAlgebra, module_hom_space
from quivertt.randgen import (random_complex, random_representation,
                              random_tensor_quiver, representation_menu)
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
            menu = representation_menu(quiver, relations)
            v = random_representation(rng, menu)
            w = random_representation(rng, menu)
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
        # the probe builder kills one more word than the relations do: the
        # largest column of the direct sum at each vertex after n
        real = repcat.Probe.relation_images
        spec = load_fixture("kronecker2")

        def one_more(self, relations, col):
            yield from real(self, relations, col)
            yield {0: self.field.one}

        monkeypatch.setattr(repcat.Probe, "relation_images", one_more)
        verdict = assemble_A(algebra_of(spec)).verdict
        assert verdict.dimensions_match is False
        assert verdict.isomorphic is False
        doc, code = run_command(
            ["reconstruct", str(FIXTURE_DIR / "kronecker2.quiver")])
        assert code == 0
        assert doc["verdict"]["dimensions_match"] is False
        assert doc["isomorphic_to_path_algebra"] is False

    def test_wrong_probe_image_clears_round_trip(self, monkeypatch):
        # the probe's arrow action sends the generator to twice the arrow
        real = repcat.Probe.act
        spec = load_fixture("kronecker2")
        arrow = spec.quiver.arrows[0]

        def doubled(self, vec, label):
            image = real(self, vec, label)
            if label == arrow.label and () in vec:
                return {g: c + c for g, c in image.items()}
            return image

        monkeypatch.setattr(repcat.Probe, "act", doubled)
        verdict = assemble_A(algebra_of(spec)).verdict
        assert verdict.dimensions_match is True
        assert verdict.round_trip_identity is False
        # the arrow's step from the trivial class is twice the quotient's
        assert verdict.structure_constants_match is False
        assert verdict.isomorphic is False
        doc, code = run_command(
            ["reconstruct", str(FIXTURE_DIR / "kronecker2.quiver")])
        assert code == 0
        assert doc["verdict"]["round_trip_identity"] is False
        assert doc["verdict"]["structure_constants_match"] is False
        assert doc["isomorphic_to_path_algebra"] is False

    def test_doubled_module_map_clears_round_trip(self, monkeypatch):
        # the generator pushed along an arrow's word lands on twice that
        # word's vector, while each arrow still acts as the quotient's
        # arrow step: the module map M_m -> M_n of the arrow class is
        # doubled, and only the round trip sees it
        real = repcat.Probe.walk
        spec = load_fixture("kronecker2")
        arrow = spec.quiver.arrows[0]

        def doubled(self, word, start=None):
            vec = real(self, word, start)
            if start is None and word == (arrow.label,):
                return {g: c + c for g, c in vec.items()}
            return vec

        monkeypatch.setattr(repcat.Probe, "walk", doubled)
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

    @pytest.mark.parametrize("name", ["beilinson2", "beilinson3", "square"])
    def test_skipped_relation_image_clears_a_verdict(self, monkeypatch,
                                                     name):
        # the probe builder leaves out one image x * r, the last one at
        # the first vertex where relations end, so that M_n(w) is too large
        real = repcat.Probe.relation_images
        skipped = []

        def skip_one(self, relations, col):
            images = list(real(self, relations, col))
            if images and not skipped:
                skipped.append(images.pop())
            return images

        monkeypatch.setattr(repcat.Probe, "relation_images", skip_one)
        doc, code = run_command(
            ["reconstruct", str(FIXTURE_DIR / f"{name}.quiver")])
        assert code == 0
        assert doc["verdict"]["dimensions_match"] is False
        assert doc["isomorphic_to_path_algebra"] is False

    def test_module_map_outside_its_pair_clears_round_trip(self,
                                                           monkeypatch):
        # the generator pushed along an arrow's word picks up the
        # generator e_n itself, outside e_n Lambda e_m: the dimensions
        # still match, and only the round trip sees it
        real = repcat.Probe.walk
        spec = load_fixture("kronecker2")
        arrow = spec.quiver.arrows[0]

        def stray(self, word, start=None):
            vec = real(self, word, start)
            if start is None and word == (arrow.label,):
                return {**vec, (): self.field.one}
            return vec

        monkeypatch.setattr(repcat.Probe, "walk", stray)
        verdict = assemble_A(algebra_of(spec)).verdict
        assert verdict.dimensions_match is True
        assert verdict.round_trip_identity is False
        assert verdict.structure_constants_match is True
        doc, code = run_command(
            ["reconstruct", str(FIXTURE_DIR / "kronecker2.quiver")])
        assert code == 0
        assert doc["isomorphic_to_path_algebra"] is False

    def test_wrong_structure_constant_clears_match(self, monkeypatch):
        # e_s * a = a for the arrow a: s -> t; the quotient's arrow step
        # now claims 2a, while the probe still acts by a
        real = PathAlgebra.arrow_step
        spec = load_fixture("kronecker2")
        arrow = spec.quiver.arrows[0]

        def wrong(alg, x, label):
            out = real(alg, x, label)
            if alg.basis[x].is_trivial and label == arrow.label:
                out = {gi: c + c for gi, c in out.items()}
            return out

        monkeypatch.setattr(PathAlgebra, "arrow_step", wrong)
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

    def test_checks_walk_each_class_and_step_each_arrow(self, monkeypatch):
        # one generator walk per basis class and one quotient arrow step
        # per (basis class, arrow out of its target) pair: the patched
        # `walk` and `arrow_step` above see every check.  The quotient's
        # normal forms of beilinson2 fold no longer word, so every counted
        # `arrow_step` is a check
        alg = algebra_of(load_fixture("beilinson2"))
        calls = {"walk": 0, "arrow_step": 0}

        def counted(owner, name, check):
            real = getattr(owner, name)

            def wrapper(*args):
                calls[name] += check(*args)
                return real(*args)
            monkeypatch.setattr(owner, name, wrapper)

        # the builder walks from the basis vectors of relation sources too
        counted(repcat.Probe, "walk", lambda self, word, start=None:
                start is None)
        counted(PathAlgebra, "arrow_step", lambda *args: 1)
        pairs = sum(len(alg.quiver.arrows_from(p.target)) for p in alg.basis)
        assert assemble_A(alg).verdict.isomorphic
        assert calls == {"walk": alg.dim, "arrow_step": pairs}

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


class TestQuotientMutants:
    """A wrong Groebner basis gives a wrong quotient.  The probes are built
    from the quiver and the relations alone, so `reconstruct` reports it."""

    @staticmethod
    def report(tmp_path, name, field):
        text = (FIXTURE_DIR / f"{name}.quiver").read_text()
        assert text.count("field QQ\n") == 1
        spec = tmp_path / f"{name}.quiver"
        spec.write_text(text.replace("field QQ\n", f"field {field}\n"))
        return run_command(["reconstruct", str(spec)])

    @pytest.mark.parametrize("field", ["QQ", "F 101"])
    @pytest.mark.parametrize("name", ["beilinson2", "beilinson3", "square"])
    def test_negated_rules_clear_structure_constants(self, monkeypatch,
                                                     tmp_path, name, field):
        # every rule tip -> rhs becomes tip -> -rhs after the final
        # reduction: the tips and the basis stay, the products change sign
        real = path_algebra.groebner_basis

        def negated(polys, fld):
            gb = real(polys, fld)
            for tip, rhs in gb.rules.items():
                gb.rules[tip] = fld.nonzero((w, -c) for w, c in rhs.items())
            return gb

        monkeypatch.setattr(path_algebra, "groebner_basis", negated)
        doc, code = self.report(tmp_path, name, field)
        assert code == 0
        assert doc["verdict"]["structure_constants_match"] is False
        assert doc["isomorphic_to_path_algebra"] is False

    @pytest.mark.parametrize("field", ["QQ", "F 101"])
    def test_extra_rule_clears_dimensions(self, monkeypatch, tmp_path, field):
        # the rule x1_0 * x2_0 -> 0 kills a basis path of beilinson2 that
        # the relations keep
        real = path_algebra.groebner_basis

        def extra(polys, fld):
            gb = real(polys, fld)
            gb.rules[("x1_0", "x2_0")] = {}
            return gb

        monkeypatch.setattr(path_algebra, "groebner_basis", extra)
        doc, code = self.report(tmp_path, "beilinson2", field)
        assert code == 0
        assert doc["dimension"] == 14
        assert doc["verdict"]["dimensions_match"] is False
        assert doc["isomorphic_to_path_algebra"] is False

    @pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=str)
    def test_extra_rule_raises_in_the_probe_evaluator(self, monkeypatch,
                                                      field):
        # the probe M_1 keeps the word x1_0 * x2_0, which the quotient
        # with the rule x1_0 * x2_0 -> 0 has no class for
        real = path_algebra.groebner_basis

        def extra(polys, fld):
            gb = real(polys, fld)
            gb.rules[("x1_0", "x2_0")] = {}
            return gb

        monkeypatch.setattr(path_algebra, "groebner_basis", extra)
        spec = load_fixture("beilinson2")
        alg = PathAlgebra(spec.quiver, spec.relations, field)
        assert ("x1_0", "x2_0") not in alg.word_index
        first = {alg.word_index[("x1_0",)]: field.one}
        second = {alg.word_index[("x2_0",)]: field.one}
        evaluator = ProbeEvaluator(alg)
        assert evaluator.yoneda(first, "1") == first
        with pytest.raises(ReconstructionError, match=r"x1_0\*x2_0"):
            evaluator.compose(first, "1", second)


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
