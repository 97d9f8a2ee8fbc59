import re

import pytest

from quivertt import path_algebra, quiver, reconstruct, repcat
from quivertt.cli import run_command
from quivertt.fields import QQ, PrimeField
from quivertt.complexes import (BoundedComplex, ChainMap,
                                induced_cohomology_map)
from quivertt.dsl import parse_quiver_file
from quivertt.path_algebra import (PathAlgebra, Presentation,
                                   QuotientCertificateError, RewriteError,
                                   module_hom_space)
from quivertt.quiver import list_paths
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
        evaluator = ProbeEvaluator(alg)
        for i in range(alg.dim):
            elem = {i: QQ.one}
            t = phi(alg, elem)
            assert yoneda_coordinates(evaluator, t) == elem
        # one probe per source vertex, built once
        assert len(evaluator._probes) == len(
            {p.source for p in alg.basis})

    def test_psi_phi_round_trip_on_module_maps(self, small_spec):
        alg = PathAlgebra(small_spec.quiver, small_spec.relations)
        evaluator = ProbeEvaluator(alg)
        for n in small_spec.quiver.vertices:
            for m in small_spec.quiver.vertices:
                for f in module_hom_space(alg, n, m):
                    elem = psi(alg, n, m, f)
                    if not elem:
                        continue
                    t = phi(alg, elem, n, m)
                    assert yoneda_coordinates(evaluator, t) == elem

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
                if alg.basis[i].target != alg.basis[j].source:
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
            for i, p in enumerate(alg.basis):
                n, m = p.source, p.target
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
            for i, p in enumerate(alg.basis):
                t = phi(alg, {i: QQ.one})
                mats = t.on_complex(cx)
                n, m = p.source, p.target
                from quivertt.complexes import eval_functor
                hn = eval_functor(cx, n)
                hm = eval_functor(cx, m)
                for d, mat in mats.items():
                    assert mat.cols == hn.dims.get(d, 0)
                    assert mat.rows == hm.dims.get(d, 0)


class TestAssembleA:
    def test_fixture_reconstruction(self, small_spec):
        alg = algebra_of(small_spec)
        assert assemble_A(alg).isomorphic
        vertices = small_spec.quiver.vertices
        for n in vertices:
            probe = repcat.Probe(alg.quiver, alg.relations, alg.field, n)
            for m in vertices:
                assert alg.dim_pair(n, m) == probe.dim(m)

    def test_rational_relations_over_prime_field(self, small_spec):
        f101 = PrimeField(101)
        alg = PathAlgebra(small_spec.quiver, small_spec.relations, f101)
        assert assemble_A(alg).isomorphic
        assert alg.dim == PathAlgebra(
            small_spec.quiver, small_spec.relations).dim
        center = center_and_z(alg)
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
        verdict = assemble_A(algebra_of(spec))
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
        verdict = assemble_A(algebra_of(spec))
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
        # the vector of the leaf class x0, the generator pushed along its
        # one arrow, lands on twice that word's vector, while each arrow
        # still acts as the quotient's arrow step: the module map
        # M_m -> M_n of the arrow class is doubled, and only the round trip
        # sees it.  A class's vector is its prefix class's vector walked
        # along its last arrow, and no arrow acts on the leaf's vector
        real = repcat.Probe.walk
        spec = load_fixture("kronecker2")
        arrow = spec.quiver.arrows[0]

        def doubled(self, word, start=None):
            vec = real(self, word, start)
            if start == {(): self.field.one} and word == (arrow.label,):
                return {g: c + c for g, c in vec.items()}
            return vec

        monkeypatch.setattr(repcat.Probe, "walk", doubled)
        verdict = assemble_A(algebra_of(spec))
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
        # the vector of the leaf class x0, the generator pushed along its
        # one arrow, picks up the generator e_n itself, outside
        # e_n Lambda e_m: the dimensions still match, and only the round
        # trip sees it
        real = repcat.Probe.walk
        spec = load_fixture("kronecker2")
        arrow = spec.quiver.arrows[0]

        def stray(self, word, start=None):
            vec = real(self, word, start)
            if start == {(): self.field.one} and word == (arrow.label,):
                return {**vec, (): self.field.one}
            return vec

        monkeypatch.setattr(repcat.Probe, "walk", stray)
        verdict = assemble_A(algebra_of(spec))
        assert verdict.dimensions_match is True
        assert verdict.round_trip_identity is False
        assert verdict.structure_constants_match is True
        doc, code = run_command(
            ["reconstruct", str(FIXTURE_DIR / "kronecker2.quiver")])
        assert code == 0
        assert doc["isomorphic_to_path_algebra"] is False

    def test_wrong_structure_constant_clears_match(self, monkeypatch):
        # e_1 * x0 = x0 for the arrow x0: 1 -> 2; the quotient's arrow step
        # now claims the parallel arrow x1, while the probe still acts by x0
        real = PathAlgebra.arrow_step
        spec = load_fixture("kronecker2")
        arrow, other = spec.quiver.arrows

        def wrong(alg, x, label):
            if alg.basis[x].is_trivial and label == arrow.label:
                label = other.label
            return real(alg, x, label)

        monkeypatch.setattr(PathAlgebra, "arrow_step", wrong)
        verdict = assemble_A(algebra_of(spec))
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
        # each non-trivial class's vector is one walk along its last arrow
        # from its prefix class's vector, so one probe `act`, and no word
        # is walked from the generator; each (basis class, arrow out of its
        # target) pair is one more `act` and one quotient `arrow_step`, so
        # the patched `walk`, `act` and `arrow_step` above see every check.
        # The quotient's normal forms of beilinson2 fold no longer word, so
        # every counted `arrow_step` is a check.  The probe builder walks
        # from the basis vectors of relation sources too; its calls are
        # not counted
        alg = algebra_of(load_fixture("beilinson2"))
        calls = {"generator walk": 0, "walk": 0, "act": 0, "arrow_step": 0}
        building = []

        def counted(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args):
                if not building:
                    calls[key(*args)] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, wrapper)

        real_init = repcat.Probe.__init__

        def init(self, *args):
            building.append(self)
            real_init(self, *args)
            building.pop()

        monkeypatch.setattr(repcat.Probe, "__init__", init)
        counted(repcat.Probe, "walk", lambda self, word, start=None:
                "walk" if start is not None else "generator walk")
        counted(repcat.Probe, "act", lambda *args: "act")
        counted(PathAlgebra, "arrow_step", lambda *args: "arrow_step")
        classes = sum(1 for p in alg.basis if p.arrows)
        pairs = sum(len(alg.quiver.arrows_from(p.target)) for p in alg.basis)
        assert assemble_A(alg).isomorphic
        assert calls == {"generator walk": 0, "walk": classes,
                         "act": classes + pairs, "arrow_step": pairs}

    def test_beilinson_2_7_reconstructs(self, tmp_path):
        # dim 210, within the path budget
        spec = tmp_path / "beil27.quiver"
        spec.write_text(beilinson_text(2, 7))
        doc, code = run_command(["reconstruct", str(spec)])
        assert code == 0
        assert doc["dimension"] == 210
        assert doc["isomorphic_to_path_algebra"] is True
        assert doc["center_dimension"] == doc["end_unit_dimension"] == 1

    def test_beilinson_6_7_reconstructs_with_the_budget_lifted(
            self, monkeypatch, tmp_path):
        # P^6 = beil(6,7) has 160132 paths, above the budget, so the CLI
        # refuses it; in-process, with the budget lifted, it fills a step
        # table of 9009 entries
        spec = tmp_path / "beil67.quiver"
        spec.write_text(beilinson_text(6, 7))
        doc, code = run_command(["reconstruct", str(spec)])
        assert code == 1 and doc["error_type"] == "ResourceBudget"
        monkeypatch.setattr(quiver, "MAX_PATHS", 160132)
        doc, code = run_command(["reconstruct", str(spec)])
        assert code == 0
        assert doc["dimension"] == 3003
        assert doc["isomorphic_to_path_algebra"] is True
        assert doc["center_dimension"] == doc["end_unit_dimension"] == 1

    def test_random_reconstruction(self, rng):
        for _ in range(5):
            quiver, relations = random_tensor_quiver(rng)
            assert assemble_A(PathAlgebra(quiver, relations)).isomorphic


def negate_rules(monkeypatch):
    """Every rule tip -> rhs becomes tip -> -rhs after the final
    reduction: the tips and the basis stay, the products change sign."""
    real = path_algebra.groebner_basis

    def negated(polys, fld):
        gb = real(polys, fld)
        for tip, rhs in gb.rules.items():
            gb.rules[tip] = fld.nonzero((w, -c) for w, c in rhs.items())
        return gb

    monkeypatch.setattr(path_algebra, "groebner_basis", negated)


def rewrite_x1_0_x2_0(monkeypatch, rhs):
    """The rule x1_0 * x2_0 -> rhs, `rhs` a word with coefficient 1, joins
    the Groebner basis of beilinson2: its shape passes the certificate."""
    real = path_algebra.groebner_basis

    def extra(polys, fld):
        gb = real(polys, fld)
        gb.rules[("x1_0", "x2_0")] = {rhs: fld.one}
        return gb

    monkeypatch.setattr(path_algebra, "groebner_basis", extra)


def add_extra_rule(monkeypatch):
    """The rule x1_0 * x2_0 -> 0 joins the basis: it kills a basis path of
    beilinson2 that the relations keep."""
    real = path_algebra.groebner_basis

    def extra(polys, fld):
        gb = real(polys, fld)
        gb.rules[("x1_0", "x2_0")] = {}
        return gb

    monkeypatch.setattr(path_algebra, "groebner_basis", extra)


# two binomials whose tips a11*a21 and a21*a30 overlap in a21: the
# S-polynomial of the overlap gives the rule a11*a20*a31 -> a10*a20*a30
OVERLAP = """quiver overlap
field {field}
vertices 1 2 3 4
arrow a10 : 1 -> 2
arrow a11 : 1 -> 2
arrow a20 : 2 -> 3
arrow a21 : 2 -> 3
arrow a30 : 3 -> 4
arrow a31 : 3 -> 4
relation a10*a20 - a11*a21
relation a21*a30 - a20*a31
"""
QUOTIENT_COMMANDS = ["validate", "spectrum", "check-tensor",
                     "compare-points", "reconstruct"]
QUOTIENT_MUTANTS = [(negate_rules, name)
                    for name in ("beilinson2", "beilinson3", "square")]
QUOTIENT_MUTANTS.append((add_extra_rule, "beilinson2"))


def mutant_groebner_basis(spec):
    """The Groebner basis of the relations of `spec`, as the patched
    `groebner_basis` gives it."""
    return path_algebra.groebner_basis(
        [path_algebra._polynomial(g.terms) for g in spec.relations],
        spec.field)


def first_bad_rule(gb):
    """The start of the certificate's message naming the first rule of
    `gb` whose right side is not one word with coefficient 1."""
    tip = next(t for t, rhs in gb.rules.items()
               if list(rhs.values()) != [gb.field.one])
    return f"the Groebner rule {'*'.join(tip)} -> "


class TestQuotientMutants:
    """A wrong Groebner basis gives a wrong quotient.  The sign flip and
    the extra rule x1_0 * x2_0 -> 0 leave the relations tensor but give
    rules that are not one word with coefficient 1, so the certificate
    refuses the quotient as it is built, and every command that builds it
    exits 2.  A Buchberger loop that drops its S-polynomials, or an extra
    rule of the right shape, keeps the shape of the rules; the probes are
    built from the quiver and the relations alone, so `reconstruct`
    reports it.  Such rules fill the step table in bounded time, and a rule
    that the table cannot walk raises RewriteError, exit 2."""

    @staticmethod
    def spec_file(tmp_path, name, field):
        text = (FIXTURE_DIR / f"{name}.quiver").read_text()
        assert text.count("field QQ\n") == 1
        spec = tmp_path / f"{name}.quiver"
        spec.write_text(text.replace("field QQ\n", f"field {field}\n"))
        return spec

    @staticmethod
    def assert_refused(doc, code, command, match):
        assert code == 2
        assert doc["command"] == command
        assert doc["error_type"] == "QuotientCertificateError"
        assert doc["error"].startswith("quotient certificate failed")
        assert match in doc["error"]

    @pytest.mark.parametrize("field", ["QQ", "F 101"])
    @pytest.mark.parametrize("name", ["beilinson2", "beilinson3", "square"])
    def test_negated_rules_clear_structure_constants(self, monkeypatch,
                                                     tmp_path, name, field):
        # the products would change sign, which `structure_constants_match`
        # would show; the certificate refuses the quotient as it is built
        negate_rules(monkeypatch)
        path = self.spec_file(tmp_path, name, field)
        spec = parse_quiver_file(path)
        gb = mutant_groebner_basis(spec)
        minus_one = spec.field(-1)
        assert any(list(rhs.values()) == [minus_one]
                   for rhs in gb.rules.values())
        with pytest.raises(QuotientCertificateError) as err:
            PathAlgebra(spec.quiver, spec.relations, spec.field)
        assert first_bad_rule(gb) in str(err.value)
        assert "is not one word with coefficient 1" in str(err.value)
        doc, code = run_command(["reconstruct", str(path)])
        self.assert_refused(doc, code, "reconstruct", "Groebner rule")

    @pytest.mark.parametrize("field", ["QQ", "F 101"])
    def test_extra_rule_clears_dimensions(self, monkeypatch, tmp_path, field):
        # the quotient loses a dimension, which `dimensions_match` would
        # show; the certificate refuses the quotient and names the rule
        add_extra_rule(monkeypatch)
        path = self.spec_file(tmp_path, "beilinson2", field)
        spec = parse_quiver_file(path)
        gb = mutant_groebner_basis(spec)
        assert len(list_paths(spec.quiver, gb.ends_in_tip)[0]) == 14
        with pytest.raises(QuotientCertificateError,
                           match=r"the Groebner rule x1_0\*x2_0 -> 0 is not"):
            PathAlgebra(spec.quiver, spec.relations, spec.field)
        doc, code = run_command(["reconstruct", str(path)])
        self.assert_refused(doc, code, "reconstruct",
                            "the Groebner rule x1_0*x2_0 -> 0 is not")

    @pytest.mark.parametrize("cls", [Presentation, PathAlgebra],
                             ids=lambda c: c.__name__)
    @pytest.mark.parametrize("field", ["QQ", "F 101"])
    @pytest.mark.parametrize("mutant, name", QUOTIENT_MUTANTS,
                             ids=lambda x: getattr(x, "__name__", x))
    def test_mutants_fail_the_constructor(self, monkeypatch, tmp_path,
                                          mutant, name, field, cls):
        # the verdict is certified as the presentation is built, so no
        # wrong quotient is ever handed out
        spec = parse_quiver_file(self.spec_file(tmp_path, name, field))
        assert cls(spec.quiver, spec.relations, spec.field).tensor_check.ok
        mutant(monkeypatch)
        with pytest.raises(QuotientCertificateError) as err:
            cls(spec.quiver, spec.relations, spec.field)
        assert first_bad_rule(mutant_groebner_basis(spec)) in str(err.value)

    @pytest.mark.parametrize("command", QUOTIENT_COMMANDS)
    @pytest.mark.parametrize("field", ["QQ", "F 101"])
    @pytest.mark.parametrize("mutant, name", QUOTIENT_MUTANTS,
                             ids=lambda x: getattr(x, "__name__", x))
    def test_mutants_fail_every_quotient_command(self, monkeypatch, tmp_path,
                                                 mutant, name, field,
                                                 command):
        path = self.spec_file(tmp_path, name, field)
        doc, code = run_command([command, str(path)])
        assert code == 0
        mutant(monkeypatch)
        doc, code = run_command([command, str(path)])
        self.assert_refused(doc, code, command, "Groebner rule")

    @pytest.mark.parametrize("field", ["QQ", "F 101"])
    def test_dropped_s_polynomials_clear_dimensions(self, monkeypatch,
                                                    tmp_path, field):
        # without the S-polynomial of the overlap, a11*a20*a31 stays a
        # basis word: the rules keep their shape, so the certificate
        # passes, but the quotient is one dimension too large at (1, 4)
        path = tmp_path / "overlap.quiver"
        path.write_text(OVERLAP.format(field=field))
        doc, code = run_command(["reconstruct", str(path)])
        assert code == 0 and doc["isomorphic_to_path_algebra"] is True
        monkeypatch.setattr(path_algebra, "_s_polynomial", lambda *args: {})
        doc, code = run_command(["validate", str(path)])
        assert code == 0 and doc["tensor_relations"] is True
        doc, code = run_command(["reconstruct", str(path)])
        # the table fills a11*a20*a31's steps from rules that are not
        # confluent, and every bit of the verdict comes out false
        assert code == 0
        assert doc["verdict"] == {"dimensions_match": False,
                                  "round_trip_identity": False,
                                  "structure_constants_match": False}
        assert doc["isomorphic_to_path_algebra"] is False
        assert "a11*a20*a31" in doc["basis"]

    @pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=str)
    def test_extra_rule_raises_in_the_probe_evaluator(self, monkeypatch,
                                                      field):
        # the probe M_1 keeps the word x1_0 * x2_0, which the quotient
        # with the rule x1_0 * x2_0 -> x1_1 * x2_1 has no class for; the
        # rule is one word with coefficient 1, so the certificate passes
        rewrite_x1_0_x2_0(monkeypatch, ("x1_1", "x2_1"))
        spec = load_fixture("beilinson2")
        alg = PathAlgebra(spec.quiver, spec.relations, field)
        assert alg.tensor_check.ok
        assert ("x1_0", "x2_0") not in alg.word_index
        verdict = assemble_A(alg)
        assert not verdict.dimensions_match
        assert not verdict.structure_constants_match
        first = {alg.word_index[("x1_0",)]: field.one}
        second = {alg.word_index[("x2_0",)]: field.one}
        evaluator = ProbeEvaluator(alg)
        assert evaluator.yoneda(first, "1") == first
        with pytest.raises(ReconstructionError, match=r"x1_0\*x2_0"):
            evaluator.compose(first, "1", second)


    @pytest.mark.parametrize("field", ["QQ", "F 101"])
    def test_extra_rule_clears_dimensions_and_constants(self, monkeypatch,
                                                        tmp_path, field):
        # the rule x1_0*x2_0 -> x1_1*x2_1 rewrites its tip to a larger
        # word; the table still fills every step, and the dimensions and
        # the structure constants come out false
        path = self.spec_file(tmp_path, "beilinson2", field)
        rewrite_x1_0_x2_0(monkeypatch, ("x1_1", "x2_1"))
        doc, code = run_command(["reconstruct", str(path)])
        assert code == 0
        assert doc["verdict"] == {"dimensions_match": False,
                                  "round_trip_identity": True,
                                  "structure_constants_match": False}

    @pytest.mark.parametrize("field", ["QQ", "F 101"])
    @pytest.mark.parametrize("rhs, why", [
        (("x2_1",), "right side x2_1 cannot be walked from 1"),
        (("x1_1", "x1_0"), "the word x1_1*x1_0 is not a path"),
        (("x1_0", "x2_0"), "the word x1_0*x2_0 is rewritten back to itself"),
    ], ids=["wrong-ends", "no-path", "self"])
    def test_rule_the_table_cannot_walk_exits_2(self, monkeypatch, tmp_path,
                                                field, rhs, why):
        # a rule whose right side starts or ends elsewhere, is no path, or
        # leads back to its own tip fills no step: a named error, exit 2
        path = self.spec_file(tmp_path, "beilinson2", field)
        rewrite_x1_0_x2_0(monkeypatch, rhs)
        doc, code = run_command(["reconstruct", str(path)])
        assert code == 2
        assert doc["error_type"] == "RewriteError"
        assert doc["error"].startswith("quotient certificate failed")
        assert why in doc["error"]
        spec = parse_quiver_file(path)
        alg = PathAlgebra(spec.quiver, spec.relations, spec.field)
        with pytest.raises(RewriteError, match=re.escape(why)):
            alg.arrow_step(alg.word_index[("x1_0",)], "x2_0")


class TestCenter:
    def test_connected_center_is_one_dimensional(self):
        for name in ("kronecker2", "beilinson2", "square", "chain4"):
            spec = load_fixture(name)
            center = center_and_z(algebra_of(spec))
            assert center.center_dimension == 1
            assert center.dimensions_match

    def test_disconnected_center(self):
        spec = load_fixture("disconnected")
        center = center_and_z(algebra_of(spec))
        assert center.center_dimension == 2
        assert center.end_unit_dimension == 2
        assert center.dimensions_match

    def test_z_is_unital_ring_map_into_center(self, small_spec):
        center = center_and_z(algebra_of(small_spec))
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
        center = center_and_z(algebra_of(spec))
        assert center.z_is_unital_ring_map is False
        doc, code = run_command(
            ["reconstruct", str(FIXTURE_DIR / "kronecker2.quiver")])
        assert code == 0 and doc["z_is_unital_ring_map"] is False

    def test_center_elements_commute(self, small_spec):
        alg = algebra_of(small_spec)
        center = center_and_z(alg)
        for z in center.center_basis:
            for i in range(alg.dim):
                b = {i: QQ.one}
                assert alg.product(z, b) == alg.product(b, z)
