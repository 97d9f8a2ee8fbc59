import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quivertt import cli, path_algebra, reconstruct
from quivertt import quiver as quiver_module
from quivertt.cli import build_parser, main, run_command
from quivertt.complexes import MAX_COMPLEX_DIM, BoundedComplex, complex_to_json
from quivertt.dsl import parse_quiver_file
from quivertt.path_algebra import PathAlgebra
from quivertt.quiver import MAX_PATHS, count_paths
from quivertt.repcat import simple_object, unit_object

from conftest import (FIXTURE_DIR, FIXTURE_NAMES, beilinson_text,
                      load_beilinson, load_fixture)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SPEC_DIR = GOLDEN_DIR.parent / "specs"
GOLDEN_COMMANDS = ["validate", "spectrum", "check-tensor", "filtration",
                   "compare-points"]


def fixture_path(name):
    return str(FIXTURE_DIR / f"{name}.quiver")


def run(*argv):
    return run_command(list(argv))


def non_tensor_spec(tmp_path):
    """A spec whose relation a*b fails the tensor-relations criterion."""
    f = tmp_path / "nt.quiver"
    f.write_text("quiver nt\nvertices 1 2 3\narrow a : 1 -> 2\n"
                 "arrow b : 2 -> 3\nrelation a*b\n")
    return str(f)


def every_command(path):
    """One argv per subcommand but `support`, each on the spec `path`,
    which must have vertices 1 and 2."""
    path = str(path)
    return [
        ("validate", path),
        ("spectrum", path),
        ("sheaf", path, "--open", "1,2"),
        ("presheaf", path, "--open", "1,2"),
        ("reconstruct", path),
        ("check-tensor", path),
        ("filtration", path),
        ("compat", path, "--verts", "1"),
        ("compare-points", path),
    ]


class TestSchema:
    def test_every_success_report_carries_schema(self):
        for argv in every_command(fixture_path("kronecker2")):
            doc, code = run(*argv)
            assert code == 0, argv
            assert doc["schema"] == 1 and doc["command"] == argv[0]

    @pytest.mark.parametrize("declared, name", [
        ("QQ", "QQ"), ("F 101", "F101"), ("F101", "F101"),
        ("F 0101", "F101"), ("F 2", "F2")])
    def test_every_success_report_names_its_field(self, tmp_path, declared,
                                                   name):
        text = (FIXTURE_DIR / "kronecker2.quiver").read_text()
        assert text.count("field QQ\n") == 1
        spec = tmp_path / "k2.quiver"
        spec.write_text(text.replace("field QQ\n", f"field {declared}\n"))
        cx = tmp_path / "cx.json"
        cx.write_text(json.dumps({"terms": {"0": {"dims": {"1": 1}}}}))
        for argv in every_command(spec) + [("support", str(spec),
                                            "--complex", str(cx))]:
            doc, code = run(*argv)
            assert code == 0, argv
            assert doc["field"] == name, argv

    def test_error_documents_name_no_field(self, tmp_path):
        spec = tmp_path / "bad.quiver"
        spec.write_text("quiver bad\nfield F 5\nvertices 1 2\n"
                        "arrow a : 1 -> 2\nrelation a*b\n")
        doc, code = run("validate", str(spec))
        assert code == 2 and "field" not in doc
        doc, code = run("spectrum", str(SPEC_DIR / "weighted.quiver"))
        assert code == 1 and "field" not in doc

    def test_leading_zeros_of_the_modulus_are_not_reported(self, tmp_path):
        spec = tmp_path / "z.quiver"
        spec.write_text("quiver z\nfield F 0101\nvertices 1 2\n"
                        "arrow a : 1 -> 2\n")
        doc, code = run("validate", str(spec))
        assert code == 0 and doc["field"] == "F101"
        assert parse_quiver_file(spec).pretty().splitlines()[1] == \
            "field F101"

    def test_reports_are_json_serializable_and_stable(self):
        doc1, _ = run("reconstruct", fixture_path("beilinson2"))
        doc2, _ = run("reconstruct", fixture_path("beilinson2"))
        assert json.dumps(doc1, sort_keys=True) == \
            json.dumps(doc2, sort_keys=True)

    def test_scalars_are_strings_dimensions_integers(self):
        doc, _ = run("reconstruct", fixture_path("disconnected"))
        assert isinstance(doc["dimension"], int)
        for elem in doc["center_basis"]:
            assert all(isinstance(c, str) for c in elem.values())


class TestCommands:
    def test_spectrum_beilinson_counts(self):
        for m in (1, 2, 3):
            doc, code = run("spectrum", fixture_path(f"beilinson{m}"))
            assert code == 0
            assert doc["point_count"] == m + 1
            assert doc["topology"] == "discrete"

    def test_reconstruct_kronecker2(self):
        doc, code = run("reconstruct", fixture_path("kronecker2"))
        assert code == 0
        assert doc["dimension"] == 4
        assert doc["isomorphic_to_path_algebra"] is True

    def test_compat_square(self):
        doc, code = run("compat", fixture_path("square"), "--verts", "1,2,4")
        assert code == 0
        assert doc["compatible"] is False
        assert doc["witness"]["expression"] == "a*b"
        assert [r["expression"] for r in doc["r_bar"]] == ["a*b"]

    def test_validate_summary(self):
        doc, code = run("validate", fixture_path("beilinson2"))
        assert code == 0
        assert len(doc["vertices"]) == 3 and len(doc["arrows"]) == 6
        assert len(doc["relations"]) == 3
        assert doc["algebra_dimension"] == 15
        assert doc["tensor_relations"] is True

    def test_sheaf_sections(self):
        doc, code = run("sheaf", fixture_path("beilinson2"),
                        "--open", "1,3")
        assert code == 0 and doc["dimension"] == 2

    def test_presheaf_components(self):
        doc, code = run("presheaf", fixture_path("disconnected"),
                        "--open", "1,2,3,4")
        assert code == 0 and doc["dimension"] == 2
        assert len(doc["components"]) == 2

    def test_filtration(self):
        doc, code = run("filtration", fixture_path("beilinson2"))
        assert code == 0
        assert [s["quotient_is_simple"] for s in doc["steps"]] == [True] * 3
        assert [s["satisfies_relations"] for s in doc["steps"]] == [True] * 3

    def test_compare_points(self):
        doc, code = run("compare-points", fixture_path("square"))
        assert code == 0
        assert doc["pairwise_distinct"] is True

    def test_support(self, tmp_path):
        spec = load_fixture("beilinson2")
        cx = BoundedComplex.from_representation(
            simple_object(spec.quiver, "2"))
        path = tmp_path / "cx.json"
        path.write_text(json.dumps(complex_to_json(cx)))
        doc, code = run("support", fixture_path("beilinson2"),
                        "--complex", str(path))
        assert code == 0 and doc["support"] == ["2"]


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.quiver"
        bad.write_text("quiver x\nvertices\n")
        doc, code = run("validate", str(bad))
        assert code == 2 and doc["error_type"] == "ParseError"

    def test_duplicate_field_is_2(self, tmp_path):
        bad = tmp_path / "bad.quiver"
        bad.write_text("quiver x\nfield F 3\nvertices 1\nfield F 5\n")
        doc, code = run("validate", str(bad))
        assert code == 2 and doc["error_type"] == "ParseError"
        assert "line 4, column 6: duplicate field declaration" in doc["error"]

    def test_missing_file_is_2(self):
        doc, code = run("validate", "no/such/file.quiver")
        assert code == 2

    def test_non_tensor_refusal_is_1(self, tmp_path):
        f = non_tensor_spec(tmp_path)
        for cmd in (("spectrum",), ("sheaf", "--open", "1,2"),
                    ("presheaf", "--open", "1,2"), ("reconstruct",),
                    ("compare-points",)):
            doc, code = run(cmd[0], f, *cmd[1:])
            assert code == 1, cmd
            assert doc["error_type"] == "TensorRelationError", cmd
        # plain path-algebra commands still accept the file
        for cmd in (("validate",), ("check-tensor",),
                    ("compat", "--verts", "1,2")):
            doc, code = run(cmd[0], f, *cmd[1:])
            assert code == 0, cmd

    def test_incompatible_subquiver_is_1(self):
        doc, code = run("presheaf", fixture_path("square"),
                        "--open", "1,2,4")
        assert code == 1 and doc["error_type"] == "IncompatibleSubquiver"

    def test_refusals_print_prime_field_coefficients(self, tmp_path):
        # 3 a*b is 0 over F_3; the witness reads as check-tensor prints it
        f = tmp_path / "f3.quiver"
        f.write_text("quiver f3\nfield F3\nvertices 1 2 3\n"
                     "arrow a : 1 -> 2\narrow c : 1 -> 2\narrow b : 2 -> 3\n"
                     "relation 3 a*b + c*b\n")
        doc, code = run("check-tensor", str(f))
        assert code == 0 and doc["witness"]["expression"] == "0 a*b + c*b"
        for argv in (["reconstruct"], ["spectrum"]):
            doc, code = run(argv[0], str(f))
            assert code == 1 and doc["error_type"] == "TensorRelationError"
            assert doc["error"] == (
                "relations are not tensor relations: generator "
                "0 a*b + c*b fails the unit test")
        # over F_5 the r-bar generator is 2 a*b, not 2 (mod 5) a*b
        f = tmp_path / "f5.quiver"
        f.write_text(Path(fixture_path("square")).read_text()
                     .replace("relation a*b - c*d", "relation 2 a*b - 2 c*d")
                     .replace("field QQ", "field F5"))
        doc, code = run("presheaf", str(f), "--open", "1,2,4")
        assert code == 1 and doc["error_type"] == "IncompatibleSubquiver"
        assert doc["error"] == ("subquiver incompatible with relations "
                                "(r-bar = {2 a*b})")
        doc, code = run("spectrum", str(f))
        assert code == 0

    def test_cyclic_quiver_is_1(self, tmp_path):
        f = tmp_path / "cycle.quiver"
        f.write_text("quiver c\nvertices 1 2\narrow a : 1 -> 2\n"
                     "arrow b : 2 -> 1\n")
        doc, code = run("validate", str(f))
        assert code == 1 and doc["error_type"] == "NotOrdered"

    def test_digit_leading_arrow_label_is_2(self, tmp_path):
        f = tmp_path / "digit.quiver"
        f.write_text("quiver d\nvertices 1 2 3\narrow 2a : 1 -> 2\n"
                     "arrow b : 2 -> 3\narrow c : 1 -> 2\n"
                     "relation 2a*b - c*b\n")
        doc, code = run("validate", str(f))
        assert code == 2 and doc["error_type"] == "ParseError"
        assert doc["error"] == ("line 3, column 7: arrow label '2a' starts "
                                "with a digit")

    def test_admissible_order_is_computed_once_per_request(
            self, tmp_path, monkeypatch):
        calls = []
        topological = quiver_module._topological_order

        def counted(q):
            calls.append(q)
            return topological(q)

        monkeypatch.setattr(quiver_module, "_topological_order", counted)
        for name in ("kronecker2", "beilinson2", "disconnected"):
            calls.clear()
            doc, code = run("validate", fixture_path(name))
            assert code == 0 and len(calls) == 1, name
        # a cyclic spec is still refused by the order, with exit 1
        f = tmp_path / "cycle.quiver"
        f.write_text("quiver c\nvertices 1 2\narrow a : 1 -> 2\n"
                     "arrow b : 2 -> 1\n")
        calls.clear()
        doc, code = run("validate", str(f))
        assert code == 1 and doc["error_type"] == "NotOrdered"
        assert len(calls) == 1

    def test_bad_complex_file_is_2(self, tmp_path):
        cx = tmp_path / "cx.json"
        cx.write_text('{"terms": {"0": {"dims": {"1": 1}, '
                      '"arrows": {"nope": [["1"]]}}}}')
        doc, code = run("support", fixture_path("kronecker2"),
                        "--complex", str(cx))
        assert code == 2

    @pytest.mark.parametrize("text", [
        "{not json", "[1, 2]", '"terms"', '{"terms": [1]}',
        '{"terms": {"0": [1]}}', '{"terms": {"0": {"dims": {"1": 1e400}}}}'])
    def test_unreadable_complex_file_is_2(self, tmp_path, capsys, text):
        cx = tmp_path / "cx.json"
        cx.write_text(text)
        code = main(["support", fixture_path("kronecker2"),
                     "--complex", str(cx)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2 and doc["error_type"] == "ParseError"

    @pytest.mark.parametrize("text, where", [
        ("{not json", "line 1, column 2:"),
        ('{"terms": {\n  "0": {\n    "dims": {"1": 1,}}}}', "line 3, column 21:")])
    def test_invalid_json_names_the_decoder_position(self, tmp_path, text,
                                                    where):
        cx = tmp_path / "cx.json"
        cx.write_text(text)
        doc, code = run("support", fixture_path("kronecker2"),
                        "--complex", str(cx))
        assert code == 2 and doc["error_type"] == "ParseError"
        assert doc["error"].startswith(where)
        assert doc["error"].count("line") == 1

    def test_negative_complex_dimension_is_2(self, tmp_path):
        cx = tmp_path / "cx.json"
        cx.write_text('{"terms": {"0": {"dims": {"1": -1}}}}')
        doc, code = run("support", fixture_path("kronecker2"),
                        "--complex", str(cx))
        assert code == 2 and doc["error_type"] == "ParseError"
        assert "negative dimension -1" in doc["error"]

    @pytest.mark.parametrize("dims, words", [
        ({"1": 1.7}, ["term 0", "1.7", "vertex 1"]),
        ({"1": 2.0}, ["term 0", "2.0", "vertex 1"]),
        ({"1": True}, ["term 0", "True", "vertex 1"]),
        ({"1": "1"}, ["term 0", "'1'", "vertex 1"]),
        ({"1": None}, ["term 0", "None", "vertex 1"]),
        ({"zz": 1}, ["term 0", "'zz'"]),
        ({"1": 1, "zz": 0}, ["term 0", "'zz'"])],
        ids=["float", "integral-float", "bool", "string", "null",
             "unknown-vertex", "unknown-vertex-beside-a-known-one"])
    def test_complex_dimension_must_be_an_integer_at_a_vertex(
            self, tmp_path, dims, words):
        cx = tmp_path / "cx.json"
        cx.write_text(json.dumps({"terms": {"0": {"dims": dims}}}))
        doc, code = run("support", fixture_path("kronecker2"),
                        "--complex", str(cx))
        assert code == 2 and doc["error_type"] == "ParseError"
        assert all(w in doc["error"] for w in words), doc["error"]

    def test_exponent_scalar_in_complex_file_is_2_at_once(self, tmp_path):
        # a 101-byte file whose entry, read as a rational, is 10**10000000
        cx = tmp_path / "cx.json"
        cx.write_text('{"terms": {"0": {"dims": {"1": 1, "2": 1}, '
                      '"arrows": {"x0": [["1e10000000"]]}}}, '
                      '"differentials": {}}')
        start = time.perf_counter()
        doc, code = run("support", fixture_path("kronecker1"),
                        "--complex", str(cx))
        assert time.perf_counter() - start < 1
        assert code == 2 and doc["error_type"] == "ParseError"
        assert "'1e10000000'" in doc["error"]

    @pytest.mark.parametrize("entry, code", [
        (0.5, 2), ("0.5", 2), (2.0, 2), ("1/2", 0), (-3, 0), ("+3", 0)])
    def test_complex_scalars_are_integer_or_fraction_literals(
            self, tmp_path, entry, code):
        cx = tmp_path / "cx.json"
        cx.write_text(json.dumps({"terms": {"0": {
            "dims": {"1": 1, "2": 1}, "arrows": {"x0": [[entry]]}}}}))
        doc, got = run("support", fixture_path("kronecker1"),
                       "--complex", str(cx))
        assert got == code, doc
        if code:
            assert doc["error_type"] == "ParseError"
            assert repr(str(entry)) in doc["error"]

    def test_complex_differential_at_unknown_vertex_is_2(self, tmp_path):
        cx = tmp_path / "cx.json"
        cx.write_text(json.dumps({
            "terms": {"0": {"dims": {"1": 1}}, "1": {"dims": {"1": 1}}},
            "differentials": {"0": {"1": [["1"]], "zz": [["1"]]}}}))
        doc, code = run("support", fixture_path("kronecker2"),
                        "--complex", str(cx))
        assert code == 2 and doc["error_type"] == "ParseError"
        assert "differential 0" in doc["error"] and "'zz'" in doc["error"]

    @pytest.mark.parametrize("terms, diffs, words", [
        ({"0": 1, "1": 1}, {"0": [["1"]], "00": [["0"]]},
         ["differential key '00'"]),
        ({"0": 1, "1": 1}, {"+0": [["1"]]}, ["differential key '+0'"]),
        ({"0": 1, "-0": 1}, {}, ["term key '-0'"]),
        ({"0": 1, " 1": 1}, {}, ["term key ' 1'"]),
        ({"1_0": 1}, {}, ["term key '1_0'"]),
        ({"0": 1, "x": 1}, {}, ["term key 'x'", "canonical decimal form"]),
        ({"0": 1, "1": 1}, {"x": [["1"]]},
         ["differential key 'x'", "canonical decimal form"])],
        ids=["duplicate-zero", "plus-sign", "minus-zero", "space",
             "underscore", "letter-term", "letter-differential"])
    def test_non_canonical_degree_key_is_2(self, tmp_path, terms, diffs,
                                           words):
        # int() reads the first five keys, so "00" would overwrite "0" and
        # "1_0" would be degree 10; it cannot read "x", and the message
        # still names the key
        cx = tmp_path / "cx.json"
        cx.write_text(json.dumps({
            "terms": {k: {"dims": {"1": d}} for k, d in terms.items()},
            "differentials": {k: {"1": m} for k, m in diffs.items()}}))
        doc, code = run("support", fixture_path("kronecker2"),
                        "--complex", str(cx))
        assert code == 2 and doc["error_type"] == "ParseError"
        assert all(w in doc["error"] for w in words), doc["error"]

    def test_canonical_degree_keys_are_read(self, tmp_path):
        cx = tmp_path / "cx.json"
        cx.write_text(json.dumps({
            "terms": {"-1": {"dims": {"1": 1}}, "0": {"dims": {"1": 1}},
                      "10": {"dims": {"1": 1}}},
            "differentials": {"-1": {"1": [["1"]]}}}))
        doc, code = run("support", fixture_path("kronecker2"),
                        "--complex", str(cx))
        assert code == 0 and doc["degrees"] == [-1, 0, 10]
        assert doc["support"] == ["1"]

    @pytest.mark.parametrize("p", [2**61 - 1, 2**64 - 59])
    def test_large_prime_field_is_accepted_at_once(self, tmp_path, p):
        spec = tmp_path / "big.quiver"
        spec.write_text(f"quiver big\nfield F {p}\nvertices 1 2\n"
                        "arrow a : 1 -> 2\narrow b : 1 -> 2\n")
        start = time.perf_counter()
        doc, code = run("validate", str(spec))
        assert time.perf_counter() - start < 1.0
        assert code == 0 and doc["field"] == f"F{p}"
        assert doc["algebra_dimension"] == 4

    def test_modulus_above_the_budget_is_1(self, tmp_path, capsys):
        spec = tmp_path / "big.quiver"
        spec.write_text(f"quiver big\nfield F{'9' * 31}\nvertices 1\n")
        code = main(["validate", str(spec)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["error_type"] == "ResourceBudget"
        assert str(2**64) in doc["error"]

    def test_composite_modulus_is_2(self, tmp_path):
        spec = tmp_path / "composite.quiver"
        spec.write_text(f"quiver c\nfield F {2**64 - 1}\nvertices 1\n")
        doc, code = run("validate", str(spec))
        assert code == 2 and doc["error_type"] == "ParseError"
        assert "not prime" in doc["error"]

    def test_complex_over_budget_is_1(self, tmp_path, capsys):
        cx = tmp_path / "cx.json"
        cx.write_text('{"terms": {"0": {"dims": {"1": 100000000}}}}')
        code = main(["support", fixture_path("kronecker2"),
                     "--complex", str(cx)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["error_type"] == "ResourceBudget"
        assert "100000000" in doc["error"]
        assert str(MAX_COMPLEX_DIM) in doc["error"]

    def test_complex_budget_counts_every_term(self, tmp_path):
        half = MAX_COMPLEX_DIM // 2
        cx = tmp_path / "cx.json"
        for extra, want in ((0, 0), (1, 1)):
            cx.write_text(json.dumps({"terms": {
                "0": {"dims": {"1": half}},
                "1": {"dims": {"1": MAX_COMPLEX_DIM - half, "2": extra}}}}))
            doc, code = run("support", fixture_path("kronecker2"),
                            "--complex", str(cx))
            assert code == want

    def test_quiver_over_path_budget_is_1_at_once(self, tmp_path, capsys):
        spec = tmp_path / "beil.quiver"
        spec.write_text(beilinson_text(2, 12))
        start = time.perf_counter()
        code = main(["validate", str(spec)])
        elapsed = time.perf_counter() - start
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["error_type"] == "ResourceBudget"
        total = count_paths(load_beilinson(2, 12).quiver)
        assert total > MAX_PATHS
        assert f"{total} paths" in doc["error"]
        assert str(MAX_PATHS) in doc["error"]
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv", [
        ["spectrum"], ["sheaf", "--open", "1"], ["presheaf", "--open", "1"],
        ["reconstruct"], ["check-tensor"], ["compare-points"],
        ["compat", "--verts", ",".join(str(v) for v in range(1, 13))]])
    def test_every_quotient_command_keeps_the_path_budget(self, tmp_path, argv):
        spec = tmp_path / "beil.quiver"
        spec.write_text(beilinson_text(2, 12))
        doc, code = run(argv[0], str(spec), *argv[1:])
        assert code == 1 and doc["error_type"] == "ResourceBudget"

    def test_path_budget_boundary(self, tmp_path):
        # two vertices and k parallel arrows have k + 2 paths, and with no
        # relation every path is a basis element
        spec = tmp_path / "wide.quiver"
        for arrows, want in ((MAX_PATHS - 2, 0), (MAX_PATHS - 1, 1)):
            spec.write_text("quiver wide\nvertices 1 2\n" + "".join(
                f"arrow x{i} : 1 -> 2\n" for i in range(arrows)))
            doc, code = run("validate", str(spec))
            assert code == want
            if code == 0:
                assert doc["algebra_dimension"] == MAX_PATHS

    def test_spec_path_is_directory_is_2(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2 and doc["error_type"] == "IsADirectoryError"

    def test_spec_not_utf8_is_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.quiver"
        bad.write_bytes(b"quiver x\nvertices 1 \xe9\n")
        code = main(["validate", str(bad)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2 and doc["error_type"] == "ParseError"
        assert doc["error"].startswith("line 2, column 12:")

    @pytest.mark.parametrize("command", ["sheaf", "presheaf"])
    def test_unknown_open_vertex_is_2(self, command):
        doc, code = run(command, fixture_path("square"), "--open", "1,zz")
        assert code == 2 and doc["error_type"] == "QuiverError"
        assert "'zz'" in doc["error"]

    def test_complex_violating_relations_is_1(self, tmp_path):
        # on the square with ab = cd, a representation where the two
        # composites differ is refused
        data = {"terms": {"0": {
            "dims": {"1": 1, "2": 1, "3": 1, "4": 1},
            "arrows": {"a": [["1"]], "b": [["1"]],
                       "c": [["1"]], "d": [["-1"]]}}}}
        cx = tmp_path / "cx.json"
        cx.write_text(json.dumps(data))
        doc, code = run("support", fixture_path("square"),
                        "--complex", str(cx))
        assert code == 1 and doc["error_type"] == "DomainRefusal"

    def test_quotient_certificate_error_is_2(self, monkeypatch, capsys):
        # every Groebner rule changes sign: the relations still pass the
        # tensor-relation criterion, but the rules are no longer one word
        # with coefficient 1, so the quotient is refused
        real = path_algebra.groebner_basis

        def negated(polys, field):
            gb = real(polys, field)
            for tip, rhs in gb.rules.items():
                gb.rules[tip] = {w: -c for w, c in rhs.items()}
            return gb

        monkeypatch.setattr(path_algebra, "groebner_basis", negated)
        code = main(["validate", fixture_path("square")])
        out = capsys.readouterr()
        doc = json.loads(out.out)
        assert code == 2 and doc["error_type"] == "QuotientCertificateError"
        assert doc["error"] == (
            "quotient certificate failed: the Groebner rule c*d -> -1 a*b "
            "is not one word with coefficient 1, yet the relations pass "
            "the tensor-relation criterion")
        assert out.err == ""

    def test_reconstruction_error_is_2(self, monkeypatch, capsys):
        # phi of the unit, which is not supported on one pair of vertices
        def inhomogeneous(alg):
            return reconstruct.phi(alg, alg.unit())

        monkeypatch.setattr(cli, "center_and_z", inhomogeneous)
        code = main(["reconstruct", fixture_path("square")])
        out = capsys.readouterr()
        doc = json.loads(out.out)
        assert code == 2 and doc["error_type"] == "ReconstructionError"
        assert doc["error"] == (
            "element is not homogeneous; pass source and target vertices")
        assert out.err == ""

    def test_main_prints_json(self, capsys):
        code = main(["spectrum", fixture_path("kronecker2")])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["point_count"] == 2


class TestAlgebraBuilds:
    """Each request builds its `PathAlgebra` at most once, and the
    commands that need no quotient build none."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        init = PathAlgebra.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(PathAlgebra, "__init__", counting_init)
        return built

    @pytest.mark.parametrize("tensor", [True, False])
    def test_one_build_per_quotient_command(self, builds, tmp_path, tensor):
        # refusals included: the non-tensor spec is refused after its build
        path = fixture_path("kronecker2") if tensor else non_tensor_spec(tmp_path)
        for argv in every_command(path):
            builds.clear()
            run(*argv)
            expected = 0 if argv[0] in ("filtration", "compat") else 1
            assert len(builds) == expected, argv

    def test_support_builds_none(self, builds, tmp_path):
        spec = load_fixture("kronecker2")
        cx = BoundedComplex.from_representation(unit_object(spec.quiver))
        path = tmp_path / "cx.json"
        path.write_text(json.dumps(complex_to_json(cx)))
        doc, code = run("support", fixture_path("kronecker2"),
                        "--complex", str(path))
        assert code == 0 and builds == []


class TestBasisListing:
    """The commands that need only the quiver and the certified tensor
    verdict never list the basis of kQ/(R); `validate` and `reconstruct`
    list it once per build."""

    @staticmethod
    def certificate_only(name):
        # the whole vertex set and one vertex are compatible with any
        # relations, so `presheaf` answers on both
        path = fixture_path(name)
        verts = list(load_fixture(name).quiver.vertices)
        argvs = [("spectrum", path), ("check-tensor", path),
                 ("compare-points", path)]
        for opened in (verts, verts[:1]):
            argvs += [(command, path, "--open", ",".join(opened))
                      for command in ("sheaf", "presheaf")]
        return argvs

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_certificate_only_commands_list_no_basis(self, name,
                                                     monkeypatch):
        argvs = self.certificate_only(name)
        want = [run(*argv) for argv in argvs]

        def refuse(alg):
            raise AssertionError("the basis of kQ/(R) was listed")

        monkeypatch.setattr(PathAlgebra, "_list_basis", refuse)
        got = [run(*argv) for argv in argvs]
        assert [code for _, code in got] == [0] * len(argvs)
        assert got == want

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_validate_and_reconstruct_list_once_per_build(self, name,
                                                          monkeypatch):
        builds, listings = [], []
        init, list_basis = PathAlgebra.__init__, PathAlgebra._list_basis

        def counting_init(self, *args, **kwargs):
            builds.append(self)
            init(self, *args, **kwargs)

        def counting_list(self):
            listings.append(self)
            list_basis(self)

        monkeypatch.setattr(PathAlgebra, "__init__", counting_init)
        monkeypatch.setattr(PathAlgebra, "_list_basis", counting_list)
        for command in ("validate", "reconstruct"):
            builds.clear()
            listings.clear()
            _, code = run(command, fixture_path(name))
            assert code == 0 and len(builds) == 1 and listings == builds


class TestParserReuse:
    REQUESTS = [
        ("validate", fixture_path("kronecker2")),
        ("no-such-command", fixture_path("kronecker2")),
        ("sheaf", fixture_path("kronecker2"), "--open", "1,2"),
        ("sheaf", fixture_path("kronecker2")),
        ("presheaf", fixture_path("square"), "--open", "1,2"),
        ("--help",),
        ("compat", fixture_path("square"), "--verts", "1"),
        ("sheaf", fixture_path("square"), "--open", "1,zz"),
        ("spectrum", fixture_path("kronecker2")),
        ("validate",),
        ("sheaf", fixture_path("kronecker2"), "--open", "1"),
    ]

    def test_shared_parser_answers_as_a_fresh_one(self, monkeypatch, capsys):
        build_parser.cache_clear()
        shared = [run(*argv) for argv in self.REQUESTS]
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = [run(*argv) for argv in self.REQUESTS]
        assert shared == fresh
        assert [code for _, code in shared] == [0, 2, 0, 2, 0, 0, 0, 2, 0, 2, 0]

    def test_import_does_not_build_the_parser(self):
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c",
             "import quivertt.cli as c; print(c.build_parser.cache_info())"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert "currsize=0" in out

    def test_hundred_calls_build_one_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        try:
            for i in range(100):
                argv = (("validate", fixture_path("kronecker1")) if i % 2
                        else ("sheaf", fixture_path("kronecker1")))
                run(*argv)
        finally:
            build_parser.cache_clear()
        assert built.count("quivertt") == 1


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("command", GOLDEN_COMMANDS)
def test_report_matches_golden(command, name, capsys):
    code = main([command, fixture_path(name)])
    assert code == 0
    assert capsys.readouterr().out == \
        (GOLDEN_DIR / command / f"{name}.json").read_text()


# specs whose relations have coefficients other than +-1, so their reports
# mix integral and non-integral scalars
SPEC_GOLDENS = [("validate", "weighted"), ("validate", "diamond"),
                ("check-tensor", "weighted"), ("check-tensor", "diamond"),
                ("reconstruct", "field_sensitive")]


@pytest.mark.parametrize("command, name", SPEC_GOLDENS)
def test_spec_report_matches_golden(command, name, capsys):
    code = main([command, str(SPEC_DIR / f"{name}.quiver")])
    assert code == 0
    assert capsys.readouterr().out == \
        (GOLDEN_DIR / command / f"{name}.json").read_text()
