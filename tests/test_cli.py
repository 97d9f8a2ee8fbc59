import json

import pytest

from quivertt.cli import main, run_command
from quivertt.complexes import BoundedComplex, complex_to_json
from quivertt.repcat import simple_object, unit_object

from conftest import FIXTURE_DIR, load_fixture


def fixture_path(name):
    return str(FIXTURE_DIR / f"{name}.quiver")


def run(*argv):
    return run_command(list(argv))


class TestSchema:
    def test_every_success_report_carries_schema(self):
        commands = [
            ("validate", fixture_path("kronecker2")),
            ("spectrum", fixture_path("kronecker2")),
            ("sheaf", fixture_path("kronecker2"), "--open", "1,2"),
            ("presheaf", fixture_path("kronecker2"), "--open", "1,2"),
            ("reconstruct", fixture_path("kronecker2")),
            ("check-tensor", fixture_path("kronecker2")),
            ("filtration", fixture_path("kronecker2")),
            ("compat", fixture_path("kronecker2"), "--verts", "1"),
            ("compare-points", fixture_path("kronecker2")),
        ]
        for argv in commands:
            doc, code = run(*argv)
            assert code == 0, argv
            assert doc["schema"] == 1 and doc["command"] == argv[0]

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

    def test_missing_file_is_2(self):
        doc, code = run("validate", "no/such/file.quiver")
        assert code == 2

    def test_non_tensor_refusal_is_1(self, tmp_path):
        f = tmp_path / "nt.quiver"
        f.write_text("quiver nt\nvertices 1 2 3\narrow a : 1 -> 2\n"
                     "arrow b : 2 -> 3\nrelation a*b\n")
        doc, code = run("spectrum", str(f))
        assert code == 1 and doc["error_type"] == "TensorRelationError"
        # plain path-algebra commands still accept the file
        for cmd in (("validate",), ("check-tensor",),
                    ("compat", "--verts", "1,2")):
            doc, code = run(cmd[0], str(f), *cmd[1:])
            assert code == 0, cmd

    def test_incompatible_subquiver_is_1(self):
        doc, code = run("presheaf", fixture_path("square"),
                        "--open", "1,2,4")
        assert code == 1 and doc["error_type"] == "IncompatibleSubquiver"

    def test_cyclic_quiver_is_1(self, tmp_path):
        f = tmp_path / "cycle.quiver"
        f.write_text("quiver c\nvertices 1 2\narrow a : 1 -> 2\n"
                     "arrow b : 2 -> 1\n")
        doc, code = run("validate", str(f))
        assert code == 1 and doc["error_type"] == "NotOrdered"

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

    def test_main_prints_json(self, capsys):
        code = main(["spectrum", fixture_path("kronecker2")])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["point_count"] == 2
