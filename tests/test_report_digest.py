"""`scripts/report_digest.py`: the same reports give the same line,
wherever the temporary files live, and a changed report changes it."""

import importlib.util
from pathlib import Path

import pytest

from quivertt import cli

from conftest import FIXTURE_DIR

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"
FIXTURE = FIXTURE_DIR / "kronecker2.quiver"


@pytest.fixture
def script():
    spec = importlib.util.spec_from_file_location("report_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_digest(script, workdir):
    workdir.mkdir()
    argvs = script.spec_argvs([FIXTURE], workdir)
    return script.digest(script.reports(argvs, workdir))


def test_the_digest_is_deterministic(script, tmp_path):
    first = fixture_digest(script, tmp_path / "a")
    count, sha = first.split()
    # six plain commands, sheaf on each of the two vertices, presheaf,
    # compat and support, over three fields
    assert int(count) == 3 * 11 and len(sha) == 64
    assert fixture_digest(script, tmp_path / "b") == first


def test_a_changed_report_changes_the_digest(script, tmp_path, monkeypatch):
    before = fixture_digest(script, tmp_path / "a")
    run_command = cli.run_command

    def changed(argv):
        doc, code = run_command(argv)
        if argv[0] == "spectrum" and argv[1].endswith("F101.quiver"):
            doc["points"] = doc["points"][::-1]
        return doc, code

    monkeypatch.setattr(cli, "run_command", changed)
    after = fixture_digest(script, tmp_path / "b")
    assert after.split()[0] == before.split()[0] and after != before


def test_each_spec_is_redeclared_once(script):
    text = "# a comment\nquiver q\nfield QQ\nvertices 1\n"
    assert script.redeclared(text, "F 2") == (
        "# a comment\nquiver q\nvertices 1\nfield F 2\n")
    assert script.redeclared("quiver q\nvertices 1", "F 101") == (
        "quiver q\nvertices 1\nfield F 101\n")
