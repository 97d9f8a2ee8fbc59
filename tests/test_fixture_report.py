"""`scripts/fixture_report.py`: exit 0 only when every fixture has tensor
relations, an isomorphic reconstruction, and Z(A) of dimension pi0."""

import dataclasses
import importlib.util
import shutil
from pathlib import Path

import pytest

from quivertt.path_algebra import PathAlgebra

from conftest import FIXTURE_DIR, FIXTURE_NAMES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fixture_report.py"
SPEC_DIR = Path(__file__).resolve().parent / "specs"


@pytest.fixture
def report():
    spec = importlib.util.spec_from_file_location("fixture_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def two_fixtures(tmp_path):
    for name in ("kronecker2", "disconnected"):
        shutil.copy(FIXTURE_DIR / f"{name}.quiver", tmp_path)
    return ["--fixtures", str(tmp_path)]


def test_the_fixture_library_passes(report, capsys):
    assert report.main([]) == 0
    out = capsys.readouterr()
    assert out.out.count("True") == 20 and not out.err


def test_one_algebra_per_fixture(report, monkeypatch, capsys):
    builds = []
    init = PathAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(PathAlgebra, "__init__", counting_init)
    assert report.main([]) == 0
    assert len(builds) == len(FIXTURE_NAMES) == 10


def test_non_tensor_relations_fail(report, tmp_path, capsys):
    argv = two_fixtures(tmp_path)
    shutil.copy(SPEC_DIR / "weighted.quiver", tmp_path)
    assert report.main(argv) == 1
    assert capsys.readouterr().err.strip().endswith(": weighted")


def test_a_false_isomorphism_verdict_fails(report, tmp_path, monkeypatch,
                                           capsys):
    honest = report.assemble_A

    def false_on_disconnected(alg):
        out = honest(alg)
        if len(alg.quiver.undirected_components()) > 1:
            out = dataclasses.replace(out, round_trip_identity=False)
        return out

    monkeypatch.setattr(report, "assemble_A", false_on_disconnected)
    assert report.main(two_fixtures(tmp_path)) == 1
    assert capsys.readouterr().err.strip().endswith(": disconnected")


def test_a_center_that_misses_pi0_fails(report, tmp_path, monkeypatch,
                                        capsys):
    honest = report.center_and_z

    def dimension_two(*args):
        return dataclasses.replace(honest(*args), center_dimension=2)

    monkeypatch.setattr(report, "center_and_z", dimension_two)
    assert report.main(two_fixtures(tmp_path)) == 1
    assert capsys.readouterr().err.strip().endswith(": kronecker2")
