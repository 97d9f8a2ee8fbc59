"""The Hom-space and center systems of `reconstruct` against reference
solvers, and the `reconstruct` reports against golden files."""

import io
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quivertt.cli import main
from quivertt.fields import QQ, PrimeField
from quivertt.path_algebra import build_path_algebra, module_hom_space
from quivertt.randgen import random_tensor_quiver
from quivertt.reconstruct import assemble_A, center_and_z

from conftest import FIXTURE_DIR, FIXTURE_NAMES, load_fixture
from reconstruct_oracles import center_basis_oracle, module_hom_space_oracle

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "reconstruct"
GOLDEN_F101_DIR = GOLDEN_DIR.parent / "reconstruct-f101"
FIELDS = [QQ, PrimeField(101)]
SEEDS = range(20)


def fixture_instance(name):
    spec = load_fixture(name)
    return spec.quiver, spec.relations


def random_instance(seed):
    return random_tensor_quiver(random.Random(seed))


def instances():
    for name in FIXTURE_NAMES:
        yield pytest.param(fixture_instance, name, id=name)
    for seed in SEEDS:
        yield pytest.param(random_instance, seed, id=f"random{seed}")


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("make, arg", list(instances()))
def test_module_hom_space_matches_oracle(make, arg, field):
    quiver, relations = make(arg)
    alg = build_path_algebra(quiver, relations, field)
    for n in quiver.vertices:
        for m in quiver.vertices:
            assert module_hom_space(alg, n, m) == module_hom_space_oracle(alg, n, m)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("make, arg", list(instances()))
def test_center_basis_matches_oracle(make, arg, field):
    quiver, relations = make(arg)
    assembled = assemble_A(quiver, relations, field)
    center = center_and_z(quiver, relations, assembled, field)
    assert center.center_basis == center_basis_oracle(assembled.algebra)


def reconstruct_report(path):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["reconstruct", str(path)])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reconstruct_report_matches_golden(name):
    assert (reconstruct_report(FIXTURE_DIR / f"{name}.quiver")
            == (GOLDEN_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reconstruct_f101_report_matches_golden(name, tmp_path):
    # the fixture redeclared over F_101, which runs the FpElement kernel
    text = (FIXTURE_DIR / f"{name}.quiver").read_text()
    assert text.count("field QQ\n") == 1
    spec = tmp_path / f"{name}.quiver"
    spec.write_text(text.replace("field QQ\n", "field F 101\n"))
    assert (reconstruct_report(spec)
            == (GOLDEN_F101_DIR / f"{name}.json").read_text())
