"""`scripts/random_sweep.py`: a trial passes only when every verdict bit is
true over QQ, F_2 and F_101, the three fields give the same dimensions,
and the unit filtration checks out over each of them."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from quivertt.fields import QQ

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "random_sweep.py"


@pytest.fixture
def sweep(monkeypatch):
    spec = importlib.util.spec_from_file_location("random_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, "random_sweep", module)
    spec.loader.exec_module(module)
    return module


def config(sweep):
    return sweep.SweepConfig(trials=3, seed=0, complexes_per_quiver=1)


def test_sweep_passes_over_both_fields(sweep, capsys):
    assert [str(f) for f in sweep.FIELDS] == ["QQ", "F2", "F101"]
    assert sweep.run(config(sweep)) == 0
    assert "3 trials, 0 failures" in capsys.readouterr().out


def test_a_false_verdict_over_f101_fails_every_trial(sweep, monkeypatch, capsys):
    honest = sweep.reconstruction

    def false_over_f101(quiver, relations, field):
        ok, dims = honest(quiver, relations, field)
        return ok and field == QQ, dims

    monkeypatch.setattr(sweep, "reconstruction", false_over_f101)
    assert sweep.run(config(sweep)) == 3
    assert "3 trials, 3 failures" in capsys.readouterr().out


def test_dimensions_that_differ_between_fields_fail(sweep, monkeypatch):
    honest = sweep.reconstruction

    def center_one_larger_over_f101(quiver, relations, field):
        ok, (dim, center, end_u) = honest(quiver, relations, field)
        return ok, (dim, center + (field != QQ), end_u)

    monkeypatch.setattr(sweep, "reconstruction", center_one_larger_over_f101)
    assert sweep.run(config(sweep)) == 3


@pytest.mark.parametrize("bad", ["QQ", "F2", "F101"])
def test_a_filtration_that_fails_over_one_field_fails_every_trial(
        sweep, monkeypatch, bad):
    honest = sweep.unit_filtration
    seen = []

    def not_simple_over_bad(quiver, relations, field):
        seen.append(str(field))
        steps = honest(quiver, relations, field)
        if str(field) == bad:
            steps[0] = dataclasses.replace(steps[0], quotient_is_simple=False)
        return steps

    monkeypatch.setattr(sweep, "unit_filtration", not_simple_over_bad)
    assert sweep.run(config(sweep)) == 3
    assert bad in seen
