"""`scripts/random_sweep.py`: a trial passes only when every verdict bit is
true over QQ, F_2 and F_101, the three fields give the same dimensions,
and the unit filtration and the support calculus check out over each of
them."""

import dataclasses
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from quivertt.complexes import complex_to_json
from quivertt.fields import QQ, PrimeField
from quivertt.path_algebra import PathAlgebra
from quivertt.randgen import random_tensor_quiver

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


@pytest.mark.parametrize("bad", ["QQ", "F2", "F101"])
def test_a_support_check_that_fails_over_one_field_fails_every_trial(
        sweep, monkeypatch, bad):
    honest = sweep.support

    def unequal_over_bad(cx):
        # a fresh vertex set that no intersection or union reproduces
        return frozenset([object()]) if str(cx.field) == bad else honest(cx)

    monkeypatch.setattr(sweep, "support", unequal_over_bad)
    assert sweep.run(config(sweep)) == 3


def test_prime_field_draws_leave_the_qq_draws_alone(sweep, monkeypatch):
    honest = sweep.random_complex

    def drawn_over(fields):
        drawn = []

        def recording(rng, quiver, relations, field):
            cx = honest(rng, quiver, relations, field)
            drawn.append((str(field), complex_to_json(cx)))
            return cx

        monkeypatch.setattr(sweep, "random_complex", recording)
        monkeypatch.setattr(sweep, "FIELDS", fields)
        assert sweep.run(config(sweep)) == 0
        return drawn

    every_field = drawn_over(sweep.FIELDS)
    assert {field for field, _ in every_field} == {"QQ", "F2", "F101"}
    assert [d for d in every_field if d[0] == "QQ"] == drawn_over((QQ,))


def test_a_check_tensor_exit_other_than_0_fails_every_trial(sweep,
                                                           monkeypatch):
    honest = sweep.run_command
    calls = []

    def refused(argv):
        calls.append(argv[0])
        doc, code = honest(argv)
        return doc, 2 if argv[0] == "check-tensor" else code

    monkeypatch.setattr(sweep, "run_command", refused)
    assert sweep.run(config(sweep)) == 3
    assert set(calls) == {"check-tensor"}


def test_multi_term_draws_leave_the_other_draws_alone(sweep, monkeypatch,
                                                     capsys):
    assert sweep.run(config(sweep)) == 0
    with_terms = capsys.readouterr().out.splitlines()[:-1]
    monkeypatch.setattr(sweep, "multi_term_relations", lambda rng, q: ())
    assert sweep.run(config(sweep)) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == with_terms


def test_multi_term_relations_reach_every_verdict(sweep):
    # three or four terms, some coefficient that vanishes mod 2 or 101,
    # and over each field both tensor verdicts and both failed tests
    verdicts = set()
    coefficients = set()
    for trial in range(100):
        quiver, _ = random_tensor_quiver(random.Random(trial))
        relations = sweep.multi_term_relations(random.Random(trial), quiver)
        for rel in relations:
            assert len(rel.terms) in (3, 4)
            coefficients.update(c for c, _ in rel.terms)
        for field in (QQ, PrimeField(2), PrimeField(101)):
            check = PathAlgebra(quiver, relations, field).tensor_check
            verdicts.add((str(field), check.failed_test))
    assert coefficients & {2, -2, 101, -202}
    assert {("QQ", ""), ("QQ", "unit"), ("QQ", "diagonal"), ("F2", ""),
            ("F2", "unit"), ("F101", ""), ("F101", "unit"),
            ("F101", "diagonal")} <= verdicts
