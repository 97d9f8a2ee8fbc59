"""`perfbench/tracing.py` wraps library functions and methods by name
(`rref`, `Echelon.add`, `Echelon.reduce`, `RREFEchelon.add`,
`module_hom_space`, `ProbeEvaluator.compose`, `cohomology_at`, ...).
Deleting or renaming one of them breaks only the traced benchmark runs,
so this test builds the tracer from the file as it is and runs four
commands through it.  Some of the wrapped names are on no command's path
(`module_hom_space`, which lists basis classes, and the probe evaluator);
they are kept, under their names, for the tracer."""

import importlib.util
import json
from pathlib import Path

from quivertt import cli
from quivertt.complexes import BoundedComplex, complex_to_json
from quivertt.dsl import parse_quiver_file
from quivertt.repcat import unit_object

from conftest import FIXTURE_DIR

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_exit_0(tmp_path):
    tracing = load_tracing()
    recorder = tracing.Recorder()
    tracer = tracing.Tracer(recorder)
    fixture = FIXTURE_DIR / "beilinson2.quiver"
    unit = unit_object(parse_quiver_file(fixture).quiver)
    cx = tmp_path / "unit.json"
    cx.write_text(json.dumps(complex_to_json(
        BoundedComplex.from_representation(unit))))
    tracer.enable(True)
    try:
        for argv in (["validate", str(fixture)],
                     ["reconstruct", str(fixture)],
                     ["compare-points", str(fixture)],
                     ["support", str(fixture), "--complex", str(cx)]):
            doc, code = cli.run_command(argv)
            assert code == 0, (argv, doc)
    finally:
        tracer.enable(False)
    assert all(vars(ns)[attr] is orig for ns, attr, orig, _ in tracer.patches)
    assert recorder.calls["cli"] == 4
    assert recorder.calls["complexes.cohomology"] > 0
    # `reconstruct` compares the quotient with probes built from the
    # relations; the wrapped `module_hom_space` and probe evaluator are
    # not on its path
    assert recorder.calls["reconstruct.assemble"] == 1
    assert recorder.calls["path_algebra.module_hom"] == 0
    assert recorder.calls["reconstruct.probe"] == 0
    assert recorder.calls["linalg.echelon_add"] > 0
