"""Reports whose answers depend on the field, pinned by golden files and
checked against the dense oracles of `path_algebra_oracles`.

`field_sensitive.quiver` has dim kQ/(R) 9 over F_2, where its second
relation equals its first, and 8 over QQ, F_3 and F_101.  `half.quiver`
holds that second relation alone, so it has dim 9 over every field.  Its
coefficients sum to zero, and its diagonal square vanishes only over F_2,
so `reconstruct` refuses it over every other field.  Each golden's dimension and verdict is compared with
what the oracles compute over the oracle field, never with quivertt."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quivertt.cli import main
from quivertt.dsl import parse_quiver_file
from quivertt.fields import QQ

from fields_oracle import PrimeField
from path_algebra_oracles import tensor_check_oracle

TESTS = Path(__file__).resolve().parent
SPEC_DIR = TESTS / "specs"
GOLDEN_DIR = TESTS / "golden"

# (spec, field) -> (dim kQ/(R), failed tensor test)
EXPECTED = {
    ("field_sensitive", "QQ"): (8, ""),
    ("field_sensitive", "F2"): (9, ""),
    ("field_sensitive", "F3"): (8, ""),
    ("field_sensitive", "F101"): (8, ""),
    ("half", "QQ"): (9, "diagonal"),
    ("half", "F2"): (9, ""),
    ("half", "F3"): (9, "diagonal"),
    ("half", "F101"): (9, "diagonal"),
}
# field_sensitive over QQ has its reconstruct golden in test_cli.py
GOLDEN_CASES = [(name, field) for name, field in EXPECTED
                if (name, field) != ("field_sensitive", "QQ")]

ids = [f"{name}-{field}" for name, field in EXPECTED]


def oracle_field(name):
    return QQ if name == "QQ" else PrimeField(int(name[1:]))


def spec_over(name, field, tmp_path):
    """The spec `name` redeclared over the field `field`, as a file."""
    text = (SPEC_DIR / f"{name}.quiver").read_text()
    assert text.count("field QQ\n") == 1
    if field == "QQ":
        return SPEC_DIR / f"{name}.quiver"
    path = tmp_path / f"{name}.quiver"
    path.write_text(text.replace("field QQ\n", f"field F {field[1:]}\n"))
    return path


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return out.getvalue(), code


def golden_name(name, field):
    return f"{name}.json" if field == "QQ" else f"{name}-{field}.json"


@pytest.mark.parametrize("name, field", list(EXPECTED), ids=ids)
def test_oracle_reads_the_expected_answer(name, field):
    spec = parse_quiver_file(SPEC_DIR / f"{name}.quiver")
    assert tensor_check_oracle(spec.quiver, spec.relations,
                               oracle_field(field)) == EXPECTED[name, field]


@pytest.mark.parametrize("name, field", GOLDEN_CASES,
                         ids=[f"{n}-{f}" for n, f in GOLDEN_CASES])
def test_check_tensor_matches_golden_and_oracle(name, field, tmp_path):
    report, code = run(["check-tensor", str(spec_over(name, field, tmp_path))])
    assert code == 0
    assert report == (GOLDEN_DIR / "check-tensor"
                      / golden_name(name, field)).read_text()
    doc = json.loads(report)
    _, failed = EXPECTED[name, field]
    assert doc["field"] == field
    assert doc["tensor_relations"] is (failed == "")
    assert doc.get("failed_test", "") == failed


@pytest.mark.parametrize("name, field", GOLDEN_CASES,
                         ids=[f"{n}-{f}" for n, f in GOLDEN_CASES])
def test_reconstruct_matches_golden_and_oracle(name, field, tmp_path):
    report, code = run(["reconstruct", str(spec_over(name, field, tmp_path))])
    assert report == (GOLDEN_DIR / "reconstruct"
                      / golden_name(name, field)).read_text()
    doc = json.loads(report)
    dim, failed = EXPECTED[name, field]
    if failed:
        assert code == 1
        assert doc["error_type"] == "TensorRelationError"
        assert doc["error"].endswith(f"fails the {failed} test")
    else:
        assert code == 0
        assert doc["dimension"] == dim == len(doc["basis"])
        assert doc["isomorphic_to_path_algebra"] is True
