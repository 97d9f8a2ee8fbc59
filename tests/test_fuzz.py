"""Every command answers mutated spec files and mutated complex files with
exactly one JSON document and a documented exit code, never a traceback.

The mutants start from the small fixtures (beilinson3's `reconstruct`
alone takes seconds) and from complex files written by `complex_to_json`.
The runs are derandomized and bounded, so they cost a few seconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quivertt.cli import main
from quivertt.complexes import BoundedComplex, complex_to_json
from quivertt.repcat import direct_sum, simple_object, unit_object

from conftest import FIXTURE_DIR, load_fixture

BASES = ["kronecker1", "kronecker2", "kronecker3", "kronecker4",
         "beilinson1", "beilinson2", "square", "disconnected", "chain4"]
TEXTS = {name: (FIXTURE_DIR / f"{name}.quiver").read_text() for name in BASES}
COMMANDS = ["validate", "spectrum", "sheaf", "presheaf", "support",
            "reconstruct", "check-tensor", "filtration", "compat",
            "compare-points"]
# characters the spec grammar gives a meaning to, and a few it does not
ALPHABET = "0123456789abxyzF -+*/:>#\t\né"

FUZZ = settings(max_examples=25, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def run_main(argv):
    """(exit code, stdout) of one `quivertt` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def assert_one_document(argv):
    code, text = run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    doc = json.loads(text)   # one document, nothing before or after it
    assert text.endswith("}\n") and isinstance(doc, dict)
    assert doc["schema"] == 1 and doc["command"] == argv[0]
    if code == 0:
        assert "error" not in doc
    else:
        assert doc["error"] and doc["error_type"]
    return code, doc


@st.composite
def mutated_text(draw, text):
    """`text` after one to three edits: a deleted span, inserted
    characters, a deleted, duplicated or swapped line, or a number
    replaced by another, possibly a huge one."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        kind = draw(st.sampled_from(["delete", "insert", "drop-line",
                                     "copy-line", "swap-lines", "number"]))
        if kind == "delete" and text:
            i = draw(st.integers(0, len(text) - 1))
            text = text[:i] + text[i + draw(st.integers(1, 8)):]
        elif kind == "insert":
            i = draw(st.integers(0, len(text)))
            piece = draw(st.text(ALPHABET, min_size=1, max_size=6))
            text = text[:i] + piece + text[i:]
        elif kind == "drop-line":
            del lines[draw(st.integers(0, len(lines) - 1))]
            text = "\n".join(lines)
        elif kind == "copy-line":
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(lines)))
            text = "\n".join(lines)
        elif kind == "swap-lines":
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
        else:
            digits = [i for i, ch in enumerate(text) if ch.isdigit()]
            if digits:
                i = draw(st.sampled_from(digits))
                number = draw(st.one_of(st.integers(0, 12),
                                        st.integers(0, 2**70)))
                text = text[:i] + str(number) + text[i + 1:]
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def complex_file(workdir, name):
    """A small complex over the fixture `name`: the unit plus a simple,
    in degree zero."""
    spec = load_fixture(name)
    quiver = spec.quiver
    rep = direct_sum(unit_object(quiver, spec.field),
                     simple_object(quiver, quiver.vertices[-1], spec.field))
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(complex_to_json(
        BoundedComplex.from_representation(rep))))
    return path


def flags(command, vertices, workdir, name):
    if command in ("sheaf", "presheaf"):
        return ["--open", ",".join(vertices[:2])]
    if command == "compat":
        return ["--verts", ",".join(vertices[1:])]
    if command == "support":
        return ["--complex", str(complex_file(workdir, name))]
    return []


@pytest.mark.parametrize("command", COMMANDS)
@FUZZ
@given(data=st.data())
def test_mutated_spec_gets_one_document(command, workdir, data):
    name = data.draw(st.sampled_from(BASES))
    text = data.draw(mutated_text(TEXTS[name]))
    path = workdir / f"{command}.quiver"
    path.write_text(text, encoding="utf-8")
    vertices = list(load_fixture(name).quiver.vertices)
    assert_one_document([command, str(path),
                         *flags(command, vertices, workdir, name)])


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 300),
              st.floats(allow_nan=False), st.text("12ab-/", max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text("12ab", max_size=2), inner,
                                            max_size=3)),
    max_leaves=6)


@st.composite
def mutated_json(draw, data):
    """`data` with one value somewhere in it replaced, one key deleted or
    one key added."""
    node = data
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child:
            break
        node = child
    if isinstance(node, dict):
        kind = draw(st.sampled_from(["replace", "delete", "add"]))
        if kind == "add" or not node:
            node[draw(st.text("12abz", min_size=1, max_size=2))] = \
                draw(json_values)
        elif kind == "delete":
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            node[draw(st.sampled_from(sorted(node)))] = draw(json_values)
    elif isinstance(node, list) and node:
        node[draw(st.integers(0, len(node) - 1))] = draw(json_values)
    return data


@settings(FUZZ, max_examples=60)
@given(data=st.data())
def test_mutated_complex_gets_one_document(workdir, data):
    name = data.draw(st.sampled_from(BASES))
    doc = json.loads(complex_file(workdir, name).read_text())
    if data.draw(st.booleans()):
        text = json.dumps(data.draw(mutated_json(doc)))
    else:
        text = data.draw(mutated_text(json.dumps(doc)))
    path = workdir / "mutant.json"
    path.write_text(text, encoding="utf-8")
    assert_one_document(["support", str(FIXTURE_DIR / f"{name}.quiver"),
                         "--complex", str(path)])
