import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from quivertt.dsl import parse_quiver, parse_quiver_file
from quivertt.fields import QQ
from quivertt.quiver import Relation

import fields_oracle

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src/quivertt/fixtures"

FIXTURE_NAMES = [
    "kronecker1", "kronecker2", "kronecker3", "kronecker4",
    "beilinson1", "beilinson2", "beilinson3",
    "square", "disconnected", "chain4",
]


def load_fixture(name):
    return parse_quiver_file(FIXTURE_DIR / f"{name}.quiver")


def fixture_over(name, field):
    """The fixture `name` redeclared over `field`."""
    text = (FIXTURE_DIR / f"{name}.quiver").read_text()
    assert text.count("field QQ\n") == 1
    spec = parse_quiver(text.replace("field QQ\n", f"field {field.name}\n"))
    assert spec.field == field
    return spec


def beilinson_text(m, length):
    """Spec text of beil(m, L): a chain of L vertices, m+1 parallel arrows
    per step, and every commutativity relation x_i*x'_j - x_j*x'_i between
    neighbouring steps.  beil(m, m+2) is the fixture beilinson<m>."""
    lines = [f"quiver beil_{m}_{length}",
             "vertices " + " ".join(str(v) for v in range(1, length + 1))]
    lines += [f"arrow x{s}_{j} : {s} -> {s + 1}"
              for s in range(1, length) for j in range(m + 1)]
    lines += [f"relation x{s}_{i}*x{s + 1}_{j} - x{s}_{j}*x{s + 1}_{i}"
              for s in range(1, length - 1)
              for i in range(m + 1) for j in range(i + 1, m + 1)]
    return "\n".join(lines) + "\n"


def load_beilinson(m, length):
    return parse_quiver(beilinson_text(m, length))


def relation_from_terms(terms):
    """The relation of the (coefficient, path) pairs `terms`, running
    between the ends of the first path."""
    terms = tuple(terms)
    first = terms[0][1]
    return Relation(first.source, first.target, terms)


def element_types(field):
    """The types a value of `field` may have: an `int` (when integral) or
    a `Fraction` over QQ, an `int` over F_p, and an `FpElement` over the
    oracle field of `fields_oracle`.  Check a value with
    `type(x) in element_types(field)`, which refuses `bool` and `float`."""
    if field == QQ:
        return (int, Fraction)
    if isinstance(field, fields_oracle.PrimeField):
        return (fields_oracle.FpElement,)
    return (int,)


@st.composite
def unit_lower_triangular(draw, d):
    """A random unit lower-triangular integer matrix T of size d and its
    inverse, as lists of int rows.  The inverse is integral too, so both
    map into every field, where they stay inverse to each other."""
    t = [[draw(st.integers(-2, 2)) if j < i else int(i == j) for j in range(d)]
         for i in range(d)]
    inv = []
    for i in range(d):
        # row i of T^-1 from T T^-1 = 1, by forward substitution
        inv.append([int(i == j) - sum(t[i][k] * inv[k][j] for k in range(i))
                    for j in range(d)])
    return t, inv


def is_element(x, field):
    """Whether `x` is a canonical element of `field`: of one of its
    `element_types`, and in [0, p) over the library's F_p."""
    return (type(x) in element_types(field)
            and (field.modulus is None or 0 <= x < field.modulus))


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(params=FIXTURE_NAMES)
def fixture_spec(request):
    return load_fixture(request.param)


# -- acceptance summary: one pass/fail line per criterion ---------------

_acceptance_results = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid and report.when == "call":
        _acceptance_results[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_results):
        outcome = _acceptance_results[name]
        terminalreporter.write_line(
            f"{name}: {'PASS' if outcome == 'passed' else outcome.upper()}")
