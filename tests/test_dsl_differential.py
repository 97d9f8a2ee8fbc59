"""The spec parser against the cursor parser it replaced (`dsl_oracle`).

On every input both give the same spec (the same `pretty()` text, field
and relation terms, each coefficient of the same type), or both raise the
same error: a ParseError with the same message, line and column, or any
other exception with the same type and message.  The inputs are the
fixtures, `tests/specs/*`, Beilinson chains, 40 random tensor quivers over
four fields, lines written to reach every diagnostic, every short relation
and declaration over a small alphabet, and derandomized mutants from
`test_fuzz.mutated_text`.  An input that declares an arrow
label starting with a digit, or that declares the field twice, is left
out: the library refuses it by design, and the oracle read it.
"""

import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dsl_oracle
from quivertt import dsl
from quivertt.fields import QQ, PrimeField
from quivertt.randgen import random_tensor_quiver

from conftest import FIXTURE_DIR, FIXTURE_NAMES, beilinson_text
from test_fuzz import TEXTS, mutated_text

SPEC_DIR = Path(__file__).resolve().parent / "specs"
SPECS = {p.stem: p.read_text() for p in sorted(SPEC_DIR.glob("*.quiver"))}
FIXTURES = {name: (FIXTURE_DIR / f"{name}.quiver").read_text()
            for name in FIXTURE_NAMES}
DIGIT_LABEL = re.compile(r"[ \t]*arrow[ \t]+[0-9]")
FIELD_LINE = re.compile(r"[ \t]*field(?![A-Za-z0-9_])")
FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(101))

BASE = "quiver x\nvertices 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\n" \
       "arrow c : 1 -> 2\n"
# one line added to BASE; between them they reach every diagnostic
LINES = [
    "relation a*b - c*b", "relation -a*b+c*b", "relation 2 a*b - 1/2 c*b",
    "relation 2a*b - c*b", "relation a * b\t-\tc*b", "relation 1_a",
    "relation", "relation +", "relation -", "relation a*b c*b",
    "relation a*b -", "relation 12", "relation 12*a", "relation 1/2/3 a",
    "relation 1/0 a", "relation 1/ a", "relation 1/0", "relation a**b",
    "relation a*", "relation a* ", "relation *a", "relation *", "relation  *",
    "relation a*b - * c",
    "relation a*d", "relation d*a", "relation 2 d", "relation a*c",
    "relation c*a*d", "relation a - b", "relation ٣ a",
    "relation 1/٣ a", "relation \xa0a", "relationa", "relation+a*b",
    "relation a*b-c*b", "relation 99999999999999999999999 a*b",
    "arrow", "arrow d", "arrow d :", "arrow d : 1", "arrow d : 1 ->",
    "arrow d 1 -> 2", "arrow d : 1 - 2", "arrow d:1->2", "arrow d : 1 -> 2 3",
    "arrow d : 1 -> 9", "arrow a : 1 -> 2", "arrow d : 1 -> 2 # c",
    "arrow : 1 -> 2", "arrowd : 1 -> 2", "arrow d : 1 -> \xe9",
    "quiver y", "quiver", "quiverx", "quiver :", "field", "field F",
    "field F 5", "field F5", "field F 5 7", "field F5 7", "field FF",
    "field F x", "field QQ QQ", "field F 4", "field F 0101", "field R",
    "field F 1_01", "field F 340282366920938463463374607431768211507",
    "field :", "vertices 4", "vertices", "\tvertices 1", "wat 7", ":",
    "\xa0quiver x", "\x0bquiver x", "vertices 1 :",
]


def outcome(parse, text):
    """What `parse` makes of `text`: the spec's parts, or the error."""
    try:
        spec = parse(text)
    except (dsl.ParseError, dsl_oracle.ParseError) as exc:
        return ("ParseError", str(exc), exc.line, exc.column)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return ("spec", spec.pretty(), spec.field,
            [[(c, type(c), p) for c, p in r.terms] for r in spec.relations])


def declares_digit_label(text):
    return any(DIGIT_LABEL.match(line) for line in text.splitlines())


def declares_field_twice(text):
    return sum(bool(FIELD_LINE.match(line)) for line in text.splitlines()) > 1


def refused_by_design(text):
    return declares_digit_label(text) or declares_field_twice(text)


def assert_same(text):
    assert outcome(dsl.parse_quiver, text) == \
        outcome(dsl_oracle.parse_quiver, text), text


@pytest.mark.parametrize("text", [*FIXTURES.values(), *SPECS.values()],
                         ids=[*FIXTURES, *SPECS])
def test_spec_files(text):
    assert_same(text)


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("length", range(1, 6))
def test_beilinson_chains(m, length):
    assert_same(beilinson_text(m, length))


@pytest.mark.parametrize("seed", range(40))
def test_random_tensor_quivers(seed):
    rng = random.Random(seed)
    field = FIELDS[seed % len(FIELDS)]
    quiver, relations = random_tensor_quiver(rng, 5, 8, field=field)
    text = dsl.QuiverSpecFile(f"r{seed}", field, quiver, relations).pretty()
    assert_same(text)
    assert outcome(dsl.parse_quiver, text)[0] == "spec"


@pytest.mark.parametrize("line", LINES)
def test_diagnostics(line):
    text = BASE + line + "\n"
    if refused_by_design(text):
        pytest.skip("declares a digit-leading label or two field lines")
    assert_same(text)
    assert_same(line + "\n" + BASE)


@pytest.mark.parametrize("line", [x for x in LINES if x.startswith("relation")])
def test_relations_over_a_prime_field(line):
    # a minus sign over F_3 gives the representative of the negation
    text = "field F 3\n" + BASE + line + "\n"
    if refused_by_design(text):
        pytest.skip("declares a digit-leading label or two field lines")
    assert_same(text)


# every message the parser composes, as a fragment
MESSAGES = [
    "empty relation", "expected arrow label",
    "expected '+' or '-' between relation terms", "unknown arrow",
    "do not compose", "not homogeneous", "bad rational literal",
    "expected ':'", "expected '->'", "expected source vertex",
    "expected target vertex", "expected quiver name", "expected field name",
    "expected prime", "unknown field", "expected vertex", "empty vertex list",
    "duplicate quiver declaration", "duplicate vertices declaration",
    "duplicate arrow label", "trailing text", "unknown declaration",
    "expected declaration keyword", "unknown endpoint",
    "missing quiver declaration", "missing vertices declaration",
]
WHOLE = ["", "\n\n# only a comment\n", "vertices 1\n", "quiver x\n",
         "quiver x\nvertices 1 1\n", "quiver x\r\nvertices 1\r\n",
         "quiver x\nvertices 1\u2028arrow a : 1 -> 1\n"]


@pytest.mark.parametrize("text", WHOLE)
def test_whole_texts(text):
    assert_same(text)


def test_diagnostics_reach_every_message():
    texts = WHOLE + [t for line in LINES
                     for t in (BASE + line + "\n", line + "\n" + BASE)]
    outcomes = [outcome(dsl.parse_quiver, t) for t in texts]
    seen = " | ".join(o[1] for o in outcomes if o[0] == "ParseError")
    assert [m for m in MESSAGES if m not in seen] == []


def short_strings(alphabet, longest):
    for length in range(longest + 1):
        yield from map("".join, itertools.product(alphabet, repeat=length))


def test_every_short_relation():
    # 4681 relation bodies: every string of at most four characters over
    # the characters a relation gives a meaning to
    for rest in short_strings(" a*+-1/\t", 4):
        assert_same(BASE + "relation" + rest + "\n")


@pytest.mark.parametrize("keyword", ["arrow", "field", "vertices", "quiver",
                                     "relation", "x"])
def test_every_short_declaration(keyword):
    for rest in short_strings(" a1:->F\t", 3):
        for text in (BASE + keyword + rest + "\n", keyword + rest + "\n" + BASE):
            if not refused_by_design(text):
                assert_same(text)


MUTANT_BASES = [*TEXTS.values(), *SPECS.values()]


def test_mutants():
    compared = []

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        text = data.draw(mutated_text(data.draw(st.sampled_from(MUTANT_BASES))))
        if not refused_by_design(text):
            compared.append(text)
            assert_same(text)

    check()
    # the skip leaves most mutants in: the fuzz alphabet rarely puts a
    # digit right after `arrow `, or a second `field` line in a text
    assert len(compared) >= 300
