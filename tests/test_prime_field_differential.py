"""The library's prime fields, whose elements are plain `int`s reduced by
each kernel, against the oracle field of `fields_oracle`, whose
`FpElement`s reduce in every operator and send the kernels down their
generic path.  Every command must print the same report, byte for byte,
with the same exit code, over both.

The inputs are the fixtures, the specs of `tests/specs`, and seeded
random quivers whose relations are combinations of two or three parallel
paths with coefficients among 2, 3, 1/2 and -3/2.  They are built here,
not in `randgen`, whose generators also make the benchmark's inputs.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from quivertt import dsl
from quivertt.cli import run_command
from quivertt.complexes import complex_to_json
from quivertt.quiver import enumerate_paths
from quivertt.randgen import random_morphism_complex, random_ordered_quiver

from conftest import FIXTURE_DIR, FIXTURE_NAMES
from fields_oracle import oracle_field

SPEC_DIR = Path(__file__).resolve().parent / "specs"
MODULI = (2, 3, 5, 101, 2**64 - 59)
SEEDS = range(40)

# coefficient lists of the random relations; some sum to zero, so the
# relation can pass the unit half of the tensor criterion, and some
# hold halves, which F_2 cannot read
COEFFICIENTS = [
    (2, Fraction(-1, 2), Fraction(-3, 2)),
    (Fraction(1, 2), Fraction(-3, 2), 1),
    (3, -2, -1),
    (2, -3, 1),
    (2, 3, Fraction(1, 2)),
    (Fraction(-3, 2), 3),
    (1, -1),
    (3, -3),
]

COMMANDS = ("validate", "spectrum", "check-tensor", "reconstruct",
            "filtration", "compare-points", "sheaf", "presheaf", "compat")


def literal(c):
    """A coefficient as the spec grammar writes it, sign apart."""
    c = abs(Fraction(c))
    return str(c.numerator) if c.denominator == 1 else str(c)


def relation_text(coeffs, paths):
    out = ""
    for i, (c, p) in enumerate(zip(coeffs, paths)):
        word = "*".join(p.arrows)
        term = word if abs(c) == 1 else f"{literal(c)} {word}"
        if i == 0:
            out = ("-" if c < 0 else "") + term
        else:
            out += (" - " if c < 0 else " + ") + term
    return out


def random_spec_text(seed):
    """A random ordered quiver with one to three relations, each a
    combination of parallel non-trivial paths with coefficients from
    COEFFICIENTS; the pair with the most parallel paths comes first, so
    most instances have a three-term relation."""
    rng = random.Random(seed)
    while True:
        quiver = random_ordered_quiver(rng, max_vertices=4, max_arrows=7)
        _, by_pair = enumerate_paths(quiver)
        parallel = sorted(
            ([p for p in plist if p.arrows] for plist in by_pair.values()),
            key=len, reverse=True)
        if parallel and len(parallel[0]) >= 3:
            break
    relations = []
    for plist in parallel[:rng.randint(1, 3)]:
        if len(plist) < 2:
            break
        coeffs = rng.choice([c for c in COEFFICIENTS if len(c) <= len(plist)])
        relations.append(relation_text(coeffs, rng.sample(plist, len(coeffs))))
    lines = [f"quiver random{seed}", "field QQ",
             "vertices " + " ".join(quiver.vertices)]
    lines += [f"arrow {a.label} : {a.source} -> {a.target}"
              for a in quiver.arrows]
    lines += [f"relation {r}" for r in relations]
    return "\n".join(lines) + "\n"


def spec_texts():
    """(name, text declared over QQ) of every input."""
    out = [(name, (FIXTURE_DIR / f"{name}.quiver").read_text())
           for name in FIXTURE_NAMES]
    out += [(path.stem, path.read_text())
            for path in sorted(SPEC_DIR.glob("*.quiver"))]
    out += [(f"random{seed}", random_spec_text(seed)) for seed in SEEDS]
    return out


def over(text, p):
    """`text`, which declares QQ or no field, redeclared over F_p."""
    if "field QQ\n" in text:
        return text.replace("field QQ\n", f"field F {p}\n")
    head, rest = text.split("\n", 1)
    return f"{head}\nfield F {p}\n{rest}"


def requests(spec, text, cx=None):
    """The argv of every command on the spec file `spec`, the sheaves and
    compat on the first two vertices of the spec `text`, and support on
    the complex file `cx`."""
    verts = ",".join(dsl.parse_quiver(text).quiver.vertices[:2])
    extra = {"sheaf": ["--open", verts], "presheaf": ["--open", verts],
             "compat": ["--verts", verts]}
    out = [[cmd, str(spec)] + extra.get(cmd, []) for cmd in COMMANDS]
    if cx is not None:
        out.append(["support", str(spec), "--complex", str(cx)])
    return out


def report(argv):
    doc, code = run_command(argv)
    return json.dumps(doc, indent=2, sort_keys=True), code


def seeded_complex(spec, seed, path):
    """A random two-term complex over the spec's field, written as JSON to
    `path`; None when the spec does not parse or its quiver is refused."""
    try:
        parsed = dsl.parse_quiver_file(spec)
        cx = random_morphism_complex(random.Random(seed), parsed.quiver,
                                     parsed.relations, parsed.field)
    except Exception:
        return None
    path.write_text(json.dumps(complex_to_json(cx)))
    return path


@pytest.mark.parametrize("p", MODULI)
@pytest.mark.parametrize("name, text", spec_texts(),
                         ids=[name for name, _ in spec_texts()])
def test_int_field_reports_match_oracle_field(name, text, p, tmp_path,
                                               monkeypatch):
    spec = tmp_path / f"{name}.quiver"
    spec.write_text(over(text, p))
    argvs = requests(spec, text,
                     seeded_complex(spec, p, tmp_path / "cx.json"))
    ints = [report(argv) for argv in argvs]
    by_name = dsl.field_by_name
    monkeypatch.setattr(dsl, "field_by_name",
                        lambda text: oracle_field(by_name(text)))
    objects = [report(argv) for argv in argvs]
    for argv, got, want in zip(argvs, ints, objects):
        assert got == want, argv[0]


def test_the_inputs_reach_every_outcome(tmp_path):
    """The random inputs hold three-term relations, pass and fail the
    tensor criterion over F_3, and include parse errors from halves over
    F_2, so the comparison above is not one of refusals alone."""
    spec = tmp_path / "spec.quiver"

    def run(text, command):
        spec.write_text(text)
        return run_command([command, str(spec)])

    texts = [text for name, text in spec_texts() if name.startswith("random")]
    three_terms = [t for t in texts if any(
        line.count(" + ") + line.count(" - ") >= 2
        for line in t.splitlines() if line.startswith("relation"))]
    assert len(three_terms) >= 20
    verdicts, codes = set(), set()
    for text in texts:
        doc, code = run(over(text, 3), "check-tensor")
        if code == 0:
            verdicts.add(doc["tensor_relations"])
        codes.add(code)
        codes.add(run(over(text, 2), "validate")[1])
    assert verdicts == {True, False} and codes == {0, 2}

