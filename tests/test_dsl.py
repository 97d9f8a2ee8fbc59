from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivertt.dsl import ParseError, parse_quiver, parse_quiver_file
from quivertt.fields import PrimeField

from conftest import FIXTURE_DIR, FIXTURE_NAMES


GOOD = """\
quiver demo
field QQ
vertices 1 2 3
arrow a : 1 -> 2   # first hop
arrow b : 2 -> 3
arrow c : 1 -> 2
arrow d : 2 -> 3

# commutativity
relation a*b - c*d
relation 1/2 a*b - 1/2 c*d
"""


class TestParsing:
    def test_good_file(self):
        spec = parse_quiver(GOOD)
        assert spec.name == "demo"
        assert spec.quiver.vertices == ("1", "2", "3")
        assert [a.label for a in spec.quiver.arrows] == ["a", "b", "c", "d"]
        assert len(spec.relations) == 2
        assert spec.relations[1].terms[0][0] == Fraction(1, 2)

    def test_fixture_files_parse(self):
        for name in FIXTURE_NAMES:
            spec = parse_quiver_file(FIXTURE_DIR / f"{name}.quiver")
            assert spec.name == name

    def test_prime_field_selection(self):
        spec = parse_quiver("quiver x\nfield F 5\nvertices 1\n")
        assert spec.field == PrimeField(5)
        spec2 = parse_quiver("quiver x\nfield F5\nvertices 1\n")
        assert spec2.field == PrimeField(5)

    def test_relations_are_read_after_every_other_line(self):
        # docs/grammar.ebnf: a relation may stand above its arrows, and the
        # field line sets its field wherever that line stands
        text = ("quiver late\nrelation a*b - 4 c*b\nrelation 1/2 a*b\n"
                "vertices 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\n"
                "arrow c : 1 -> 2\nfield F 3\n")
        spec = parse_quiver(text)
        assert spec.field == PrimeField(3)
        assert [[c for c, _ in r.terms] for r in spec.relations] == [[1, 2], [2]]
        assert spec.pretty().splitlines()[-2:] == [
            "relation a*b + 2 c*b", "relation 2 a*b"]
        # a denominator that vanishes in that later field is refused at
        # the relation's line and column
        with pytest.raises(ParseError) as exc:
            parse_quiver(text.replace("1/2", "1/3"))
        assert (exc.value.line, exc.value.column) == (3, 10)
        # an error in another line is reported before one in a relation
        with pytest.raises(ParseError) as exc:
            parse_quiver(text.replace("1/2", "1/3") + "arrow\n")
        assert exc.value.line == 9

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_quiver("\n# hi\nquiver x\n\nvertices 1 # inline\n")
        assert spec.quiver.vertices == ("1",)


class TestDiagnostics:
    def check(self, text, fragment, line=None):
        with pytest.raises(ParseError) as err:
            parse_quiver(text)
        assert fragment in str(err.value)
        if line is not None:
            assert err.value.line == line

    def test_empty_vertex_list(self):
        self.check("quiver x\nvertices\n", "empty vertex list", line=2)

    def test_missing_quiver(self):
        self.check("vertices 1\n", "missing quiver")

    def test_missing_vertices(self):
        self.check("quiver x\n", "missing vertices")

    def test_unknown_declaration(self):
        self.check("quiver x\nvertices 1\nwat 7\n", "unknown declaration",
                   line=3)

    def test_unknown_arrow_in_relation(self):
        self.check("quiver x\nvertices 1 2\narrow a : 1 -> 2\nrelation b\n",
                   "unknown arrow 'b'", line=4)

    def test_non_composable_path(self):
        self.check("quiver x\nvertices 1 2 3\narrow a : 1 -> 2\n"
                   "arrow b : 1 -> 3\nrelation a*b\n", "do not compose",
                   line=5)

    def test_inhomogeneous_relation(self):
        self.check("quiver x\nvertices 1 2 3\narrow a : 1 -> 2\n"
                   "arrow b : 1 -> 3\nrelation a - b\n", "homogeneous",
                   line=5)

    def test_trailing_garbage(self):
        self.check("quiver x y\nvertices 1\n", "trailing text", line=1)

    def test_bad_arrow_syntax(self):
        self.check("quiver x\nvertices 1 2\narrow a 1 -> 2\n", "expected ':'",
                   line=3)

    def test_duplicate_arrow(self):
        self.check("quiver x\nvertices 1 2\narrow a : 1 -> 2\n"
                   "arrow a : 1 -> 2\n", "duplicate arrow")

    def test_duplicate_field(self):
        # like a second quiver or vertices line, and wherever it stands
        for text in ("quiver x\nfield QQ\nvertices 1\nfield F 3\n",
                     "quiver x\nfield F 3\nvertices 1\n  field F 3\n"):
            with pytest.raises(ParseError) as err:
                parse_quiver(text)
            assert "duplicate field declaration" in str(err.value)
            assert (err.value.line, err.value.column) == (
                4, text.splitlines()[3].index("field") + 6)

    def test_unknown_field(self):
        self.check("quiver x\nfield R\nvertices 1\n", "unknown field")

    @pytest.mark.parametrize("modulus", ["1_01", "101_"])
    def test_modulus_must_be_digits(self, modulus):
        # int() would read "1_01" as 101; the grammar's integer is digits
        self.check(f"quiver x\nfield F {modulus}\nvertices 1\n",
                   "unknown field")

    @pytest.mark.parametrize("coeff", ["\u0663", "1/\u0663"])
    def test_coefficient_must_be_ascii_digits(self, coeff):
        # the grammar's integer is ASCII digits; int() would read U+0663 as 3
        self.check("quiver x\nvertices 1 2\narrow a : 1 -> 2\n"
                   f"relation {coeff} a\n", "bad rational literal", line=4)

    @pytest.mark.parametrize("label", ["2a", "2", "0_x"])
    def test_arrow_label_must_not_start_with_a_digit(self, label):
        # else `relation 2a*b` would read as 2 times the path a*b
        with pytest.raises(ParseError) as err:
            parse_quiver(f"quiver x\nvertices 1 2\narrow  {label} : 1 -> 2\n")
        assert "starts with a digit" in str(err.value)
        assert (err.value.line, err.value.column) == (3, 8)

    def test_coefficient_is_read_before_the_path(self):
        spec = parse_quiver("quiver x\nvertices 1 2 3\narrow a : 1 -> 2\n"
                            "arrow b : 2 -> 3\narrow c : 1 -> 2\n"
                            "relation 2a*b - c*b\n")
        assert [(c, p.word()) for c, p in spec.relations[0].terms] == \
            [(2, "a*b"), (-1, "c*b")]

    @pytest.mark.parametrize("term, column", [("12", 12), ("12*a", 12)])
    def test_coefficient_without_path(self, term, column):
        # the digits are a coefficient, never re-read as a label `12`
        with pytest.raises(ParseError) as err:
            parse_quiver("quiver x\nvertices 1 2\narrow a : 1 -> 2\n"
                         f"relation {term}\n")
        assert "expected arrow label" in str(err.value)
        assert (err.value.line, err.value.column) == (4, column)

    def test_arrow_to_unknown_vertex(self):
        with pytest.raises(ParseError):
            parse_quiver("quiver x\nvertices 1\narrow a : 1 -> 9\n")


class TestRoundTrip:
    def test_fixture_round_trips(self):
        for name in FIXTURE_NAMES:
            spec = parse_quiver_file(FIXTURE_DIR / f"{name}.quiver")
            text = spec.pretty()
            again = parse_quiver(text)
            assert again.pretty() == text
            assert again.quiver == spec.quiver
            assert again.relations == spec.relations

    def test_coefficient_round_trip(self):
        spec = parse_quiver(GOOD)
        again = parse_quiver(spec.pretty())
        assert again.relations == spec.relations


names = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_spec_round_trip(data):
    n = data.draw(st.integers(2, 4))
    verts = [str(i) for i in range(1, n + 1)]
    n_arrows = data.draw(st.integers(0, 5))
    lines = ["quiver t", "vertices " + " ".join(verts)]
    for k in range(n_arrows):
        i = data.draw(st.integers(1, n - 1))
        j = data.draw(st.integers(i + 1, n))
        lines.append(f"arrow a{k} : {i} -> {j}")
    spec = parse_quiver("\n".join(lines) + "\n")
    assert parse_quiver(spec.pretty()).pretty() == spec.pretty()
