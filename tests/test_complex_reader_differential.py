"""`complexes.complex_from_json`, which parses each literal text once per
file and builds its matrices from the parsed elements with no second
coercion, against the reader it replaces (`complex_from_json_oracle`),
which parses every entry and lets the `Matrix` constructor coerce it
again.  Both must give the same terms, differentials and JSON document
over QQ, F_2 and F_101, on the fixtures and on seeded random complexes,
and raise the same exception, type and message, on bad literals and bad
grid shapes.

`Matrix.zeros`, `Matrix.identity` and `block_matrix`, which assemble
canonical entries, are checked against the coercing constructor.  Counts
pin the saving: `complex_from_json` calls `parse` once per distinct
literal text, and none of the four calls `field(x)` outside a parse."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from quivertt.complexes import (BoundedComplex, complex_from_json,
                                complex_to_json, shift, tensor_complex)
from quivertt.fields import QQ, PrimeField, Rationals
from quivertt.linalg import DimensionMismatch, Matrix, block_matrix
from quivertt.randgen import (random_complex, random_morphism_complex,
                              random_tensor_quiver)
from quivertt.repcat import unit_object

from complexes_oracles import complex_from_json_oracle
from conftest import (FIXTURE_NAMES, fixture_over, id_morphism, is_element,
                      load_fixture)
from linalg_oracles import from_rows

FIELDS = [QQ, PrimeField(2), PrimeField(101)]
FIELD_IDS = [field.name for field in FIELDS]
DRAWS_PER_FIXTURE = 4
SEEDS = range(30)


def draw(rng, quiver, relations, field):
    """A seeded complex: `random_complex`, a shifted two-term complex of a
    random morphism, or the tensor complex of two of those."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_complex(rng, quiver, relations, field)
    cx = shift(random_morphism_complex(rng, quiver, relations, field),
               rng.randint(-1, 1))
    if kind == 1:
        return cx
    return tensor_complex(
        cx, random_morphism_complex(rng, quiver, relations, field))


def grids(data):
    """Every entry grid of the complex document `data`."""
    for rep in data.get("terms", {}).values():
        yield from rep.get("arrows", {}).values()
    for comps in data.get("differentials", {}).values():
        yield from comps.values()


def with_numbers(data):
    """`data` with every other integer literal written as a JSON number,
    so that the texts "3" of 3 and "3" meet in one file."""
    flip = [False]

    def entry(x):
        flip[0] = not flip[0]
        return int(x) if flip[0] and "/" not in x else x

    return {
        "terms": {key: {"dims": rep["dims"],
                        "arrows": {label: [[entry(x) for x in row]
                                           for row in grid]
                                   for label, grid in rep["arrows"].items()}}
                  for key, rep in data["terms"].items()},
        "differentials": {key: {v: [[entry(x) for x in row] for row in grid]
                                for v, grid in comps.items()}
                          for key, comps in data["differentials"].items()},
    }


def read(reader, data, quiver, field):
    """The complex `reader` builds from `data`, or the exception it raises;
    any exception, since the two readers are compared on what they
    raise."""
    try:
        return reader(data, quiver, field)
    except Exception as exc:
        return exc


def assert_matches_oracle(data, quiver, field):
    got = read(complex_from_json, data, quiver, field)
    want = read(complex_from_json_oracle, data, quiver, field)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    assert got.degrees() == want.degrees()
    assert got.terms == want.terms
    assert got.differentials == want.differentials
    assert complex_to_json(got) == complex_to_json(want)
    for t in got.terms.values():
        for m in t.arrow_maps.values():
            assert all(is_element(x, field) for row in m.entries for x in row)
    for d in got.differentials.values():
        for m in d.components.values():
            assert all(is_element(x, field) for row in m.entries for x in row)


def assert_document_matches_oracle(cx):
    data = complex_to_json(cx)
    assert_matches_oracle(data, cx.quiver, cx.field)
    assert_matches_oracle(with_numbers(data), cx.quiver, cx.field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_documents_match_oracle(name, field):
    spec = fixture_over(name, field)
    rng = random.Random(f"reader-{name}-{field.name}")
    unit = unit_object(spec.quiver, field)
    assert_document_matches_oracle(
        BoundedComplex.from_map(id_morphism(unit), degree=-1))
    for _ in range(DRAWS_PER_FIXTURE):
        assert_document_matches_oracle(
            draw(rng, spec.quiver, spec.relations, field))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_documents_match_oracle(seed, field):
    rng = random.Random(seed)
    quiver, relations = random_tensor_quiver(rng, field=field)
    assert_document_matches_oracle(draw(rng, quiver, relations, field))


IDENTITY = [["1", "0"], ["0", "1"]]


def two_by_two(arrow_grid, differential_grid):
    """A document over kronecker2 with k^2 at both vertices in degrees 0
    and 1: the grid of x0 in degree 0 and the differential's grid at
    vertex 1 are the given ones, and every other grid is the identity."""
    dims = {"1": 2, "2": 2}
    return {"terms": {"0": {"dims": dims, "arrows": {"x0": arrow_grid,
                                                     "x1": IDENTITY}},
                      "1": {"dims": dims, "arrows": {"x0": IDENTITY,
                                                     "x1": IDENTITY}}},
            "differentials": {"0": {"1": differential_grid, "2": IDENTITY}}}


BAD_LITERALS = [0.5, "0.5", 2.0, True, None, "1e10000000", "7" * 5000,
                10 ** 4999, "1/0"]
BAD_LITERAL_IDS = ["0.5", "'0.5'", "2.0", "true", "null", "'1e10000000'",
                   "5000-digit-text", "5000-digit-number", "'1/0'"]
BAD_GRIDS = {
    # each bad literal after the good literal 1 in the same grid: a table
    # keyed by the JSON value would hand back the parsed 1 for `true`
    **{f"literal-{i}": [[1, bad], [0, 1]]
       for i, bad in zip(BAD_LITERAL_IDS, BAD_LITERALS)},
    "short-row": [[1, 0], [0]],
    "missing-row": [[1, 0]],
    "long-row": [[1, 0, 0], [0, 1]],
    "extra-row": [[1, 0], [0, 1], [0, 0]],
    # the literal's error wins over the shape's, wherever each is
    "bad-literal-then-missing-row": [["0.5", 0]],
    "short-row-then-bad-literal": [[1], [0, True]],
    "not-a-grid": [1, 0],
}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("where", ["arrow", "differential"])
@pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=list(BAD_GRIDS))
def test_bad_grids_raise_as_the_oracle(grid, where, field):
    quiver = load_fixture("kronecker2").quiver
    data = (two_by_two(grid, IDENTITY) if where == "arrow"
            else two_by_two(IDENTITY, grid))
    assert_matches_oracle(two_by_two(IDENTITY, IDENTITY), quiver, field)
    assert isinstance(read(complex_from_json_oracle, data, quiver, field),
                      Exception)
    assert_matches_oracle(data, quiver, field)


# -- the assembled constructors against the coercing one ----------------

def block_matrix_oracle(blocks, field):
    """The rows of the blocks joined and handed to the coercing `Matrix`."""
    if not blocks:
        return Matrix(0, 0, [], field)
    rows = []
    for brow in blocks:
        for i in range(brow[0].rows):
            rows.append(tuple(x for blk in brow for x in blk.entries[i]))
    return from_rows(rows, field, cols=sum(b.cols for b in blocks[0]))


def random_matrix(rng, rows, cols, field):
    return Matrix(rows, cols, [[rng.choice((0, 0, 1, -1, 2, Fraction(1, 3)))
                                for _ in range(cols)] for _ in range(rows)],
                  field)


def assert_canonical(m, field):
    assert type(m.entries) is tuple
    assert all(type(row) is tuple and len(row) == m.cols for row in m.entries)
    assert len(m.entries) == m.rows
    assert all(is_element(x, field) for row in m.entries for x in row)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_zeros_and_identity_match_the_coercing_constructor(field):
    for r in range(5):
        for c in range(5):
            got = Matrix.zeros(r, c, field)
            assert got == Matrix(r, c, [[0] * c for _ in range(r)], field)
            assert_canonical(got, field)
        got = Matrix.identity(r, field)
        assert got == Matrix(r, r, [[int(i == j) for j in range(r)]
                                    for i in range(r)], field)
        assert_canonical(got, field)


@pytest.mark.parametrize("shape", [(-1, 0), (0, -1), (-1, 2), (2, -1),
                                   (-2, -2)])
def test_negative_shapes_raise(shape):
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(*shape)
    with pytest.raises(DimensionMismatch):
        Matrix.identity(shape[0] if shape[0] < 0 else shape[1])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seed", range(20))
def test_block_matrix_matches_the_coercing_constructor(seed, field):
    rng = random.Random(seed)
    heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    widths = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    blocks = [[random_matrix(rng, h, w, field) for w in widths]
              for h in heights]
    got = block_matrix(blocks, field)
    assert got == block_matrix_oracle(blocks, field)
    assert (got.rows, got.cols) == (sum(heights), sum(widths))
    assert_canonical(got, field)
    assert block_matrix([], field) == block_matrix_oracle([], field)


def test_block_rows_of_unequal_widths_raise():
    blocks = [[Matrix.zeros(1, 2)], [Matrix.zeros(1, 1), Matrix.zeros(1, 2)]]
    for build in (block_matrix, block_matrix_oracle):
        with pytest.raises(DimensionMismatch,
                           match="entry grid does not match shape 2x2"):
            build(blocks, QQ)


# -- the counts that pin the saving --------------------------------------

@pytest.fixture
def counts(monkeypatch):
    """Calls of `parse`, and of `field(x)` outside a parse, over QQ and
    F_p: `parse` itself coerces the fraction it reads."""
    counts = Counter()
    depth = [0]
    for cls in (Rationals, PrimeField):
        def counted_parse(self, text, parse=cls.parse):
            counts["parse"] += 1
            depth[0] += 1
            try:
                return parse(self, text)
            finally:
                depth[0] -= 1

        def counted_call(self, x, call=cls.__call__):
            if not depth[0]:
                counts["call"] += 1
            return call(self, x)

        monkeypatch.setattr(cls, "parse", counted_parse)
        monkeypatch.setattr(cls, "__call__", counted_call)
    return counts


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", ["kronecker2", "beilinson1", "square"])
def test_reader_parses_each_literal_text_once(name, field, counts):
    spec = fixture_over(name, field)
    rng = random.Random(f"count-{name}-{field.name}")
    unit = unit_object(spec.quiver, field)
    complexes = [BoundedComplex.from_map(id_morphism(unit))]
    complexes += [draw(rng, spec.quiver, spec.relations, field)
                  for _ in range(DRAWS_PER_FIXTURE)]
    for cx in complexes:
        for data in (complex_to_json(cx), with_numbers(complex_to_json(cx))):
            texts = {str(x) for grid in grids(data) for row in grid
                     for x in row}
            counts.clear()
            complex_from_json(data, spec.quiver, field)
            assert counts == Counter(parse=len(texts))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_assembled_constructors_coerce_nothing(field, counts):
    rng = random.Random(field.name)
    blocks = [[random_matrix(rng, 2, w, field) for w in (1, 3)],
              [random_matrix(rng, 1, w, field) for w in (1, 3)]]
    counts.clear()
    for n in range(4):
        Matrix.identity(n, field)
        Matrix.zeros(n, 3 - n, field)
    block_matrix(blocks, field)
    block_matrix([], field)
    assert counts == Counter()
