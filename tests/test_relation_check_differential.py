"""The relation coercion and the path check of a `Presentation` against
the code they replaced (`path_algebra_oracles.coerced_oracle` and
`check_path_oracle`): equal relations with the same coefficient classes,
a relation kept exactly when rebuilding it would give it back, and the
same QuiverError on every path that is not one of the quiver."""

import random
from fractions import Fraction
from pathlib import Path as FilePath

import pytest

from quivertt.dsl import parse_quiver_file
from quivertt.fields import QQ, PrimeField
from quivertt.path_algebra import (PathAlgebra, Presentation, _coerced,
                                   compatibility)
from quivertt.quiver import Path, QuiverError, Relation, enumerate_paths
from quivertt.randgen import random_tensor_quiver

from conftest import FIXTURE_NAMES, fixture_over, load_fixture
from path_algebra_oracles import check_path_oracle, coerced_oracle

FIELDS = [QQ, PrimeField(2), PrimeField(101)]
SPEC_DIR = FilePath(__file__).resolve().parent / "specs"
SPEC_NAMES = sorted(f.stem for f in SPEC_DIR.glob("*.quiver"))


def spec_cases():
    """(id, quiver, relations, field) of every fixture over each field of
    FIELDS, every spec of tests/specs, and seeded random tensor quivers
    over each field."""
    cases = []
    for name in FIXTURE_NAMES:
        for field in FIELDS:
            spec = load_fixture(name) if field is QQ else fixture_over(name, field)
            cases.append((f"{name}-{field.name}", spec.quiver,
                          spec.relations, field))
    for name in SPEC_NAMES:
        spec = parse_quiver_file(SPEC_DIR / f"{name}.quiver")
        cases.append((f"spec-{name}", spec.quiver, spec.relations,
                      spec.field))
    for field in FIELDS:
        for seed in range(12):
            q, rels = random_tensor_quiver(random.Random(seed), field=field)
            cases.append((f"random{seed}-{field.name}", q, rels, field))
    return cases


CASES = spec_cases()


def foreign_coefficients(field):
    """Coefficients that equal their value in `field` with another class,
    or differ from it, or already are field elements."""
    p = getattr(field, "p", 101)
    return [True, Fraction(2, 1), -1, p + 4, Fraction(1, 3)]


def with_first_coefficient(relations, i, c):
    """`relations` with the first coefficient of relation i set to c."""
    g = relations[i]
    (_, p), *rest = g.terms
    out = list(relations)
    out[i] = Relation(g.source, g.target, [(c, p), *rest])
    return tuple(out)


def classes(relations):
    return [[c.__class__ for c, _ in g.terms] for g in relations]


def assert_coerced_as_oracle(relations, field):
    new = _coerced(relations, field)
    old = coerced_oracle(relations, field)
    assert new == old
    assert classes(new) == classes(old)
    for g, h, o in zip(relations, new, old):
        # kept exactly when the rebuilt relation is the same relation
        assert (h is g) == (o == g and classes([o]) == classes([g]))
    return new


@pytest.mark.parametrize("name, quiver, relations, field", CASES,
                         ids=[c[0] for c in CASES])
def test_coerced_relations_match_the_oracle(name, quiver, relations, field):
    variants = [relations]
    if relations:
        variants += [with_first_coefficient(relations, i, c)
                     for i in (0, len(relations) - 1)
                     for c in foreign_coefficients(field)]
    for rels in variants:
        new = assert_coerced_as_oracle(rels, field)
        built = Presentation(quiver, rels, field).relations
        assert built == new and classes(built) == classes(new)


def test_a_relation_of_another_class_is_rebuilt():
    class Tagged(Relation):
        __slots__ = ()

    spec = load_fixture("square")
    g, = spec.relations
    tagged = Tagged(g.source, g.target, g.terms)
    new, = _coerced([tagged], QQ)
    assert new.__class__ is Relation and new == g


def parsed_specs():
    """(id, spec) of every fixture over QQ and F_101 and every spec of
    tests/specs."""
    out = [(f"{name}-QQ", load_fixture(name)) for name in FIXTURE_NAMES]
    out += [(f"{name}-F101", fixture_over(name, PrimeField(101)))
            for name in FIXTURE_NAMES]
    out += [(f"spec-{name}", parse_quiver_file(SPEC_DIR / f"{name}.quiver"))
            for name in SPEC_NAMES]
    return out


PARSED = parsed_specs()


@pytest.mark.parametrize("spec", [s for _, s in PARSED],
                         ids=[i for i, _ in PARSED])
def test_parsed_relations_are_kept(spec):
    pres = Presentation(spec.quiver, spec.relations, spec.field)
    assert len(pres.relations) == len(spec.relations)
    for i in range(len(spec.relations)):
        assert pres.relations[i] is spec.relations[i]
    alg = PathAlgebra(spec.quiver, spec.relations, spec.field)
    assert all(a is b for a, b in zip(alg.relations, spec.relations))
    result = compatibility(spec.quiver, spec.relations,
                           list(spec.quiver.vertices), spec.field)
    assert all(a is b for a, b in zip(result.r_cap, spec.relations))


# on the square a: 1 -> 2, b: 2 -> 4, c: 1 -> 3, d: 3 -> 4
BAD_PATHS = {
    "unknown arrow": Path("1", "2", ("zz",)),
    "unknown arrow after a known one": Path("1", "4", ("a", "zz")),
    "word that does not compose": Path("1", "3", ("a", "c")),
    "wrong target": Path("1", "3", ("a", "b")),
    "wrong source": Path("2", "4", ("a", "b")),
    "unknown source": Path("zz", "4", ("a", "b")),
    "trivial path at an unknown vertex": Path("zz", "zz", ()),
    "trivial path between two vertices": Path("1", "2", ()),
}


def oracle_message(quiver, p):
    with pytest.raises(QuiverError) as exc:
        check_path_oracle(quiver, p)
    return str(exc.value)


@pytest.mark.parametrize("what", list(BAD_PATHS))
def test_bad_path_raises_the_oracle_error(what):
    spec = load_fixture("square")
    p = BAD_PATHS[what]
    want = oracle_message(spec.quiver, p)
    pres = Presentation(spec.quiver, spec.relations, spec.field)
    with pytest.raises(QuiverError) as exc:
        pres._check_path(p)
    assert str(exc.value) == want
    if p.arrows:
        # the same path as a relation term fails the build the same way
        rel = Relation(p.source, p.target, [(1, p)])
        with pytest.raises(QuiverError) as exc:
            Presentation(spec.quiver, [rel], spec.field)
        assert str(exc.value) == want


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_path_check_matches_the_oracle_on_random_words(name, rng):
    spec = load_fixture(name)
    q = spec.quiver
    pres = Presentation(q, spec.relations, spec.field)
    for p in enumerate_paths(q)[0]:
        check_path_oracle(q, p)
        pres._check_path(p)
    vertices = list(q.vertices) + ["zz"]
    labels = [a.label for a in q.arrows] + ["zz"]
    for _ in range(300):
        word = tuple(rng.choice(labels) for _ in range(rng.randrange(4)))
        p = Path(rng.choice(vertices), rng.choice(vertices), word)
        try:
            check_path_oracle(q, p)
            want = None
        except QuiverError as exc:
            want = str(exc)
        try:
            pres._check_path(p)
            got = None
        except QuiverError as exc:
            got = str(exc)
        assert got == want, p
