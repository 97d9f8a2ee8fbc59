"""The Groebner layer of `path_algebra` on its own, over prime fields.

The relation polynomials, the S-polynomials and the rules sent back to be
reduced again are left unreduced: each goes only into
`GroebnerBasis.reduce`, which reduces every term mod p as it pops it and
skips zeros.  So `groebner_basis` must give the same rules however its
inputs are written mod p, and `reduce` must return canonical nonzero
entries from any input.  The inputs are the relations of the fixtures
and of `tests/specs`, over F_2, F_3, F_101 and F_(2^64 - 59).
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from quivertt.dsl import parse_quiver_file
from quivertt.fields import PrimeField
from quivertt.path_algebra import groebner_basis
from quivertt.quiver import enumerate_paths

from conftest import FIXTURE_NAMES, is_element, load_fixture
from path_algebra_oracles import contains, order_key

SPEC_DIR = Path(__file__).resolve().parent / "specs"
SPEC_NAMES = sorted(p.stem for p in SPEC_DIR.glob("*.quiver"))
MODULI = (2, 3, 101, 2**64 - 59)


def load_spec(name):
    return parse_quiver_file(SPEC_DIR / f"{name}.quiver")


def readable(spec, p):
    """Whether F_p can read every coefficient of the relations of `spec`."""
    return all(Fraction(c).denominator % p
               for g in spec.relations for c, _ in g.terms)


def instances():
    for p in MODULI:
        for name in FIXTURE_NAMES:
            yield pytest.param(load_fixture, name, p, id=f"{name}-F{p}")
        for name in SPEC_NAMES:
            if readable(load_spec(name), p):
                yield pytest.param(load_spec, name, p, id=f"{name}-F{p}")


def canonical_polys(spec, field):
    """Each relation as {word: coefficient} with the coefficients in
    `field` and zeros dropped."""
    polys = []
    for g in spec.relations:
        poly = {}
        for c, path in g.terms:
            w = path.arrows
            poly[w] = poly.get(w, 0) + field(c)
        polys.append(field.nonzero(poly.items()))
    return polys


def scrambled(poly, p, rng, spare_words):
    """`poly` with every coefficient shifted by a multiple of p, negative
    ones included, and a zero term (0 or a multiple of p) on a word of
    `spare_words` that `poly` does not hold, if there is one."""
    out = {w: c + rng.choice((-2, -1, 1, 3)) * p for w, c in poly.items()}
    spare = [w for w in spare_words if w not in out]
    if spare:
        out[rng.choice(spare)] = rng.choice((0, p, -p, 5 * p))
    return out


def paths_by_word_pair(spec):
    """The words of the paths of `spec`'s quiver, by (source, target)."""
    return {pair: [q.arrows for q in paths]
            for pair, paths in enumerate_paths(spec.quiver)[1].items()}


@pytest.mark.parametrize("load, name, p", list(instances()))
def test_rules_do_not_depend_on_how_inputs_are_written(load, name, p):
    spec, field = load(name), PrimeField(p)
    polys = canonical_polys(spec, field)
    want = groebner_basis(polys, field)
    words = paths_by_word_pair(spec)
    rng = random.Random(p)
    for _ in range(3):
        raw = [scrambled(poly, p, rng, words[(g.source, g.target)])
               for poly, g in zip(polys, spec.relations)]
        got = groebner_basis(raw, field)
        assert list(got.rules) == list(want.rules)
        for tip, rhs in want.rules.items():
            assert list(got.rules[tip].items()) == list(rhs.items()), tip
        assert got.lengths == want.lengths


@pytest.mark.parametrize("load, name, p", list(instances()))
def test_rules_are_monic_canonical_and_reduced(load, name, p):
    spec, field = load(name), PrimeField(p)
    polys = canonical_polys(spec, field)
    gb = groebner_basis(polys, field)
    tips = list(gb.rules)
    assert gb.lengths == sorted({len(t) for t in tips})
    for tip, rhs in gb.rules.items():
        # tip - rhs has the tip, coefficient 1, as its leading word
        assert all(order_key(w) < order_key(tip) for w in rhs), tip
        assert all(c and is_element(c, field) for c in rhs.values()), tip
        assert not any(contains(tip, t) for t in tips if t != tip), tip
        assert not any(contains(w, t) for w in rhs for t in tips), tip
    # every relation lies in the ideal the rules generate
    assert all(gb.reduce(poly) == {} for poly in polys)


@pytest.mark.parametrize("load, name, p", list(instances()))
def test_reduce_returns_canonical_nonzero_entries(load, name, p):
    spec, field = load(name), PrimeField(p)
    gb = groebner_basis(canonical_polys(spec, field), field)
    tips = list(gb.rules)
    rng = random.Random(p)
    for words in paths_by_word_pair(spec).values():
        # zeros, multiples of p, negative and unreduced ints
        raw = {w: rng.choice((0, p, -3 * p, 1, -1, p + 2, 7 * p - 1,
                              rng.randrange(-4 * p, 4 * p)))
               for w in words}
        got = gb.reduce(raw)
        assert all(c and is_element(c, field) for c in got.values())
        assert not any(contains(w, t) for w in got for t in tips)
        want = gb.reduce(field.nonzero(raw.items()))
        assert list(got.items()) == list(want.items())
