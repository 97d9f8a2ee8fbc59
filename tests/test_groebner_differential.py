"""`groebner_basis`, which finds the overlaps of a new tip through an
index of the tips by their first and last arrows, against the loop that
matched each new tip with every rule at every overlap length
(`groebner_basis_oracle`); and the order of its rules, which must not
follow the per-process string hash.  Besides the fixtures, the specs and
random relation sets, the inputs include relations on the words in two
letters, the paths of a quiver with one vertex and two loops: no library
quiver has a cycle, so only there does a tip overlap itself.

The reduced Groebner basis of an ideal is unique for the admissible
order, so the rules must be equal as dicts.  The order in which the rules
were inserted is free: no caller reads it."""

import ast
import itertools
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from quivertt.fields import QQ, PrimeField
from quivertt.path_algebra import groebner_basis

from conftest import FIXTURE_DIR, FIXTURE_NAMES, load_fixture
from path_algebra_oracles import groebner_basis_oracle
from test_groebner import (MODULI, SPEC_NAMES, canonical_polys, load_spec,
                          readable)
from test_path_algebra_differential import relation_sets

SRC = FIXTURE_DIR.parent.parent
FIELDS = (QQ,) + tuple(PrimeField(p) for p in MODULI)


def instances():
    for field in FIELDS:
        for name in FIXTURE_NAMES:
            yield pytest.param(load_fixture, name, field, id=f"{name}-{field}")
        for name in SPEC_NAMES:
            if field == QQ or readable(load_spec(name), field.p):
                yield pytest.param(load_spec, name, field,
                                   id=f"{name}-{field}")


def assert_same_rules(polys, field):
    got = groebner_basis(polys, field)
    want = groebner_basis_oracle(polys, field)
    assert got.rules == want.rules
    assert got.lengths == want.lengths


@pytest.mark.parametrize("load, name, field", list(instances()))
def test_rules_match_the_oracle(load, name, field):
    assert_same_rules(canonical_polys(load(name), field), field)


@settings(max_examples=150, deadline=None)
@given(relation_sets())
def test_random_relation_sets_match_the_oracle(instance):
    _, relations, field = instance
    spec = SimpleNamespace(relations=relations)
    assert_same_rules(canonical_polys(spec, field), field)


LETTERS = ("a", "b")
WORDS = [w for n in (1, 2, 3) for w in itertools.product(LETTERS, repeat=n)]


@st.composite
def looped_polys(draw):
    """(polys, field): one to three polynomials of one to three terms in
    the words of length 1 to 3 in LETTERS, and every word of length 4 as
    a monomial, so that the quotient is finite-dimensional."""
    field = draw(st.sampled_from(FIELDS))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        poly = {}
        for w, c in draw(st.lists(st.tuples(st.sampled_from(WORDS),
                                            st.sampled_from((1, -1, 2, 3))),
                                  min_size=1, max_size=3)):
            poly[w] = poly.get(w, 0) + field(c)
        polys.append(poly)
    polys += [{w: field.one} for w in itertools.product(LETTERS, repeat=4)]
    return polys, field


@settings(max_examples=150, deadline=None)
@given(looped_polys())
def test_words_that_overlap_themselves_match_the_oracle(instance):
    assert_same_rules(*instance)


# Over QQ: the Groebner basis of beilinson3, then two fans of four tips
# that share an arrow, so that a new tip overlaps four of them at once:
# four tips a_i*b1 and then b1*c1, found through the last-arrow index,
# and four tips b1*c_j and then a1*b1, through the first-arrow index.
# Every overlap gives a new rule, inserted in the order it was found.
RULES = """
from quivertt.dsl import parse_quiver_file
from quivertt.fields import QQ
from quivertt.path_algebra import PathAlgebra, groebner_basis
spec = parse_quiver_file(sys.argv[1])
alg = PathAlgebra(spec.quiver, spec.relations, spec.field)
print(repr(list(alg.groebner.rules.items())))
a_b = [{("a%d" % i, "b1"): 1, ("a%d" % i, "b0"): -1} for i in range(1, 5)]
b_c = [{("b1", "c%d" % j): 1, ("b0", "c0"): -1} for j in range(1, 5)]
for polys in (a_b + b_c[:1], b_c + a_b[:1]):
    print(repr(list(groebner_basis(polys, QQ).rules.items())))
"""


def test_rule_order_does_not_follow_the_string_hash():
    """The tip index is insertion-ordered: a set of words would iterate in
    an order that changes with PYTHONHASHSEED, and so would the queue of
    S-polynomials and the order of the rules."""
    outputs = []
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-c", "import sys\n" + RULES,
             str(FIXTURE_DIR / "beilinson3.quiver")],
            env=env, capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert [len(ast.literal_eval(line))
            for line in outputs[0].splitlines()] == [12, 9, 9]
    assert outputs == outputs[:1] * len(outputs)
