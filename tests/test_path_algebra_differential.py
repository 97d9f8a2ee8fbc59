"""The quotient kQ/(R), built from a reduced Groebner basis of the ideal,
against the builder that reduced every path and solved for its
coordinates, whichever reader first lists its basis; the basis rule
against ranks of stacked matrices; and subquiver compatibility against
membership in the span of ideal rows."""

import random
import sys
from fractions import Fraction
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings, strategies as st

from quivertt.dsl import parse_quiver, parse_quiver_file
from quivertt.fields import QQ, PrimeField
from quivertt.linalg import Echelon
from quivertt.path_algebra import (PathAlgebra, TensorRelationError,
                                   compatibility, is_tensor_relations)
from quivertt.quiver import (Arrow, Path, Quiver, QuiverError, admissible_order,
                             enumerate_paths, list_paths)
from quivertt.randgen import random_tensor_quiver

from conftest import (FIXTURE_NAMES, is_element, load_beilinson,
                      load_fixture, relation_from_terms)
from path_algebra_oracles import (compatibility_oracle, contains, first_reads,
                                  ideal_rows_oracle, join_paths,
                                  nf_path_oracle, quotient_oracle)

FIELDS = [QQ, PrimeField(101)]
SPEC_DIR = FilePath(__file__).resolve().parent / "specs"

# relations whose coefficients are not +-1, of mixed path lengths, with a
# monomial relation, and not all of them tensor relations
WEIGHTED = """quiver weighted
vertices 1 2 3 4
arrow x0 : 1 -> 2
arrow x1 : 1 -> 2
arrow x2 : 1 -> 2
arrow y0 : 2 -> 3
arrow y1 : 2 -> 3
arrow y2 : 2 -> 3
arrow z0 : 3 -> 4
arrow z1 : 3 -> 4
arrow s : 1 -> 3
relation 2 x0*y1 - 3/4 x1*y0 + 5 x2*y2
relation 7/3 x0*y0 + 2 s - 1/2 x2*y1
relation 3 y0*z1 - 8 y1*z0
relation 6 y2*z1
"""
DIAMOND = """quiver diamond
vertices 1 2 3 4 5
arrow a : 1 -> 2
arrow b : 2 -> 5
arrow c : 1 -> 3
arrow d : 3 -> 5
arrow e : 1 -> 4
arrow f : 4 -> 5
relation 3 a*b + 2 c*d - 1/3 e*f
relation 5 a*b - 9/2 e*f
"""
SQUARE = """quiver weighted_square
vertices 1 2 3 4
arrow a : 1 -> 2
arrow b : 2 -> 4
arrow c : 1 -> 3
arrow d : 3 -> 4
relation 3 a*b - 5 c*d
"""
# two binomials whose tips a11*a21 and a21*a30 overlap in a21: the
# S-polynomial of the overlap, a11*a20*a31 - a10*a20*a30, joins the basis
OVERLAP = """quiver overlap
vertices 1 2 3 4
arrow a10 : 1 -> 2
arrow a11 : 1 -> 2
arrow a20 : 2 -> 3
arrow a21 : 2 -> 3
arrow a30 : 3 -> 4
arrow a31 : 3 -> 4
relation a10*a20 - a11*a21
relation a21*a30 - a20*a31
"""
# the tip p*q of the second relation lies inside the tip p*q*c of the
# first, which reduces to a*b*c - a*q*c: a new element with tip a*q*c
INCLUSION = """quiver inclusion
vertices 1 2 3 4
arrow a : 1 -> 2
arrow p : 1 -> 2
arrow b : 2 -> 3
arrow q : 2 -> 3
arrow c : 3 -> 4
relation p*q*c - a*q*c
relation p*q - a*b
"""


def of_spec(spec):
    return spec.quiver, spec.relations


def instances():
    """Makers of (quiver, relations): the fixtures, seeded random quivers,
    Beilinson chains, the texts above and the specs; collecting builds
    nothing."""
    for name in FIXTURE_NAMES:
        yield pytest.param(lambda n=name: of_spec(load_fixture(n)), id=name)
    for seed in range(100):
        yield pytest.param(
            lambda s=seed: random_tensor_quiver(random.Random(s)),
            id=f"random{seed}")
    for m, length in ((1, 4), (2, 4), (3, 3), (2, 5)):
        yield pytest.param(lambda m=m, n=length: of_spec(load_beilinson(m, n)),
                           id=f"beil{m}_{length}")
    for text in (WEIGHTED, DIAMOND, SQUARE, OVERLAP, INCLUSION):
        yield pytest.param(lambda t=text: of_spec(parse_quiver(t)),
                           id=text.split()[1])
    for path in sorted(SPEC_DIR.glob("*.quiver")):
        yield pytest.param(lambda p=path: of_spec(parse_quiver_file(p)),
                           id=f"spec-{path.stem}")


def test_join_paths():
    # the oracles' own path join: the library joins words, not paths
    p = Path.from_arrows([Arrow("a1", "1", "2")])
    r = Path.from_arrows([Arrow("a2", "2", "3")])
    assert join_paths(p, r).word() == "a1*a2"
    with pytest.raises(QuiverError):
        join_paths(r, p)


def test_trivial_paths_are_identities_for_join():
    p = Path.from_arrows([Arrow("a1", "1", "2")])
    assert join_paths(Path.trivial("1"), p) == p
    assert join_paths(p, Path.trivial("2")) == p


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("make", list(instances()))
def test_quotient_matches_oracle(make, field):
    assert_first_reads_match(*make(), field)


def assert_matches_oracle(alg, want):
    assert alg.basis == want.basis
    # a basis path is found by its word, or by its vertex if trivial
    positions = list(want.basis_index.items())
    assert list(alg.word_index.items()) == [(p.arrows, gi)
                                            for p, gi in positions if p.arrows]
    assert list(alg.idempotent_index.items()) == [
        (v, want.basis_index[Path.trivial(v)]) for v in alg.quiver.vertices]
    assert list(alg.pair_indices.items()) == list(want.pair_indices.items())
    for v in alg.quiver.vertices:
        assert alg.module_basis(v) == want.module_bases.get(v, [])
    # the normal form of every path, with its keys in the same order, by
    # the Groebner basis; on a tensor quotient it is one class, which
    # `nf_path` returns, and on any other `nf_path` refuses
    assert len(want.path_nf) == len(enumerate_paths(alg.quiver)[0])
    tensor = alg.tensor_check.ok
    for p, nf in want.path_nf.items():
        got = nf_path_oracle(alg, p)
        assert list(got.items()) == list(nf.items()), p
        assert all(is_element(c, alg.field) for c in got.values())
        if tensor:
            assert {alg.nf_path(p): alg.field.one} == nf, p
        else:
            with pytest.raises(TensorRelationError):
                alg.nf_path(p)


def assert_first_reads_match(quiver, relations, field):
    """Each reader of the listed basis, read first on a fresh algebra,
    returns what the oracle build gives, and leaves the algebra matching
    the oracle.  The step table is empty when the algebra is built on a
    tensor quotient, and there is none on any other; `list_paths` pruned
    at the Groebner tips lists the paths of `enumerate_paths` that contain
    no tip, in its order."""
    built = PathAlgebra(quiver, relations, field)
    assert built._steps == ({} if built.tensor_check.ok else None)
    tips = built.groebner.rules
    assert list_paths(quiver, built.groebner.ends_in_tip)[0] == [
        p for p in enumerate_paths(quiver)[0]
        if not any(contains(p.arrows, tip) for tip in tips)]
    want = quotient_oracle(built)
    reads = first_reads(quiver, want, built.tensor_check.ok)
    for name, (read, expected) in reads.items():
        alg = PathAlgebra(quiver, relations, field)
        if expected is TensorRelationError:
            with pytest.raises(TensorRelationError):
                read(alg)
        else:
            assert read(alg) == expected, name
        assert_matches_oracle(alg, want)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("make", list(instances()))
def test_basis_paths_raise_the_rank(make, field):
    """Path k of a component is a basis path iff stacking e_k under the
    ideal rows and e_0, ..., e_{k-1} raises the rank, that is iff an
    `Echelon` of those rows takes e_k."""
    alg = PathAlgebra(*make(), field)
    _, by_pair = enumerate_paths(alg.quiver)
    for pair, plist in by_pair.items():
        ech = Echelon(len(plist), field)
        for row in ideal_rows_oracle(pair, alg.relations, by_pair, field):
            ech.add(row)
        kept = {alg.basis[gi] for gi in alg.pair_indices.get(pair, [])}
        for k, p in enumerate(plist):
            assert (p in kept) == ech.add({k: field.one}), (pair, p)


def test_building_lists_no_path(monkeypatch):
    """The algebra, the tensor check and compatibility never list the
    quiver's paths."""
    def refuse(q):
        raise AssertionError("enumerate_paths called")

    for name, module in list(sys.modules.items()):
        if name.startswith("quivertt") and hasattr(module, "enumerate_paths"):
            monkeypatch.setattr(module, "enumerate_paths", refuse)
    specs = [load_fixture(name) for name in FIXTURE_NAMES]
    specs.append(load_beilinson(2, 7))
    for spec in specs:
        alg = PathAlgebra(spec.quiver, spec.relations, spec.field)
        assert is_tensor_relations(alg).ok
        order = admissible_order(spec.quiver)
        for start in range(len(order)):
            for verts in (order[start:], order[:start + 1]):
                compatibility(spec.quiver, spec.relations, verts, spec.field)


# -- random relation sets that exercise division, cancellation and overlaps


FIELDS4 = [QQ, PrimeField(2), PrimeField(3), PrimeField(101)]
# 2, 3, 6 and 101 vanish in some of the prime fields
INTEGER_COEFFICIENTS = [1, -1, 2, -2, 3, 5, -6, 7, 101]
FRACTION_COEFFICIENTS = [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]


@st.composite
def relation_sets(draw):
    """(quiver, relations, field): a chain of 3 to 5 vertices with one or
    two arrows per step and up to two arrows that skip a vertex, so that
    parallel paths have mixed lengths; relations are monomials or have two
    or three terms, repeated or cancelling ones among them, with
    coefficients other than +-1, some of which vanish in the field.  Half
    the sets start with a chain: two arrows per step, and a relation of two
    or three terms over every two steps."""
    field = draw(st.sampled_from(FIELDS4))
    chain = draw(st.booleans())
    n = draw(st.integers(3, 5))
    arrows = []
    for i in range(1, n):
        for j in range(2 if chain else draw(st.integers(1, 2))):
            arrows.append(Arrow(f"a{i}{j}", str(i), str(i + 1)))
    for i in draw(st.sets(st.integers(1, n - 2), max_size=2)):
        arrows.append(Arrow(f"s{i}", str(i), str(i + 2)))
    quiver = Quiver(tuple(str(i) for i in range(1, n + 1)), tuple(arrows))
    _, by_pair = enumerate_paths(quiver)
    components = [[p for p in plist if not p.is_trivial]
                  for _, plist in sorted(by_pair.items())]
    components = [ps for ps in components if ps]
    # the tips of a chain of binomials overlap
    pools = [(by_pair[(str(i), str(i + 2))], 2) for i in range(1, n - 1)
             ] if chain else []
    pools += [(draw(st.sampled_from(components)), 1)
              for _ in range(draw(st.integers(1, 3)))]
    coefficients = INTEGER_COEFFICIENTS + (
        FRACTION_COEFFICIENTS if field == QQ else [])
    relations = []
    for paths, least in pools:
        size = draw(st.integers(least, 3))
        terms = [(field(draw(st.sampled_from(coefficients))),
                  draw(st.sampled_from(paths))) for _ in range(size)]
        if draw(st.booleans()):
            c, p = terms[0]
            terms.append((-c, p))
        relations.append(relation_from_terms(terms))
    return quiver, tuple(relations), field


@settings(max_examples=150, deadline=None)
@given(relation_sets())
def test_random_relation_sets_match_oracle(instance):
    assert_first_reads_match(*instance)


@settings(max_examples=100, deadline=None)
@given(relation_sets(), st.data())
def test_compatibility_matches_ideal_row_membership(instance, data):
    quiver, relations, field = instance
    verts = data.draw(st.lists(st.sampled_from(quiver.vertices), min_size=1,
                               unique=True))
    got = compatibility(quiver, relations, verts, field)
    r_cap, r_bar, witness = compatibility_oracle(
        quiver, PathAlgebra(quiver, relations, field).relations, verts, field)
    assert (got.r_cap, got.r_bar, got.witness) == (r_cap, r_bar, witness)
    assert got.compatible is (witness is None)
