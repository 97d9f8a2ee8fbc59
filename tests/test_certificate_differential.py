"""The rule-shape test of the quotient's certificate against the
per-generator tensor-relation criterion: R is tensor iff every rule of the
reduced Groebner basis rewrites its tip to one word with coefficient 1
(docs/tensor-relations-criterion.md).  On the fixtures, the `tests/specs`
files and random relation sets, over QQ, F_2, F_3 and F_101; on a tensor
quotient every path is then one basis class."""

from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings

from quivertt.dsl import parse_quiver_file
from quivertt.fields import QQ, PrimeField
from quivertt.path_algebra import PathAlgebra, is_tensor_relations
from quivertt.quiver import enumerate_paths

from conftest import FIXTURE_NAMES, load_fixture
from path_algebra_oracles import nf_path, nf_path_oracle
from test_path_algebra_differential import relation_sets
from test_reconstruct_differential import has_image
from test_sparse_sums_differential import balanced

SPEC_DIR = Path(__file__).resolve().parent / "specs"
FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(101)]


def rule_shape(alg):
    """Whether every Groebner rule of `alg` is tip -> one word with
    coefficient 1, written apart from the library's own look."""
    one = alg.field.one
    for rhs in alg.groebner.rules.values():
        if len(rhs) != 1:
            return False
        (c,) = rhs.values()
        if c != one:
            return False
    return True


def instances():
    """(name, maker of (quiver, relations), field) for the fixtures and the
    specs over every field they have an image in; collecting parses only
    the specs."""
    makers = [(name, lambda n=name: load_fixture(n)) for name in FIXTURE_NAMES]
    makers += [(path.stem, lambda p=path: parse_quiver_file(p))
               for path in sorted(SPEC_DIR.glob("*.quiver"))]
    for name, make in makers:
        relations = make().relations
        for field in FIELDS:
            if has_image(relations, field):
                yield pytest.param(make, field, id=f"{name}-{field}")


def assert_agree(alg):
    check = is_tensor_relations(alg)
    assert rule_shape(alg) == check.ok
    # the certificate passes, and it keeps the criterion's verdict
    assert alg.tensor_check == check
    if check.ok:
        for p in enumerate_paths(alg.quiver)[0]:
            assert nf_path_oracle(alg, p) == {nf_path(alg, p): alg.field.one}
    return check


@pytest.mark.parametrize("make, field", list(instances()))
def test_rule_shape_matches_the_criterion(make, field):
    spec = make()
    assert_agree(PathAlgebra(spec.quiver, spec.relations, field))


def test_the_instances_reach_both_verdicts():
    verdicts = set()
    for param in instances():
        make, field = param.values
        spec = make()
        alg = PathAlgebra(spec.quiver, spec.relations, field)
        verdicts.add((rule_shape(alg), alg.tensor_check.ok))
    assert verdicts == {(True, True), (False, False)}


@settings(max_examples=300, deadline=None)
@given(relation_sets())
def test_rule_shape_matches_the_criterion_on_random_relations(instance):
    # as drawn, almost every set fails the unit test; balanced, the
    # diagonal test decides
    quiver, relations, field = instance
    for rels in (relations, balanced(relations)):
        assert_agree(PathAlgebra(quiver, rels, field))


def test_random_relations_reach_both_verdicts():
    def tensor_and_not(instance):
        quiver, relations, field = instance
        return {assert_agree(PathAlgebra(quiver, rels, field)).ok
                for rels in (relations, balanced(relations))} == {True, False}

    find(relation_sets(), tensor_and_not,
         settings=settings(database=None, derandomize=True,
                           phases=[Phase.generate]))
