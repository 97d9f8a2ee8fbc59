"""The quotient kQ/(R), read off one reversed-order echelon of the ideal,
against the builder that reduced every path and solved for its
coordinates, and the basis rule against ranks of stacked matrices."""

import random

import pytest

from quivertt.dsl import parse_quiver
from quivertt.fields import QQ, PrimeField
from quivertt.linalg import Matrix, rank
from quivertt.path_algebra import PathAlgebra
from quivertt.randgen import random_tensor_quiver

from conftest import FIXTURE_NAMES, load_beilinson, load_fixture
from path_algebra_oracles import ideal_rows_oracle, quotient_oracle

FIELDS = [QQ, PrimeField(101)]

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


def of_spec(spec):
    return spec.quiver, spec.relations


def instances():
    """Makers of (quiver, relations), so that collecting builds nothing."""
    for name in FIXTURE_NAMES:
        yield pytest.param(lambda n=name: of_spec(load_fixture(n)), id=name)
    for seed in range(20):
        yield pytest.param(
            lambda s=seed: random_tensor_quiver(random.Random(s)),
            id=f"random{seed}")
    for m, length in ((1, 4), (2, 4), (3, 3), (2, 5)):
        yield pytest.param(lambda m=m, n=length: of_spec(load_beilinson(m, n)),
                           id=f"beil{m}_{length}")
    for text in (WEIGHTED, DIAMOND, SQUARE):
        yield pytest.param(lambda t=text: of_spec(parse_quiver(t)),
                           id=text.split()[1])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("make", list(instances()))
def test_quotient_matches_oracle(make, field):
    alg = PathAlgebra(*make(), field)
    want = quotient_oracle(alg)
    assert alg.basis == want.basis
    assert list(alg.basis_index.items()) == list(want.basis_index.items())
    assert alg.pair_of == want.pair_of
    assert list(alg.pair_indices.items()) == list(want.pair_indices.items())
    for v in alg.quiver.vertices:
        assert alg.module_basis(v) == want.module_bases.get(v, [])
    # every normal form, with its keys in the same order, and the paths in
    # the same order too
    assert list(alg._path_nf) == list(want.path_nf)
    element = type(field.one)
    for p, nf in want.path_nf.items():
        assert list(alg._path_nf[p].items()) == list(nf.items())
        assert all(type(c) is element for c in alg._path_nf[p].values())


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("make", list(instances()))
def test_basis_paths_raise_the_rank(make, field):
    """Path k of a component is a basis path iff stacking e_k under the
    ideal rows and e_0, ..., e_{k-1} raises the rank."""
    alg = PathAlgebra(*make(), field)
    for pair, plist in alg.paths_by_pair.items():
        ideal = ideal_rows_oracle(pair, alg.relations, alg.paths_by_pair, field)
        kept = {alg.basis[gi] for gi in alg.pair_indices[pair]}
        units = []
        before = rank(Matrix.from_rows(ideal, field, cols=len(plist)))
        for k, p in enumerate(plist):
            e = [field.zero] * len(plist)
            e[k] = field.one
            units.append(e)
            after = rank(Matrix.from_rows(ideal + units, field,
                                          cols=len(plist)))
            assert (p in kept) == (after > before), (pair, p)
            before = after
