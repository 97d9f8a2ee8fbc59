"""`reconstruct.assemble_A`, which compares the quotient with probes built
from the quiver and the relations, against its old body,
`reconstruct_oracles.assemble_A_oracle`: the module maps of
`module_hom_space` and the probe evaluator on every composable pair.  On
correct input both give the same verdicts and, for each pair (n, m), the
same number of classes from n to m, over QQ, F_2 and F_101; the probes'
dimensions are those of the module maps."""

import random
from pathlib import Path

import pytest

from quivertt.dsl import parse_quiver_file
from quivertt.fields import QQ, PrimeField
from quivertt.path_algebra import PathAlgebra, TensorRelationError
from quivertt.randgen import random_tensor_quiver
from quivertt.reconstruct import assemble_A
from quivertt.repcat import Probe

from conftest import FIXTURE_NAMES, load_fixture
from reconstruct_oracles import assemble_A_oracle

SPEC_DIR = Path(__file__).resolve().parent / "specs"
FIELDS = (QQ, PrimeField(2), PrimeField(101))
# the moduli each spec is read over, None for QQ: fractions with a
# denominator divisible by 2 have no image in F_2
SPEC_MODULI = {
    "diamond": (None, 101),
    "weighted": (None, 101),
    "field_sensitive": (None, 2, 101),
    "half": (None, 2, 101),
    "first_arrow_transpose": (None, 2, 101),
}
SEEDS = range(40)


def fixture_instance(name):
    spec = load_fixture(name)
    return spec.quiver, spec.relations


def spec_instance(name):
    spec = parse_quiver_file(SPEC_DIR / f"{name}.quiver")
    return spec.quiver, spec.relations


def random_instance(seed):
    return random_tensor_quiver(random.Random(seed), max_vertices=6,
                                max_arrows=10)


def instances():
    for field in FIELDS:
        makers = [(fixture_instance, name) for name in FIXTURE_NAMES]
        makers += [(spec_instance, name)
                   for name, moduli in SPEC_MODULI.items()
                   if getattr(field, "p", None) in moduli]
        makers += [(random_instance, seed) for seed in SEEDS]
        for make, arg in makers:
            yield pytest.param(make, arg, field, id=f"{arg}-{field}")


def outcome(assemble, alg):
    """The verdict bits of `assemble(alg)` and, for each pair (n, m), the
    dimensions it compares, or the type of the error it raises."""
    try:
        verdict, dims = assemble(alg)
    except TensorRelationError as exc:
        return type(exc).__name__
    return ((verdict.dimensions_match, verdict.round_trip_identity,
             verdict.structure_constants_match), dims)


def assemble_with_dimensions(alg):
    """`assemble_A(alg)` and, for each pair (n, m), the number of classes
    from n to m and dim M_n(m) of the probe."""
    verdict = assemble_A(alg)
    vertices = alg.quiver.vertices
    probes = {n: Probe(alg.quiver, alg.relations, alg.field, n)
              for n in vertices}
    return verdict, {(n, m): (alg.dim_pair(n, m), probes[n].dim(m))
                     for n in vertices for m in vertices}


@pytest.mark.parametrize("make, arg, field", list(instances()))
def test_assemble_matches_oracle(make, arg, field):
    want = outcome(assemble_A_oracle, PathAlgebra(*make(arg), field))
    got = outcome(assemble_with_dimensions, PathAlgebra(*make(arg), field))
    assert got == want
    if not isinstance(got, str):
        assert got[0] == (True, True, True)
