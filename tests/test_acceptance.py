"""Acceptance gate: one test per criterion, each stated independently of
the unit suite.  Every check is exact — no tolerances anywhere."""

import random
from itertools import chain, combinations

from quivertt.cli import run_command
from quivertt.complexes import (BoundedComplex, direct_sum_complex,
                                eval_functor, support, tensor_complex)
from quivertt.path_algebra import (PathAlgebra, compatibility,
                                   is_tensor_relations)
from quivertt.quiver import Path, Relation, admissible_order
from quivertt.randgen import (random_commutativity_relations, random_complex,
                              random_ordered_quiver, random_representation,
                              random_tensor_quiver, representation_menu)
from quivertt.fields import QQ
from quivertt.reconstruct import assemble_A, center_and_z
from quivertt.repcat import (module_representation, satisfies_relations,
                             simple_object, tensor, unit_filtration,
                             zero_object)
from quivertt.spectrum import (IdealDescriptor, contains, ideal_of,
                               presheaf_sections, prime_at, sheaf_sections,
                               spc)

from conftest import FIXTURE_DIR, FIXTURE_NAMES, load_fixture
from spectrum_oracles import is_prime, is_unit

SEED = 1789


def powerset(items):
    s = list(items)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def simples_complex(quiver, verts):
    cx = BoundedComplex(quiver, {0: zero_object(quiver)})
    for v in verts:
        cx = direct_sum_complex(
            cx, BoundedComplex.from_representation(simple_object(quiver, v)))
    return cx


def test_criterion_1_spectrum_discreteness():
    """spc yields exactly #Q_0 open points on all fixtures and 50 random
    quivers; the brute-force prime oracle agrees on small quivers."""
    rng = random.Random(SEED)
    instances = [(s.quiver, s.relations)
                 for s in map(load_fixture, FIXTURE_NAMES)]
    for _ in range(50):
        quiver = random_ordered_quiver(rng, max_vertices=6, max_arrows=10)
        instances.append(
            (quiver, random_commutativity_relations(rng, quiver)))
    for quiver, relations in instances:
        report = spc(PathAlgebra(quiver, relations))
        assert report.point_count == len(quiver.vertices)
        assert report.topology == "discrete"
        seen = {p.vertex for p in report.points}
        assert seen == set(quiver.vertices)
        for p in report.points:
            assert is_prime(p.descriptor) and not is_unit(p.descriptor)
        if len(quiver.vertices) <= 3:
            # brute-force oracle over every support-bound descriptor:
            # prime iff no pair of achievable supports violates primality
            for subset in powerset(quiver.vertices):
                desc = IdealDescriptor(quiver, frozenset(subset))
                if is_unit(desc):
                    continue
                expected = True
                for a in powerset(quiver.vertices):
                    for b in powerset(quiver.vertices):
                        if (set(a) & set(b) <= desc.support_bound
                                and not set(a) <= desc.support_bound
                                and not set(b) <= desc.support_bound):
                            expected = False
                assert is_prime(desc) == expected


def test_criterion_2_beilinson_contrast():
    """`spectrum beilinson<m>.quiver` reports m+1 isolated points."""
    for m in (1, 2, 3):
        doc, code = run_command(
            ["spectrum", str(FIXTURE_DIR / f"beilinson{m}.quiver")])
        assert code == 0
        assert doc["point_count"] == m + 1
        assert doc["topology"] == "discrete"


def test_criterion_3_structure_sheaf():
    """Sections over every open of every fixture form the constant sheaf
    of algebras k: dimension |W| with componentwise product, and global
    sections are spanned by one idempotent per point."""
    for name in FIXTURE_NAMES:
        spec = load_fixture(name)
        q = spec.quiver
        alg = PathAlgebra(q, spec.relations, spec.field)
        for subset in powerset(q.vertices):
            sections = sheaf_sections(alg, subset)
            n = len(subset)
            assert sections.dimension == n
            for i in range(n):
                for j in range(n):
                    expected = [1 if (i == j and k == i) else 0
                                for k in range(n)]
                    assert sections.multiplication[i][j] == expected
        # global sections match the semisimple quotient of the path
        # algebra by its arrow ideal: one orthogonal idempotent per vertex
        glob = sheaf_sections(alg, q.vertices)
        assert glob.dimension == len(q.vertices)
        assert list(glob.basis_labels) == [f"1_{v}" for v in q.vertices]


def test_criterion_4_presheaf_sensitivity():
    """Presheaf sections over compatible two-vertex opens have dimension
    #pi_0 of the subquiver; Kronecker 2 and 3 give isomorphic reports."""
    for name in FIXTURE_NAMES:
        spec = load_fixture(name)
        q = spec.quiver
        alg = PathAlgebra(q, spec.relations, spec.field)
        for pair in combinations(q.vertices, 2):
            comp = compatibility(q, spec.relations, pair, spec.field)
            if not comp.compatible:
                continue
            sections = presheaf_sections(alg, pair)
            pi0 = len(comp.subquiver.undirected_components())
            assert sections.dimension == pi0
    k2 = load_fixture("kronecker2")
    k3 = load_fixture("kronecker3")
    p2 = presheaf_sections(PathAlgebra(k2.quiver, k2.relations),
                           k2.quiver.vertices)
    p3 = presheaf_sections(PathAlgebra(k3.quiver, k3.relations),
                           k3.quiver.vertices)
    assert (p2.dimension, p2.multiplication) == (p3.dimension,
                                                 p3.multiplication)


def test_criterion_5_reconstruction_theorem():
    """assemble_A certifies the isomorphism A(D(Q)) = kQ/(R) on every
    fixture and on 25 random tensor-relation quivers: equal Hom
    dimensions by two routes, identity round trips, and identical
    structure-constant tables.  Exact equality."""
    rng = random.Random(SEED)
    instances = [(s.quiver, s.relations)
                 for s in map(load_fixture, FIXTURE_NAMES)]
    for _ in range(25):
        instances.append(random_tensor_quiver(rng, max_vertices=4,
                                              max_arrows=6))
    for quiver, relations in instances:
        alg = PathAlgebra(quiver, relations)
        verdict = assemble_A(alg)
        assert verdict.dimensions_match
        assert verdict.round_trip_identity
        assert verdict.structure_constants_match
        assert verdict.isomorphic
        for n in quiver.vertices:
            probe = module_representation(alg, n)
            for m in quiver.vertices:
                assert alg.dim_pair(n, m) == probe.dims[m]


def test_criterion_6_center():
    """dim Z(A) = #pi_0(Q) on every fixture, including the disconnected
    one; z: End(U) -> Z(A) is a unital ring map."""
    for name in FIXTURE_NAMES:
        spec = load_fixture(name)
        center = center_and_z(PathAlgebra(spec.quiver, spec.relations))
        pi0 = len(spec.quiver.undirected_components())
        assert center.center_dimension == pi0
        assert center.end_unit_dimension == pi0
        assert center.dimensions_match
        assert center.z_lands_in_center
        assert center.z_is_unital_ring_map
    disconnected = load_fixture("disconnected")
    center = center_and_z(PathAlgebra(disconnected.quiver,
                                      disconnected.relations))
    assert center.center_dimension == 2


def test_criterion_7_support_calculus():
    """On 100 random bounded complexes per fixture: tensor supports
    intersect, sum supports unite, ideal_of(V) is generated by simples
    over supp(V), and membership in P_n is vanishing cohomology at n."""
    rng = random.Random(SEED)
    for name in FIXTURE_NAMES:
        spec = load_fixture(name)
        q = spec.quiver
        complexes = [random_complex(rng, q, spec.relations,
                                    include_projectives=False)
                     for _ in range(100)]
        for cx in complexes:
            assert (ideal_of([cx]).support_bound
                    == ideal_of([simples_complex(q, sorted(support(cx)))],
                                quiver=q).support_bound)
            for n in q.vertices:
                assert contains(prime_at(q, n), cx) == \
                    eval_functor(cx, n).is_zero()
        for v, w in zip(complexes[0::2], complexes[1::2]):
            assert support(tensor_complex(v, w)) == support(v) & support(w)
            assert support(direct_sum_complex(v, w)) == \
                support(v) | support(w)


def test_criterion_8_filtration_and_compatibility():
    """The unit filtration exists on every fixture with simple quotients
    and relation-satisfying layers; suffix subquivers are always
    compatible; the square minus vertex 3 is incompatible with witness
    r-bar = {ab}."""
    for name in FIXTURE_NAMES:
        spec = load_fixture(name)
        steps = unit_filtration(spec.quiver, spec.relations)
        assert len(steps) == len(spec.quiver.vertices)
        for step in steps:
            assert step.relation_witness is None
            assert step.quotient_is_simple
        order = admissible_order(spec.quiver)
        for start in range(len(order)):
            assert compatibility(spec.quiver, spec.relations,
                                 order[start:]).compatible
    square = load_fixture("square")
    result = compatibility(square.quiver, square.relations, ["1", "2", "4"])
    assert not result.compatible
    assert [g.pretty() for g in result.r_bar] == ["a*b"]
    assert result.witness.pretty() == "a*b"


def test_criterion_9_tensor_relations_checker():
    """Commutativity fixtures pass the criterion; a single-path relation
    fails the unit test; tensor products of 20 random pairs satisfying
    accepted relation sets still satisfy them (semantic cross-check)."""
    for name in FIXTURE_NAMES:
        spec = load_fixture(name)
        alg = PathAlgebra(spec.quiver, spec.relations)
        assert is_tensor_relations(alg).ok
    chain4 = load_fixture("chain4")
    p = Path.from_arrows([chain4.quiver.arrow("a"), chain4.quiver.arrow("b")])
    bad = PathAlgebra(chain4.quiver, (Relation("1", "3", ((QQ.one, p),)),))
    check = is_tensor_relations(bad)
    assert not check.ok and check.failed_test == "unit"
    rng = random.Random(SEED)
    for _ in range(20):
        quiver, relations = random_tensor_quiver(rng)
        assert is_tensor_relations(PathAlgebra(quiver, relations)).ok
        menu = representation_menu(quiver, relations)
        v = random_representation(rng, menu)
        w = random_representation(rng, menu)
        assert satisfies_relations(v, relations) is None
        assert satisfies_relations(w, relations) is None
        assert satisfies_relations(tensor(v, w), relations) is None
