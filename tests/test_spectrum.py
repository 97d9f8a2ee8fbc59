from itertools import chain, combinations

import pytest

from quivertt.complexes import BoundedComplex, direct_sum_complex, support
from quivertt.path_algebra import PathAlgebra
from quivertt.quiver import Quiver, QuiverError, full_subquiver
from quivertt.randgen import random_complex, random_tensor_quiver
from quivertt.repcat import hom_space, simple_object, unit_object
from quivertt.spectrum import (IdealDescriptor, IncompatibleSubquiver,
                               QuiverMorphism, closed_set, contains,
                               ideal_of, induced_spectrum_map,
                               presheaf_sections, prime_at, sheaf_sections,
                               spc)

from conftest import load_fixture
from spectrum_oracles import is_prime, is_unit, is_zero


def fixture_algebra(spec):
    return PathAlgebra(spec.quiver, spec.relations, spec.field)


def powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def simples_complex(quiver, verts):
    """Direct sum of the simples over `verts` as a degree-zero complex;
    the zero complex when `verts` is empty."""
    cx = None
    for v in verts:
        one = BoundedComplex.from_representation(simple_object(quiver, v))
        cx = one if cx is None else direct_sum_complex(cx, one)
    if cx is None:
        from quivertt.repcat import zero_object
        cx = BoundedComplex(quiver, {0: zero_object(quiver)})
    return cx


def prime_oracle(quiver, descriptor):
    """Brute force: is the ideal with this support bound prime?

    Proper, and whenever the tensor of two objects lands inside, one
    factor already does.  Every subset of vertices is realized as the
    support of a sum of simples, so quantifying over subsets is
    quantifying over achievable supports."""
    if is_unit(descriptor):
        return False
    for a in powerset(quiver.vertices):
        for b in powerset(quiver.vertices):
            va = simples_complex(quiver, a)
            vb = simples_complex(quiver, b)
            product_supp = support(va) & support(vb)
            if product_supp <= descriptor.support_bound:
                if not (contains(descriptor, va) or contains(descriptor, vb)):
                    return False
    return True


class TestIdealDescriptor:
    def test_vertices_validated(self):
        spec = load_fixture("kronecker2")
        with pytest.raises(QuiverError):
            IdealDescriptor(spec.quiver, frozenset({"9"}))

    def test_unit_zero_flags(self):
        spec = load_fixture("kronecker2")
        unit = IdealDescriptor(spec.quiver, frozenset({"1", "2"}))
        zero = IdealDescriptor(spec.quiver, frozenset())
        assert is_unit(unit) and not is_zero(unit)
        assert is_zero(zero) and not is_unit(zero)


class TestPrimes:
    def test_primes_match_brute_force_oracle(self):
        for name in ("kronecker2", "beilinson2", "chain4"):
            spec = load_fixture(name)
            if len(spec.quiver.vertices) > 3:
                continue
            for subset in powerset(spec.quiver.vertices):
                desc = IdealDescriptor(spec.quiver, frozenset(subset))
                if is_unit(desc):
                    continue
                assert is_prime(desc) == prime_oracle(spec.quiver, desc)

    def test_random_quivers_match_oracle(self, rng):
        for _ in range(10):
            quiver, relations = random_tensor_quiver(rng, max_vertices=3)
            for subset in powerset(quiver.vertices):
                desc = IdealDescriptor(quiver, frozenset(subset))
                if is_unit(desc):
                    continue
                assert is_prime(desc) == prime_oracle(quiver, desc)

    def test_prime_iff_maximal(self, fixture_spec):
        # the spectrum is discrete: a proper ideal is prime exactly when no
        # proper ideal strictly contains it, every support bound being an
        # ideal (of the sums of simples over it)
        q = fixture_spec.quiver
        everything = frozenset(q.vertices)
        bounds = [frozenset(s) for s in powerset(q.vertices)]
        for bound in bounds:
            if bound == everything:
                continue
            maximal = not any(bound < other < everything for other in bounds)
            assert is_prime(IdealDescriptor(q, bound)) == maximal


class TestSpc:
    def test_point_count_and_topology(self, fixture_spec):
        report = spc(fixture_algebra(fixture_spec))
        assert report.point_count == len(fixture_spec.quiver.vertices)
        assert report.topology == "discrete"
        for p in report.points:
            assert is_prime(p.descriptor)
            assert p.descriptor == prime_at(fixture_spec.quiver, p.vertex)

    def test_closed_sets_cross_checked(self, rng):
        spec = load_fixture("beilinson2")
        objs = [random_complex(rng, spec.quiver, spec.relations)
                for _ in range(3)]
        report = spc(fixture_algebra(spec), object_lists={"S": objs})
        expected = closed_set(spec.quiver, objs)
        assert set(report.closed_sets["S"]) == expected


class TestSupportCalculus:
    def test_ideal_of_equals_simples_span(self, rng):
        for _ in range(10):
            quiver, relations = random_tensor_quiver(rng)
            cx = random_complex(rng, quiver, relations)
            via_cx = ideal_of([cx])
            via_simples = ideal_of([simples_complex(quiver, sorted(support(cx)))],
                                   quiver=quiver)
            assert via_cx.support_bound == via_simples.support_bound

    def test_membership_in_prime_is_vanishing(self, rng):
        from quivertt.complexes import eval_functor
        for _ in range(10):
            quiver, relations = random_tensor_quiver(rng)
            cx = random_complex(rng, quiver, relations)
            for n in quiver.vertices:
                in_prime = contains(prime_at(quiver, n), cx)
                assert in_prime == eval_functor(cx, n).is_zero()


class TestSheafSections:
    def test_constant_sheaf(self, fixture_spec):
        q = fixture_spec.quiver
        alg = fixture_algebra(fixture_spec)
        for subset in powerset(q.vertices):
            sections = sheaf_sections(alg, subset)
            assert sections.dimension == len(subset)
            # componentwise product: e_i e_j = delta_ij e_i
            for i in range(len(subset)):
                for j in range(len(subset)):
                    cell = sections.multiplication[i][j]
                    expected = [1 if (i == j and k == i) else 0
                                for k in range(len(subset))]
                    assert cell == expected

    def test_global_sections_match_vertex_count(self, fixture_spec):
        sections = sheaf_sections(fixture_algebra(fixture_spec),
                                  fixture_spec.quiver.vertices)
        assert sections.dimension == len(fixture_spec.quiver.vertices)


class TestPresheafSections:
    def test_two_vertex_opens_have_pi0_dimension(self, fixture_spec):
        q = fixture_spec.quiver
        alg = fixture_algebra(fixture_spec)
        for pair in combinations(q.vertices, 2):
            try:
                sections = presheaf_sections(alg, pair)
            except IncompatibleSubquiver:
                continue
            assert sections.dimension == len(sections.components)

    def test_structure_constants_reproduce_products(self, fixture_spec):
        # sum_k c_ijk f_k = f_i f_j, vertex by vertex, over the basis of
        # End(1) on the open set, for every compatible open set
        q, field = fixture_spec.quiver, fixture_spec.field
        alg = fixture_algebra(fixture_spec)
        for open_set in powerset(q.vertices):
            if not open_set:
                continue
            try:
                sections = presheaf_sections(alg, open_set)
            except IncompatibleSubquiver:
                continue
            sub, _, _ = full_subquiver(q, open_set)
            u = unit_object(sub, field)
            flat = [[f.components[v].entries[0][0] for v in sub.vertices]
                    for f in hom_space(u, u)]
            for fi, row in zip(flat, sections.multiplication):
                for fj, coords in zip(flat, row):
                    combo = [sum((field(c) * fk[t]
                                  for c, fk in zip(coords, flat)), field.zero)
                             for t in range(len(sub.vertices))]
                    assert combo == [a * b for a, b in zip(fi, fj)]

    def test_kronecker2_vs_kronecker3_presheaves_isomorphic(self):
        s2 = load_fixture("kronecker2")
        s3 = load_fixture("kronecker3")
        p2 = presheaf_sections(fixture_algebra(s2), s2.quiver.vertices)
        p3 = presheaf_sections(fixture_algebra(s3), s3.quiver.vertices)
        assert p2.dimension == p3.dimension == 1
        assert p2.multiplication == p3.multiplication

    def test_incompatible_subquiver_refused(self):
        spec = load_fixture("square")
        with pytest.raises(IncompatibleSubquiver) as err:
            presheaf_sections(fixture_algebra(spec), ["1", "2", "4"])
        assert [g.pretty() for g in err.value.result.r_bar] == ["a*b"]

    def test_disconnected_presheaf_dimension(self):
        spec = load_fixture("disconnected")
        sections = presheaf_sections(fixture_algebra(spec),
                                     spec.quiver.vertices)
        assert sections.dimension == 2


class TestInducedMap:
    def test_kronecker_inclusion(self):
        s2 = load_fixture("kronecker2")
        s3 = load_fixture("kronecker3")
        morphism = QuiverMorphism(s2.quiver, s3.quiver,
                                  {"1": "1", "2": "2"},
                                  {"x0": "x0", "x1": "x1"})
        report = induced_spectrum_map(morphism)
        assert report.bijection and report.sheaf_sections_match

    def test_collapsing_map_not_injective(self):
        q1 = Quiver(("1", "2"), ())
        q2 = Quiver(("1",), ())
        morphism = QuiverMorphism(q1, q2, {"1": "1", "2": "1"}, {})
        report = induced_spectrum_map(morphism)
        assert not report.injective and report.surjective
        assert not report.sheaf_sections_match

    def test_bad_arrow_image_rejected(self):
        s2 = load_fixture("kronecker2")
        with pytest.raises(QuiverError):
            QuiverMorphism(s2.quiver, s2.quiver, {"1": "1", "2": "2"},
                           {"x0": "x0"})
