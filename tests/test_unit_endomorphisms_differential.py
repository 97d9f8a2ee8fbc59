"""End(U) read off the quiver's components, against the Hom systems that
solved for it before.

The unit U is k at every vertex with identity arrows, so End(U) is k^pi0:
`reconstruct.center_and_z` and `spectrum.presheaf_sections` take its
basis from `Quiver.undirected_components`.  Their reports are compared
field by field with `reconstruct_oracles.center_and_z_oracle` and
`spectrum_oracles.presheaf_sections_oracle`, which solve
`repcat.hom_space(U, U)`.  They run on the instances of
`test_probe_differential`: the fixtures, the specs of `tests/specs` and
seeded random tensor quivers, over QQ, F_2 and F_101; the presheaf on
every open set.  Mutants of the read-off, run through the CLI on
`disconnected`, show that the verdicts it feeds can still come out
false."""

from itertools import combinations

import pytest

from quivertt import reconstruct
from quivertt.cli import run_command
from quivertt.fields import QQ
from quivertt.path_algebra import PathAlgebra, TensorRelationError
from quivertt.quiver import Quiver
from quivertt.reconstruct import assemble_A, center_and_z
from quivertt.spectrum import IncompatibleSubquiver, presheaf_sections

from conftest import FIXTURE_DIR
from reconstruct_oracles import center_and_z_oracle
from spectrum_oracles import presheaf_sections_oracle
from test_probe_differential import instances


def outcome(function, *args):
    """The result of `function(*args)`, or the type and message of the
    refusal it raises."""
    try:
        return function(*args)
    except (TensorRelationError, IncompatibleSubquiver) as exc:
        return type(exc).__name__, str(exc)


def center_fields(report):
    """Every field of a CenterReport; the z-images as a multiset, since
    the oracle lists them in the order `hom_space` solves them."""
    if isinstance(report, tuple):
        return report
    return (report.center_basis, report.center_dimension,
            report.end_unit_dimension,
            sorted(sorted(z.items()) for z in report.z_images),
            report.z_lands_in_center, report.z_is_unital_ring_map,
            report.dimensions_match)


def section_fields(sections):
    """Every field of an AlgebraSections, the table's entries as the CLI
    prints them."""
    if isinstance(sections, tuple):
        return sections
    return (sections.open_set, sections.dimension, sections.basis_labels,
            [[[str(c) for c in cell] for cell in row]
             for row in sections.multiplication],
            sections.kind, sections.components)


def open_sets(vertices):
    return [list(s) for r in range(1, len(vertices) + 1)
            for s in combinations(vertices, r)]


@pytest.mark.parametrize("make, arg, field", list(instances()))
def test_center_and_z_matches_hom_system(make, arg, field):
    alg = PathAlgebra(*make(arg), field)

    def report(center):
        return center_fields(outcome(lambda: center(assemble_A(alg))))

    got = report(center_and_z)
    assert got == report(center_and_z_oracle)
    if not isinstance(got[0], str):
        assert got[2] == len(alg.quiver.undirected_components())
        assert got[4] and got[5] and got[6]


@pytest.mark.parametrize("make, arg, field", list(instances()))
def test_presheaf_sections_match_hom_system(make, arg, field):
    alg = PathAlgebra(*make(arg), field)
    for open_set in open_sets(alg.quiver.vertices):
        got = outcome(presheaf_sections, alg, open_set)
        want = outcome(presheaf_sections_oracle, alg, open_set)
        assert section_fields(got) == section_fields(want), open_set


def test_the_instances_reach_every_outcome():
    """Some instances have more than one component, some open sets are
    refused as incompatible, and some specs as not tensor, so the
    comparisons above are not of connected quivers alone."""
    components, refusals = set(), set()
    for param in instances():
        make, arg, field = param.values
        if field != QQ:
            continue
        alg = PathAlgebra(*make(arg), field)
        components.add(len(alg.quiver.undirected_components()))
        for open_set in open_sets(alg.quiver.vertices):
            got = outcome(presheaf_sections, alg, open_set)
            if isinstance(got, tuple):
                refusals.add(got[0])
    assert {1, 2} <= components
    assert refusals == {"TensorRelationError", "IncompatibleSubquiver"}


DISCONNECTED = str(FIXTURE_DIR / "disconnected.quiver")


def test_merged_components_leave_the_dimensions_apart(monkeypatch):
    doc, code = run_command(["reconstruct", DISCONNECTED])
    assert code == 0
    assert doc["center_dimension"] == doc["end_unit_dimension"] == 2

    def merged(quiver):
        return [frozenset(quiver.vertices)]

    monkeypatch.setattr(Quiver, "undirected_components", merged)
    doc, code = run_command(["reconstruct", DISCONNECTED])
    assert code == 0
    assert (doc["center_dimension"], doc["end_unit_dimension"]) == (2, 1)


@pytest.mark.parametrize("which", [0, -1], ids=["first", "last"])
def test_a_dropped_vertex_leaves_the_center(monkeypatch, which):
    # the image of a component without one of its ends is an idempotent
    # that an arrow of the component does not commute with
    real = reconstruct.z_image

    def dropped(alg, vertices):
        ordered = [v for v in alg.quiver.vertices if v in vertices]
        return real(alg, [v for v in ordered if v != ordered[which]])

    monkeypatch.setattr(reconstruct, "z_image", dropped)
    doc, code = run_command(["reconstruct", DISCONNECTED])
    assert code == 0
    assert doc["z_lands_in_center"] is False
    assert doc["z_is_unital_ring_map"] is False
    assert doc["center_dimension"] == doc["end_unit_dimension"] == 2


@pytest.mark.parametrize("image", ["unit", "doubled"])
def test_images_that_are_no_orthogonal_idempotents_fail_the_ring_map(
        monkeypatch, image):
    # each component goes to 1, or to twice its idempotent: central
    # elements, and the indicator of every vertex still goes to 1, so only
    # the products z_i z_j see it
    real = reconstruct.z_image

    def wrong(alg, vertices):
        z = real(alg, vertices)
        if len(vertices) == len(alg.quiver.vertices):
            return z
        if image == "unit":
            return alg.unit()
        return {i: 2 * c for i, c in z.items()}

    monkeypatch.setattr(reconstruct, "z_image", wrong)
    doc, code = run_command(["reconstruct", DISCONNECTED])
    assert code == 0
    assert doc["z_lands_in_center"] is True
    assert doc["z_is_unital_ring_map"] is False
