"""`spectrum.presheaf_sections` as it was before its sections were read
off the subquiver's components, kept as a differential oracle: it solves
End(U) over the subquiver as the naturality system `repcat.hom_space(U,
U)`, in the algebra's own field, and reads the multiplication table off a
`linalg.Coordinates` of that basis.

`is_prime` is the primality test of a proper ideal that `spectrum` once
exported, kept for the checks that the points of `spc` are prime, and
`is_unit` the flag of the unit ideal that it read."""

from quivertt.linalg import Coordinates
from quivertt.path_algebra import compatibility, require_tensor_relations
from quivertt.repcat import hom_space, unit_object
from quivertt.spectrum import AlgebraSections, IncompatibleSubquiver


def is_unit(descriptor):
    """Whether the ideal `descriptor` is the whole category: its support
    bound is every vertex."""
    return descriptor.support_bound == frozenset(descriptor.quiver.vertices)


def is_prime(descriptor):
    """Whether the proper ideal `descriptor` is prime, which here is the
    same as maximal, since the spectrum is discrete: its support bound
    misses exactly one vertex."""
    return len(descriptor.quiver.vertices) - len(descriptor.support_bound) == 1


def presheaf_sections_oracle(alg, open_set):
    """Endomorphisms of the unit over the full subquiver on the open set,
    solved; IncompatibleSubquiver with the witness pair when the subquiver
    is not compatible with the relations."""
    require_tensor_relations(alg)
    field = alg.field
    comp = compatibility(alg.quiver, alg.relations, open_set, field)
    if not comp.compatible:
        raise IncompatibleSubquiver(comp, field)
    sub = comp.subquiver
    u = unit_object(sub, field)
    basis = hom_space(u, u)
    flat = [tuple(f.components[v].entries[0][0] for v in sub.vertices)
            for f in basis]
    coords = Coordinates(flat, len(sub.vertices), field)
    table = []
    for fi in flat:
        row = []
        for fj in flat:
            prod = tuple(a * b for a, b in zip(fi, fj))
            row.append([field.format(c) for c in coords.of(prod)])
        table.append(row)
    components = [sorted(c) for c in sub.undirected_components()]
    return AlgebraSections(tuple(sub.vertices), len(basis),
                           [f"pi0_{i}" for i in range(len(basis))],
                           table, "presheaf", components)
