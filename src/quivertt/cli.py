"""Command-line front end: parse a quiver spec file, run one computation,
print a JSON report.

Each request goes through argparse once: an argv that starts with a
command name is parsed by that command's own subparser, and the top-level
parser sees only the rest (help, an empty argv, an unknown command) and
reports the arguments a subparser left over.  A usage error prints
argparse's usage to stderr and no JSON document, and exits 2; `--help`
prints its text to stdout and exits 0.

Exit codes: 0 on success, 1 on a domain refusal (non-tensor relations where
tensor relations are required, incompatible subquiver, unordered quiver,
an input over its size budget),
2 on parse or contract errors (bad syntax, unknown vertices, malformed
complex files, a quotient whose Groebner rules fail their certificate, a
reconstruction error).  Every document carries `"schema": 1`, and every
report also names its field, `"field": "QQ"` or `"F101"`; dimensions are
integers and scalars are strings, so exact values survive serialization.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .complexes import complex_from_json, support
from .dsl import ParseError, parse_quiver_file
from .linalg import DimensionMismatch
from .path_algebra import (PathAlgebra, Presentation,
                           QuotientCertificateError, TensorRelationError,
                           compatibility)
from .quiver import NotOrdered, QuiverError, ResourceBudget, admissible_order
from .reconstruct import (ReconstructionError, assemble_A, center_and_z,
                          rational_points)
from .repcat import satisfies_relations, unit_filtration
from .spectrum import (IncompatibleSubquiver, presheaf_sections,
                       sheaf_sections, spc)

SCHEMA = 1


class DomainRefusal(ValueError):
    pass


def _element_json(alg, elem):
    return {alg.element_word(i): alg.field.format(c)
            for i, c in sorted(elem.items())}


def _relation_json(spec, rel):
    return {"source": rel.source, "target": rel.target,
            "expression": rel.pretty(spec.field)}


def _vertex_list(arg):
    return [v.strip() for v in arg.split(",") if v.strip()]


def _load(path):
    spec = parse_quiver_file(path)
    admissible_order(spec.quiver)   # refuse cyclic quivers up front
    return spec


def _algebra(spec):
    return PathAlgebra(spec.quiver, spec.relations, spec.field)


def _presentation(spec):
    return Presentation(spec.quiver, spec.relations, spec.field)


def cmd_validate(spec, args):
    alg = _algebra(spec)
    return {
        "name": spec.name,
        "vertices": list(spec.quiver.vertices),
        "arrows": [{"label": a.label, "source": a.source, "target": a.target}
                   for a in spec.quiver.arrows],
        "relations": [_relation_json(spec, r) for r in spec.relations],
        "algebra_dimension": alg.dim,
        "tensor_relations": alg.tensor_check.ok,
    }


def cmd_check_tensor(spec, args):
    check = _presentation(spec).tensor_check
    out = {"name": spec.name, "tensor_relations": check.ok}
    if not check.ok:
        out["failed_test"] = check.failed_test
        out["witness"] = _relation_json(spec, check.witness)
    return out


def cmd_spectrum(spec, args):
    report = spc(_presentation(spec))
    return {
        "name": spec.name,
        "points": [{"vertex": p.vertex,
                    "support_bound": sorted(p.descriptor.support_bound)}
                   for p in report.points],
        "point_count": report.point_count,
        "topology": report.topology,
    }


def cmd_sheaf(spec, args):
    sections = sheaf_sections(_presentation(spec), _vertex_list(args.open))
    return _sections_json(spec, sections)


def cmd_presheaf(spec, args):
    sections = presheaf_sections(_presentation(spec), _vertex_list(args.open))
    out = _sections_json(spec, sections)
    out["components"] = sections.components
    return out


def _sections_json(spec, sections):
    return {
        "name": spec.name,
        "kind": sections.kind,
        "open_set": list(sections.open_set),
        "dimension": sections.dimension,
        "basis": list(sections.basis_labels),
        "multiplication": [[[str(c) for c in cell] for cell in row]
                           for row in sections.multiplication],
    }


def cmd_support(spec, args):
    try:
        with open(args.complex, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise TypeError("the top level is not a JSON object")
        cx = complex_from_json(data, spec.quiver, spec.field)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad complex file: {exc.msg}", exc.lineno, exc.colno)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
            DimensionMismatch, RecursionError) as exc:
        # json.load raises RecursionError on arrays or objects nested
        # deeper than the interpreter's recursion limit
        raise ParseError(f"bad complex file: {exc}", 1, 1)
    for i in cx.degrees():
        bad = satisfies_relations(cx.term(i), spec.relations)
        if bad is not None:
            raise DomainRefusal(
                f"complex violates relation {bad.pretty(spec.field)} "
                f"in degree {i}")
    return {
        "name": spec.name,
        "degrees": cx.degrees(),
        "support": sorted(support(cx)),
    }


def cmd_reconstruct(spec, args):
    alg = _algebra(spec)
    verdict = assemble_A(alg)
    center = center_and_z(alg)
    order = list(spec.quiver.vertices)
    grid = [[alg.dim_pair(n, m) for m in order] for n in order]
    return {
        "name": spec.name,
        "dimension": alg.dim,
        "basis": [alg.element_word(i) for i in range(alg.dim)],
        "hom_dimension_grid": grid,
        "isomorphic_to_path_algebra": verdict.isomorphic,
        "verdict": {
            "dimensions_match": verdict.dimensions_match,
            "round_trip_identity": verdict.round_trip_identity,
            "structure_constants_match": verdict.structure_constants_match,
        },
        "center_dimension": center.center_dimension,
        "center_basis": [_element_json(alg, e) for e in center.center_basis],
        "end_unit_dimension": center.end_unit_dimension,
        "z_is_unital_ring_map": center.z_is_unital_ring_map,
        "z_lands_in_center": center.z_lands_in_center,
    }


def cmd_filtration(spec, args):
    steps = unit_filtration(spec.quiver, spec.relations, spec.field)
    out = []
    for step in steps:
        out.append({
            "level": step.level,
            "vertex": step.vertex,
            "dims": {v: step.rep.dims[v] for v in spec.quiver.vertices},
            "satisfies_relations": step.relation_witness is None,
            "quotient_is_simple": step.quotient_is_simple,
        })
    return {"name": spec.name, "steps": out}


def cmd_compat(spec, args):
    result = compatibility(spec.quiver, spec.relations,
                           _vertex_list(args.verts), spec.field)
    out = {
        "name": spec.name,
        "vertices": list(result.subquiver.vertices),
        "compatible": result.compatible,
        "r_cap": [_relation_json(spec, r) for r in result.r_cap],
        "r_bar": [_relation_json(spec, r) for r in result.r_bar],
    }
    if result.witness is not None:
        out["witness"] = _relation_json(spec, result.witness)
    return out


def cmd_compare_points(spec, args):
    report = rational_points(_presentation(spec))
    return {
        "name": spec.name,
        "points": [p.vertex for p in report.points],
        "distinguishing_matrix": report.distinguishing_matrix,
        "identity_pattern": report.identity_pattern,
        "kernels_are_primes": report.kernels_are_primes,
        "pairwise_distinct": report.identity_pattern,
    }


_VERTEX_LIST = "comma-separated vertex list"

# name -> (handler, help text, {required flag: help text}), in help order
_COMMANDS = {
    "validate": (cmd_validate, "parse a spec file and summarize it", {}),
    "spectrum": (cmd_spectrum, "points and topology of the spectrum", {}),
    "sheaf": (cmd_sheaf, "structure sheaf sections over an open set",
              {"open": _VERTEX_LIST}),
    "presheaf": (cmd_presheaf, "presheaf sections over a full subquiver",
                 {"open": _VERTEX_LIST}),
    "support": (cmd_support, "support of a bounded complex",
                {"complex": "path to a complex JSON file"}),
    "reconstruct": (cmd_reconstruct,
                    "assemble A(D(Q)) and compare with kQ/(R)", {}),
    "check-tensor": (cmd_check_tensor, "run the tensor-relations criterion",
                     {}),
    "filtration": (cmd_filtration,
                   "the unit filtration with simple quotients", {}),
    "compat": (cmd_compat,
               "compatibility of a full subquiver with the relations",
               {"verts": _VERTEX_LIST}),
    "compare-points": (cmd_compare_points,
                       "the k-points F_n and their separation", {}),
}


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every call.
    Its `commands` maps each command name to the subparser that
    `add_parser` made for it, which `parse_request` hands the command's
    arguments to; the top-level parser parses only help and errors."""
    parser = argparse.ArgumentParser(
        prog="quivertt",
        description="Exact tensor-triangular geometry of quiver derived "
                    "categories: spectra, sheaf sections, and algebra "
                    "reconstruction from .quiver spec files.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="path to a .quiver spec file")
        for flag, flag_help in flags.items():
            p.add_argument(f"--{flag}", required=True, help=flag_help)
    parser.commands = sub.choices
    return parser


def parse_request(argv):
    """The Namespace that `build_parser().parse_args(argv)` returns, with
    one argparse pass when argv[0] names a command: its subparser parses
    the rest, as the subparsers action would, and the top-level parser
    reports what it leaves over.  Raises SystemExit where that call does,
    with the same code and output."""
    parser = build_parser()
    if argv and argv[0] in _COMMANDS:
        args, extras = parser.commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
        return args
    return parser.parse_args(argv)


def run_command(argv):
    """Parse argv, run one subcommand, and return (report dict, exit code)."""
    try:
        args = parse_request(argv)
    except SystemExit as exc:
        return None, (2 if exc.code else 0)
    try:
        spec = _load(args.file)
        body = _COMMANDS[args.command][0](spec, args)
    except (ParseError, QuiverError, OSError, QuotientCertificateError,
            ReconstructionError) as exc:
        if isinstance(exc, NotOrdered):
            return _error_doc(args.command, exc), 1
        return _error_doc(args.command, exc), 2
    except (TensorRelationError, IncompatibleSubquiver, DomainRefusal,
            ResourceBudget) as exc:
        return _error_doc(args.command, exc), 1
    doc = {"schema": SCHEMA, "command": args.command,
           "field": spec.field.name}
    doc.update(body)
    return doc, 0


def _error_doc(command, exc):
    return {"schema": SCHEMA, "command": command,
            "error": str(exc), "error_type": type(exc).__name__}


def main(argv=None):
    doc, code = run_command(sys.argv[1:] if argv is None else argv)
    if doc is not None:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
