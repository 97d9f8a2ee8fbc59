#!/usr/bin/env python3
"""Sweep the bundled fixture library and print one summary row per quiver:
spectrum size, algebra dimension, reconstruction verdict, center dimension
versus number of connected components, and timing.

Exits 1 if any row has a false tensor or isomorphism verdict, or a center
whose dimension is not the number of connected components, and names
those rows on standard error.

    PYTHONPATH=src python scripts/fixture_report.py [--fixtures DIR]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from quivertt.dsl import parse_quiver_file
from quivertt.path_algebra import build_path_algebra, is_tensor_relations
from quivertt.reconstruct import assemble_A, center_and_z
from quivertt.spectrum import spc

FIXTURES = Path(__file__).resolve().parent.parent / "src/quivertt/fixtures"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures", type=Path, default=FIXTURES,
                        help="directory of .quiver files")
    args = parser.parse_args(argv)

    header = (f"{'quiver':<14}{'dim':>5}{'tensor':>8}{'points':>8}"
              f"{'iso':>6}{'Z(A)':>6}{'pi0':>5}{'time':>8}")
    print(header)
    print("-" * len(header))
    bad = []
    for path in sorted(args.fixtures.glob("*.quiver")):
        spec = parse_quiver_file(path)
        t0 = time.perf_counter()
        alg = build_path_algebra(spec.quiver, spec.relations, spec.field)
        ok = is_tensor_relations(alg).ok
        pi0 = len(spec.quiver.undirected_components())
        if not ok:
            # the spectrum and the reconstruction need tensor relations
            print(f"{spec.name:<14}{alg.dim:>5}{str(ok):>8}{'-':>8}"
                  f"{'-':>6}{'-':>6}{pi0:>5}{'-':>8}")
            bad.append(spec.name)
            continue
        points = spc(spec.quiver, spec.relations, spec.field).point_count
        assembled = assemble_A(spec.quiver, spec.relations, spec.field)
        center = center_and_z(spec.quiver, spec.relations, assembled,
                              spec.field)
        dt = time.perf_counter() - t0
        print(f"{spec.name:<14}{alg.dim:>5}{str(ok):>8}{points:>8}"
              f"{str(assembled.verdict.isomorphic):>6}"
              f"{center.center_dimension:>6}{pi0:>5}{dt:>7.2f}s")
        if not (assembled.verdict.isomorphic
                and center.center_dimension == pi0):
            bad.append(spec.name)
    if bad:
        print("false verdict or Z(A) != pi0: " + ", ".join(bad),
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
