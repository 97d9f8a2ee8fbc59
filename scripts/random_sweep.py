#!/usr/bin/env python3
"""Random stress sweep: generate random tensor-relation quivers, reconstruct
the path algebra from the derived category on each over QQ, F_2 and F_101,
and check the unit filtration and the support calculus on random
complexes over the same fields.  The QQ complexes come from the sweep's
own generator; those over F_2 and F_101 from one seeded by the sweep seed
and the trial, so the quivers and QQ complexes do not depend on them.
Any failure prints the seed so the instance can be replayed.

The relations drawn are differences of two paths, so every rank, and with
it the algebra, center and End(U) dimensions, is the same over every field;
a trial fails if they differ between the fields."""

from __future__ import annotations

import argparse
import random
import time
from dataclasses import dataclass

from quivertt.complexes import direct_sum_complex, support, tensor_complex
from quivertt.fields import QQ, PrimeField
from quivertt.path_algebra import PathAlgebra
from quivertt.randgen import random_complex, random_tensor_quiver
from quivertt.reconstruct import assemble_A, center_and_z
from quivertt.repcat import unit_filtration


@dataclass
class SweepConfig:
    trials: int = 25
    seed: int = 0
    max_vertices: int = 4
    max_arrows: int = 6
    complexes_per_quiver: int = 10


FIELDS = (QQ, PrimeField(2), PrimeField(101))


def filtration_ok(quiver, relations):
    """Over each of FIELDS, every step of the unit filtration satisfies the
    relations, has the simple at its vertex as K_l / K_{l+1}, and has total
    dimension |Q0| - level + 1."""
    n = len(quiver.vertices)
    return all(step.relation_witness is None and step.quotient_is_simple
               and step.rep.total_dim == n - step.level + 1
               for field in FIELDS
               for step in unit_filtration(quiver, relations, field))


def supports_ok(rng, quiver, relations, field, count):
    """Over `field`, for `count` pairs (V, W) of complexes drawn from
    `rng`, supp(V (x) W) = supp V & supp W and supp(V + W) = supp V | supp W.
    Every pair is drawn, whatever the checks before it gave."""
    ok = True
    for _ in range(count):
        v = random_complex(rng, quiver, relations, field)
        w = random_complex(rng, quiver, relations, field)
        ok = ok and support(tensor_complex(v, w)) == support(v) & support(w)
        ok = ok and support(direct_sum_complex(v, w)) == support(v) | support(w)
    return ok


def reconstruction(quiver, relations, field):
    """Whether every verdict bit of the reconstruction over `field` is
    true, and its algebra, center and End(U) dimensions."""
    assembled = assemble_A(PathAlgebra(quiver, relations, field))
    center = center_and_z(assembled)
    ok = (assembled.verdict.isomorphic and center.z_lands_in_center
          and center.dimensions_match and center.z_is_unital_ring_map)
    return ok, (assembled.dim, center.center_dimension,
                center.end_unit_dimension)


def run(config):
    rng = random.Random(config.seed)
    failures = 0
    t0 = time.perf_counter()
    for trial in range(config.trials):
        quiver, relations = random_tensor_quiver(
            rng, config.max_vertices, config.max_arrows)
        results = [reconstruction(quiver, relations, f) for f in FIELDS]
        dim, center_dim, _ = results[0][1]
        ok = (all(verdicts for verdicts, _ in results)
              and len({dims for _, dims in results}) == 1
              and filtration_ok(quiver, relations))
        prime_rng = random.Random(f"{config.seed}:{trial}")
        supports = [supports_ok(rng if field == QQ else prime_rng, quiver,
                                relations, field, config.complexes_per_quiver)
                    for field in FIELDS]
        ok = ok and all(supports)
        status = "ok" if ok else "FAIL"
        failures += not ok
        print(f"trial {trial:3d}: |Q0|={len(quiver.vertices)} "
              f"|Q1|={len(quiver.arrows)} |R|={len(relations)} "
              f"dim={dim:3d} Z(A)={center_dim} {status}")
    dt = time.perf_counter() - t0
    print(f"\n{config.trials} trials, {failures} failures, {dt:.2f}s "
          f"(seed {config.seed})")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-vertices", type=int, default=4)
    parser.add_argument("--max-arrows", type=int, default=6)
    parser.add_argument("--complexes-per-quiver", type=int, default=10)
    args = parser.parse_args()
    config = SweepConfig(args.trials, args.seed, args.max_vertices,
                         args.max_arrows, args.complexes_per_quiver)
    raise SystemExit(1 if run(config) else 0)


if __name__ == "__main__":
    main()
