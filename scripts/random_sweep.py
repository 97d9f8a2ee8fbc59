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
a trial fails if they differ between the fields.

Each trial also draws, from a generator of its own seeded by the sweep seed
and the trial, relations of three or four terms on the trial's quiver,
with coefficients some of which vanish mod 2 or 101, half of them balanced
to pass the unit test.  The trial fails unless `quivertt check-tensor`
exits 0 on them over QQ, F_2 and F_101: an exit 2 is a quotient whose
Groebner rules and tensor verdict disagree."""

from __future__ import annotations

import argparse
import random
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from quivertt.cli import run_command
from quivertt.complexes import direct_sum_complex, support, tensor_complex
from quivertt.dsl import QuiverSpecFile
from quivertt.fields import QQ, PrimeField
from quivertt.path_algebra import PathAlgebra
from quivertt.quiver import Relation, enumerate_paths
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


# the coefficients of the multi-term relations: 2 and 101 vanish in F_2 or
# F_101, and so may the sums of the coefficients of one path
TERM_COEFFICIENTS = (1, -1, 2, -2, 3, 101, -202)
CHECK_FIELDS = ("QQ", "F 2", "F 101")


def multi_term_relations(rng, quiver):
    """One to three relations on `quiver` drawn from `rng`, each of three or
    four terms on the non-trivial paths of one (source, target) pair, with
    repeats, and coefficients from TERM_COEFFICIENTS.  Half of them are
    balanced: the last coefficient is minus the sum of the others."""
    _, by_pair = enumerate_paths(quiver)
    pools = [paths for paths in ([p for p in plist if not p.is_trivial]
                                 for plist in by_pair.values()) if paths]
    relations = []
    for _ in range(rng.randint(1, 3) if pools else 0):
        paths = rng.choice(pools)
        terms = [(rng.choice(TERM_COEFFICIENTS), rng.choice(paths))
                 for _ in range(rng.randint(3, 4))]
        if rng.random() < 0.5:
            terms[-1] = (-sum(c for c, _ in terms[:-1]), terms[-1][1])
        relations.append(Relation(paths[0].source, paths[0].target, terms))
    return tuple(relations)


def check_tensor_ok(quiver, relations, workdir):
    """Whether `quivertt check-tensor` exits 0 on `quiver` with `relations`
    over each of CHECK_FIELDS, the spec written under `workdir`."""
    text = QuiverSpecFile("terms", QQ, quiver, relations).pretty()
    spec = Path(workdir) / "terms.quiver"
    for field in CHECK_FIELDS:
        spec.write_text(text.replace("field QQ\n", f"field {field}\n"))
        if run_command(["check-tensor", str(spec)])[1] != 0:
            return False
    return True


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
    alg = PathAlgebra(quiver, relations, field)
    verdict = assemble_A(alg)
    center = center_and_z(alg)
    ok = (verdict.isomorphic and center.z_lands_in_center
          and center.dimensions_match and center.z_is_unital_ring_map)
    return ok, (alg.dim, center.center_dimension, center.end_unit_dimension)


def run(config):
    with tempfile.TemporaryDirectory() as workdir:
        return _run(config, workdir)


def _run(config, workdir):
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
        terms_rng = random.Random(f"terms:{config.seed}:{trial}")
        ok = check_tensor_ok(quiver, multi_term_relations(terms_rng, quiver),
                             workdir) and ok
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
