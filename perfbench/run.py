#!/usr/bin/env python3
"""Benchmark of the quivertt command line, end to end and layer by layer.

Usage, from the root of a quivertt checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes the workload's inputs (see `inputs.py`), which are written
under a temporary directory in the checkout before timing starts.  Set-up
time is measured first: the median of several cold imports of
`quivertt.cli` in fresh interpreters.  The workload then runs in one fresh
worker process (`worker.py`) for about S seconds.  Every time is scaled to
the quiet host by a reference computation timed around it (`hostspeed.py`),
because the host's own speed drifts by up to 1.9x.  The last line of
standard output is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics of the traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 150

# a cold `import quivertt.cli`, scaled to the quiet host like every other
# time (see hostspeed.py) by the fastest of three references just before
# it; the import leaves the heap larger, so no reference is taken after it.
# argv[1] is this directory.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import hostspeed; hostspeed.reference(); "
                "ref = min(hostspeed.time_reference() for _ in range(3)); "
                "t = time.perf_counter(); import quivertt.cli; "
                "e = time.perf_counter() - t; "
                "print(hostspeed.scaled(e, ref, ref, hostspeed.QUIET_FRESH_S))")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                    "req_p50_ms": "ms", "req_p99_ms": "ms",
                    "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", "_ratio", "_frac")):
        return "ratio"
    return "count"


def measure_setup(root):
    """Median time of a cold `import quivertt.cli` in fresh interpreters,
    each scaled to the quiet host."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, HERE], cwd=root,
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_worker(root, workdir, requests, seconds, trace):
    path = os.path.join(workdir, "requests.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(requests, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), path, str(seconds),
         str(trace)],
        cwd=root, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quivertt", "cli.py")):
        sys.exit("perfbench: src/quivertt/cli.py not found; run from the "
                 "root of a quivertt checkout")
    sys.path.insert(0, os.path.join(root, "src"))
    import inputs
    if args.workload not in inputs.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from "
                 + ", ".join(inputs.WORKLOADS))

    setup_s = measure_setup(root)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        requests = inputs.build(args.workload, args.seed, root, workdir)
        res = run_worker(root, workdir, requests, args.seconds, args.trace)

    print(f"machine: python {platform.python_version()}, {platform.platform()}, "
          f"nproc {os.cpu_count()}; in-process timers only")
    print(f"workload {args.workload} seed {args.seed}: {res['passes']} pass(es) "
          f"of {res['requests']} requests ({res['samples']} latency samples), "
          f"one closed-loop client; each request's latency is the median of "
          f"its repeats, and {res['beyond_p99']} requests lie beyond p99")
    if "raw_wall_s" in res:
        print(f"unscaled wall_s {res['raw_wall_s']:.6g} s, against "
              f"{res['wall_s']:.6g} s at the quiet host's speed")
    print(f"failed_frac {res['failed'] / res['attempted']:.6f} "
          f"({res['failed']} of {res['attempted']} attempted)")
    for what, why in sorted(res["failures"].items()):
        print(f"  failed: {what}: {why}")

    if args.trace:
        layers = dict(res["layers"])
        layers["trace.wall_s"] = res["traced_wall_s"]
        layers["trace.untraced_wall_s"] = res["untraced_wall_s"]
        layers["trace.overhead_frac"] = (res["traced_wall_s"]
                                         / res["untraced_wall_s"] - 1)
        metrics = {k: metric(v, layer_unit(k)) for k, v in layers.items()}
    else:
        values = {k: res[k] for k in END_TO_END_UNITS if k != "setup_s"}
        values["setup_s"] = setup_s
        metrics = {k: metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed_valid"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
