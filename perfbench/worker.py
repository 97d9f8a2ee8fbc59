"""One workload in a fresh process: a closed loop with a single client.

Usage: python3 perfbench/worker.py REQUESTS.json SECONDS TRACE

Requests go one after another through `quivertt.cli.run_command`, and each
report is serialised the way `quivertt.cli.main` prints it; both are inside
the timed region.  The report is then checked against its known answer,
outside the timed region.  Whole passes over the request list run until
the next one would end more than half a pass after SECONDS, so each
request is repeated once per pass, spread over the whole run.  Between
two requests the worker times `hostspeed.reference()`, and each request's
time is scaled to the quiet host by the references on either side of it.

With TRACE 1 every request of a pass runs twice, once with the span
recorders of `tracing.py` switched on and once without, in alternating
order, so the tracing overhead is measured on the same requests at the
same time.  The result is one JSON object on the last line of standard
output.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
from quivertt import cli  # noqa: E402


class Loop:
    def __init__(self, requests):
        self.requests = requests
        self.attempted = 0
        self.failed = 0
        self.failed_valid = 0
        self.failures = {}

    def run_one(self, req):
        """Run one request, check its report, and return its latency."""
        error = None
        start = perf_counter()
        try:
            doc, code = cli.run_command(req["argv"])
            text = (json.dumps(doc, indent=2, sort_keys=True) + "\n"
                    if doc is not None else "")
        except Exception as exc:  # a request that raises counts as failed
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        self.attempted += 1
        if error is None:
            error = checks.mismatch(req, code, json.loads(text) if text else None)
        if error is not None:
            self.failed += 1
            # malformed inputs (exit 2 expected) test robustness; any other
            # failure is a wrong answer to a valid request
            self.failed_valid += req["code"] != 2
            what = " ".join(os.path.basename(a) for a in req["argv"])
            self.failures[what] = error
        return elapsed

    def run_until(self, seconds, one_pass):
        start = perf_counter()
        passes = 0
        while True:
            one_pass()
            passes += 1
            elapsed = perf_counter() - start
            if elapsed + 0.5 * elapsed / passes > seconds:
                return passes


def peak_rss_mb():
    """High-water resident set of this process since it started.  Unlike
    getrusage's ru_maxrss, VmHWM is not carried over from the parent that
    forked the worker."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def summary(latency):
    """Latency statistics over the requests of one pass, given each
    request's timed repeats.

    A request's latency is the median of its repeats.  wall_s sums the
    requests' latencies, req_p50_ms is their upper median (the latency of
    one request, never a value between a fast and a slow group), and
    req_p99_ms their nearest-rank p99."""
    each = sorted(statistics.median(lat) for lat in latency)
    wall = sum(each)
    p99 = each[math.ceil(0.99 * len(each)) - 1]
    return {
        "requests": len(each),
        "samples": sum(map(len, latency)),
        "wall_s": wall,
        "ops_per_s": len(each) / wall,
        "req_p50_ms": 1000 * each[len(each) // 2],
        "req_p99_ms": 1000 * p99,
        "beyond_p99": sum(x > p99 for x in each),
    }


def main():
    requests_path, seconds, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    with open(requests_path, encoding="utf-8") as fh:
        requests = json.load(fh)
    loop = Loop(requests)
    latency = [[] for _ in requests]
    result = {}
    if trace:
        import tracing
        recorder = tracing.Recorder()
        tracer = tracing.Tracer(recorder)
        untraced = [[] for _ in requests]

        def one_pass():
            for i, req in enumerate(requests):
                for on in ((False, True) if i % 2 else (True, False)):
                    tracer.enable(on)
                    (latency if on else untraced)[i].append(loop.run_one(req))
            tracer.enable(False)

        passes = loop.run_until(seconds, one_pass)
        # per pass, like the layer metrics
        result["layers"] = tracing.layer_metrics(recorder, passes)
        result["traced_wall_s"] = sum(map(sum, latency)) / passes
        result["untraced_wall_s"] = sum(map(sum, untraced)) / passes
    else:
        raw = [[] for _ in requests]

        def one_pass():
            before = hostspeed.time_reference()
            for i, req in enumerate(requests):
                elapsed = loop.run_one(req)
                after = hostspeed.time_reference()
                raw[i].append(elapsed)
                latency[i].append(hostspeed.scaled(elapsed, before, after))
                before = after

        passes = loop.run_until(seconds, one_pass)
        result["raw_wall_s"] = summary(raw)["wall_s"]
    result.update(summary(latency))
    result.update({
        "passes": passes,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failed_valid": loop.failed_valid,
        "failures": loop.failures,
        "peak_rss_mb": peak_rss_mb(),
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
