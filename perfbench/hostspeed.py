"""Host speed, measured by a fixed reference computation.

The host this benchmark was defined on (2 cores of a shared 2.0 GHz Xeon,
Python 3.11.7) slows every process on it by 1.6-1.9x for stretches of
seconds, and the share of time spent slow drifts between about a half and
nine tenths over hours.  A raw time measured there says as much about that
share as about the program, and neither a median nor a minimum over a run
removes it: a median reads the share, and a minimum misses the quiet
stretches when they are rare.

So every timed call is bracketed by `reference()`, a fixed computation that
does not use quivertt, and the call's time is scaled to the quiet host: it
is multiplied by QUIET_S over the mean time of the two references around
it.  `reference()` allocates, hashes and sorts small tuples, like quivertt's
path and matrix code.  In the slow stretches it slowed by 1.58-1.68x,
against 1.52-1.62x for the workloads' requests; a loop of `Fraction`
additions slowed by 1.77-1.86x, and random reads from a 4 MB list by
1.9-2.2x.
"""

from __future__ import annotations

import gc
from time import perf_counter

# time of `reference()` in the quiet stretches of the defining host, in a
# worker that has run quivertt requests, and in a fresh interpreter, where
# it runs faster
QUIET_S = 170e-6
QUIET_FRESH_S = 140e-6


def reference():
    rows = []
    for i in range(300):
        rows.append((i, i + 1, "x%d" % (i % 9)))
    index = {row: k for k, row in enumerate(rows)}
    return sorted(index.items(), key=lambda kv: kv[0][2])[:3]


def time_reference():
    """Time of one `reference()`.  The cyclic garbage collector is off
    meanwhile, so the time does not depend on what else the process holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(elapsed, ref_before, ref_after, quiet=QUIET_S):
    """`elapsed` at the quiet host's speed, given the reference's times
    just before and just after it."""
    return elapsed * 2 * quiet / (ref_before + ref_after)
