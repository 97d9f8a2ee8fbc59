"""Span recorders for the traced run, installed from outside `src/`.

`Tracer` wraps a fixed list of public `quivertt` functions and methods.
Each wrapper records one span (layer name, duration, and the time its
child spans cover) and the layer's counters at the same boundary.  A
function imported by name into other `quivertt` modules is rebound in every
one of them, so calls through any import reach the wrapper.  Spans are
aggregated in memory as they close: per layer, the call count, the self
time (span minus covered child spans) and the time of its outermost spans
(a layer that recurses into itself is not counted twice).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter


class Recorder:
    """Per-layer call counts, self and outermost span times, and counters."""

    def __init__(self):
        self.stack = []
        self.depth = Counter()
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()

    def span(self, layer, fn, count=None):
        """`fn` wrapped to record a span of `layer`; `count(counts, result,
        *args)` then updates the layer's counters."""
        stack, depth = self.stack, self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += elapsed
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - covered[0]
                if not depth[layer]:
                    self.total_s[layer] += elapsed
            if count is not None:
                count(self.counts, result, *args)
            return result
        return wrapper


# -- counters, each computed from public API dimensions ----------------


def _paths(counts, result, quiver):
    counts["quiver.paths"] += len(result[0])


def _build(counts, result, alg, *args):
    # one ideal row per (pair, generator, left path, right path), that is
    # sum over generators g: s -> t of |paths into s| * |paths out of t|
    into, out_of = Counter(), Counter()
    n_paths = 0
    for (s, t), plist in alg.paths_by_pair.items():
        into[t] += len(plist)
        out_of[s] += len(plist)
        n_paths += len(plist)
    counts["path_algebra.ideal_rows"] += sum(
        into[g.source] * out_of[g.target] for g in alg.relations)
    counts["path_algebra.ideal_rank"] += n_paths - alg.dim


def _module_hom(counts, result, alg, n, m):
    dim_m, dim_n = len(alg.module_basis(m)), len(alg.module_basis(n))
    counts["path_algebra.hom_constraint_rows"] += (alg.dim - dim_m) * dim_n
    counts["path_algebra.hom_rank"] += dim_n - alg.dim_pair(n, m)


def _rref(counts, result, matrix):
    counts["linalg.rref_cells"] += matrix.rows * matrix.cols


def _echelon_add(counts, result, *args):
    counts["linalg.echelon_accepted"] += bool(result)


# (module, attribute, layer, counter); "Class.method" wraps a method
TARGETS = (
    ("cli", "run_command", "cli", None),
    ("dsl", "parse_quiver", "dsl.parse", None),
    ("quiver", "enumerate_paths", "quiver.enumerate_paths", _paths),
    ("path_algebra", "PathAlgebra.__init__", "path_algebra.build", _build),
    ("path_algebra", "is_tensor_relations", "path_algebra.tensor_check", None),
    ("path_algebra", "compatibility", "path_algebra.compat", None),
    ("path_algebra", "module_hom_space", "path_algebra.module_hom", _module_hom),
    ("linalg", "rref", "linalg.rref", _rref),
    ("linalg", "Echelon.add", "linalg.echelon_add", _echelon_add),
    ("linalg", "Echelon.reduce", "linalg.echelon_reduce", None),
    ("path_algebra", "RREFEchelon.add", "linalg.echelon_add", _echelon_add),
    ("repcat", "hom_space", "repcat.hom_space", None),
    ("repcat", "unit_filtration", "repcat.filtration", None),
    ("repcat", "module_representation", "repcat.module_representation", None),
    ("complexes", "complex_from_json", "complexes.from_json", None),
    ("complexes", "cohomology_at", "complexes.cohomology", None),
    ("spectrum", "spc", "spectrum.spc", None),
    ("spectrum", "sheaf_sections", "spectrum.sheaf", None),
    ("spectrum", "presheaf_sections", "spectrum.presheaf", None),
    ("reconstruct", "assemble_A", "reconstruct.assemble", None),
    ("reconstruct", "center_and_z", "reconstruct.center", None),
    ("reconstruct", "rational_points", "reconstruct.points", None),
    ("reconstruct", "ProbeEvaluator.compose", "reconstruct.probe", None),
    ("reconstruct", "ProbeEvaluator.yoneda", "reconstruct.probe", None),
)


class Tracer:
    """Every wrapper of TARGETS, to be switched on and off between
    requests; `quivertt` must already be imported.  Off, the original
    functions are bound again, so untraced requests run unwrapped."""

    def __init__(self, recorder):
        self.patches = []   # (namespace, attribute, original, wrapper)
        quivertt = [m for name, m in sys.modules.items()
                    if name == "quivertt" or name.startswith("quivertt.")]
        for module_name, attr, layer, count in TARGETS:
            module = sys.modules[f"quivertt.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                orig = vars(cls)[method]
                self.patches.append(
                    (cls, method, orig, recorder.span(layer, orig, count)))
                continue
            orig = getattr(module, attr)
            wrapper = recorder.span(layer, orig, count)
            for ns in quivertt:
                for name, value in vars(ns).items():
                    if value is orig:
                        self.patches.append((ns, name, orig, wrapper))
        matrix = sys.modules["quivertt.linalg"].Matrix
        init = matrix.__init__

        @functools.wraps(init)
        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            recorder.counts["linalg.matrix_coerced_entries"] += self.rows * self.cols

        self.patches.append((matrix, "__init__", init, counted_init))

    def enable(self, on):
        for ns, attr, orig, wrapper in self.patches:
            setattr(ns, attr, wrapper if on else orig)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec, passes):
    """Per-pass layer metrics, named as in BENCHMARK.json."""
    c = rec.counts
    adds = rec.calls["linalg.echelon_add"]
    out = {
        "cli.self_s": rec.self_s["cli"],
        "dsl.parse_s": rec.total_s["dsl.parse"],
        "quiver.enumerate_paths_s": rec.total_s["quiver.enumerate_paths"],
        "quiver.paths": c["quiver.paths"],
        "path_algebra.build_s": rec.total_s["path_algebra.build"],
        "path_algebra.builds": rec.calls["path_algebra.build"],
        "path_algebra.ideal_rows": c["path_algebra.ideal_rows"],
        "path_algebra.ideal_rank": c["path_algebra.ideal_rank"],
        "path_algebra.tensor_check_s": rec.total_s["path_algebra.tensor_check"],
        "path_algebra.compat_s": rec.total_s["path_algebra.compat"],
        "path_algebra.module_hom_s": rec.total_s["path_algebra.module_hom"],
        "path_algebra.module_hom_calls": rec.calls["path_algebra.module_hom"],
        "path_algebra.hom_constraint_rows": c["path_algebra.hom_constraint_rows"],
        "path_algebra.hom_rank": c["path_algebra.hom_rank"],
        "linalg.rref_s": rec.total_s["linalg.rref"],
        "linalg.rref_calls": rec.calls["linalg.rref"],
        "linalg.rref_cells": c["linalg.rref_cells"],
        "linalg.echelon_s": (rec.self_s["linalg.echelon_add"]
                             + rec.self_s["linalg.echelon_reduce"]),
        "linalg.echelon_adds": adds,
        "linalg.matrix_coerced_entries": c["linalg.matrix_coerced_entries"],
        "reconstruct.assemble_self_s": rec.self_s["reconstruct.assemble"],
        "reconstruct.probe_compose_s": rec.total_s["reconstruct.probe"],
        "reconstruct.center_s": rec.total_s["reconstruct.center"],
        "reconstruct.points_s": rec.total_s["reconstruct.points"],
        "repcat.hom_space_s": rec.total_s["repcat.hom_space"],
        "repcat.filtration_s": rec.total_s["repcat.filtration"],
        "repcat.module_representation_s":
            rec.total_s["repcat.module_representation"],
        "complexes.from_json_s": rec.total_s["complexes.from_json"],
        "complexes.cohomology_s": rec.total_s["complexes.cohomology"],
        "complexes.cohomology_calls": rec.calls["complexes.cohomology"],
        "spectrum.spc_s": rec.total_s["spectrum.spc"],
        "spectrum.sheaf_s": rec.total_s["spectrum.sheaf"],
        "spectrum.presheaf_s": rec.total_s["spectrum.presheaf"],
    }
    out = {k: v / passes for k, v in out.items()}
    out["path_algebra.ideal_row_yield"] = _ratio(
        c["path_algebra.ideal_rank"], c["path_algebra.ideal_rows"])
    out["path_algebra.hom_row_yield"] = _ratio(
        c["path_algebra.hom_rank"], c["path_algebra.hom_constraint_rows"])
    out["linalg.echelon_accept_ratio"] = _ratio(c["linalg.echelon_accepted"], adds)
    return out
