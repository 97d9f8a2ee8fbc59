"""Compare one CLI report with its request's known answer."""

from __future__ import annotations


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _validate(doc, want):
    return (doc["algebra_dimension"] == want["dim"]
            and doc["tensor_relations"] is True
            and doc["vertices"] == want["vertices"]
            and len(doc["arrows"]) == want["arrows"]
            and len(doc["relations"]) == want["relations"])


def _spectrum(doc, want):
    verts = want["vertices"]
    return (doc["point_count"] == len(verts)
            and doc["topology"] == "discrete"
            and [p["vertex"] for p in doc["points"]] == verts
            and all(p["support_bound"] == sorted(set(verts) - {p["vertex"]})
                    for p in doc["points"]))


def _check_tensor(doc, want):
    return doc["tensor_relations"] is want["ok"]


def _filtration(doc, want):
    steps = doc["steps"]
    return (len(steps) == len(want["vertices"])
            and sorted(s["vertex"] for s in steps) == sorted(want["vertices"])
            and all(s["quotient_is_simple"] and s["satisfies_relations"]
                    for s in steps))


def _compare_points(doc, want):
    n = len(want["vertices"])
    return (doc["points"] == want["vertices"]
            and doc["distinguishing_matrix"] == _identity(n)
            and doc["identity_pattern"] is True
            and doc["kernels_are_primes"] is True)


def _sheaf(doc, want):
    return (doc["kind"] == "sheaf" and doc["open_set"] == want["open"]
            and doc["dimension"] == len(want["open"]))


def _presheaf(doc, want):
    return (doc["kind"] == "presheaf" and doc["open_set"] == want["open"]
            and doc["dimension"] == want["components"]
            and len(doc["components"]) == want["components"])


def _compat(doc, want):
    return (doc["vertices"] == want["verts"]
            and doc["compatible"] is want["compatible"])


def _support(doc, want):
    return doc["support"] == want["support"]


def _reconstruct(doc, want):
    return (doc["dimension"] == want["dim"]
            and len(doc["basis"]) == want["dim"]
            and sum(map(sum, doc["hom_dimension_grid"])) == want["dim"]
            and doc["isomorphic_to_path_algebra"] is True
            and all(v is True for v in doc["verdict"].values())
            and doc["center_dimension"] == want["components"]
            and doc["end_unit_dimension"] == want["components"]
            and doc["z_is_unital_ring_map"] is True
            and doc["z_lands_in_center"] is True)


CHECKS = {
    "validate": _validate,
    "spectrum": _spectrum,
    "check-tensor": _check_tensor,
    "filtration": _filtration,
    "compare-points": _compare_points,
    "sheaf": _sheaf,
    "presheaf": _presheaf,
    "compat": _compat,
    "support": _support,
    "reconstruct": _reconstruct,
}


def mismatch(req, code, doc):
    """None when the report matches the known answer, else the reason."""
    if code != req["code"]:
        return f"exit code {code}, expected {req['code']}"
    want = req["want"]
    if code != 0:
        if "error_type" in want and (doc or {}).get("error_type") != want["error_type"]:
            return f"error_type {(doc or {}).get('error_type')!r}, expected {want['error_type']!r}"
        return None
    try:
        ok = CHECKS[req["check"]](doc, want)
    except (KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    return None if ok else "report differs from the known answer"
