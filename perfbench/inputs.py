"""Seeded inputs of the four workloads, written to files before timing.

A workload is a list of requests.  Each request is the argv of one
`quivertt` command, the exit code it must end with, and the known answer
its report must match (see `checks.py`).  Known answers come from
`oracle.py`.  The seed only reorders the fixed workloads (and picks which
half-chain `compat` sees); on `sweep-small` it draws the instances.
"""

from __future__ import annotations

import json
import os
import random

import oracle
from quivertt.complexes import complex_to_json, tensor_complex
from quivertt.randgen import random_morphism_complex, random_tensor_quiver

# Every request stays well under a second, so that each one is repeated many
# times in a run and the host's speed changes little while it runs (see
# hostspeed.py).
# The fixture beilinson3 = beil(3,4) (2 s per `reconstruct`) is left out;
# beil(3,3) and beil(1,4) stand in for it.
FIXTURES = ("kronecker1", "kronecker2", "kronecker3", "kronecker4",
            "beilinson1", "beilinson2",
            "square", "disconnected", "chain4")
RECONSTRUCT_QQ = ((3, 3), (1, 4))
RECONSTRUCT_F101 = RECONSTRUCT_QQ + ((2, 4),)
QUOTIENT_DEEP = (("validate", 2, 5), ("spectrum", 3, 4),
                 ("check-tensor", 1, 7), ("compare-points", 1, 6))

# sweep-small: instances of at most 6 vertices and 10 arrows, three in each
# (vertex count, arrow count) cell, and tensor-product complexes of total
# dimension at most 64
SWEEP_MAX_VERTICES = 6
SWEEP_MAX_ARROWS = 10
SWEEP_CELLS = [(n, a) for n in range(2, SWEEP_MAX_VERTICES + 1)
               for a in range(1, SWEEP_MAX_ARROWS + 1)]
SWEEP_INSTANCES = 3 * len(SWEEP_CELLS)
SWEEP_MAX_TENSOR_DIM = 64


def request(argv, code=0, check=None, **want):
    return {"argv": [str(a) for a in argv], "code": code, "check": check,
            "want": want}


# -- spec writers -------------------------------------------------------


def spec_text(name, field, vertices, arrows, relations):
    lines = [f"quiver {name}", f"field {field}",
             "vertices " + " ".join(vertices)]
    lines += [f"arrow {label} : {s} -> {t}" for label, s, t in arrows]
    lines += [f"relation {'*'.join(p)} - {'*'.join(q)}"
              for _, p, q in relations]
    return "\n".join(lines) + "\n"


def beilinson(m, length):
    """beil(m, L): a chain of L vertices, m+1 parallel arrows per step, and
    every commutativity relation x_i*x'_j - x_j*x'_i between neighbouring
    steps.  Returns (vertices, arrows, relations) as plain data."""
    vertices = [str(v) for v in range(1, length + 1)]
    arrows = [(f"x{s}_{j}", str(s), str(s + 1))
              for s in range(1, length) for j in range(m + 1)]
    relations = [((str(s), str(s + 2)),
                  (f"x{s}_{i}", f"x{s + 1}_{j}"), (f"x{s}_{j}", f"x{s + 1}_{i}"))
                 for s in range(1, length - 1)
                 for i in range(m + 1) for j in range(i + 1, m + 1)]
    return vertices, arrows, relations


def write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def write_beilinson(workdir, m, length, field="QQ"):
    vertices, arrows, relations = beilinson(m, length)
    name = f"beil_{m}_{length}_{field.replace(' ', '')}"
    path = write(workdir, name + ".quiver",
                 spec_text(name, field, vertices, arrows, relations))
    return path, vertices, arrows, relations


def reconstruct_request(path, dim, n_components):
    return request(["reconstruct", path], check="reconstruct", dim=dim,
                   components=n_components)


# -- workloads ----------------------------------------------------------


def reconstruct_requests(root, workdir, field, chains):
    """`reconstruct` on the fixtures and on beil(m, L) for each (m, L) in
    `chains`, every instance declared over `field`."""
    out = []
    for name in FIXTURES:
        path = os.path.join(root, "src", "quivertt", "fixtures", f"{name}.quiver")
        with open(path, encoding="utf-8") as fh:
            vertices, arrows, relations = oracle.parse_binomial_spec(fh.read())
        if field != "QQ":
            path = write(workdir, f"{name}_{field.replace(' ', '')}.quiver",
                         spec_text(name, field, vertices, arrows, relations))
        dim = oracle.binomial_quotient_dimension(vertices, arrows, relations)
        out.append(reconstruct_request(path, dim,
                                       oracle.components(vertices, arrows)))
    for m, length in chains:
        path, *_ = write_beilinson(workdir, m, length, field)
        out.append(reconstruct_request(
            path, oracle.beilinson_dimension(m, length), 1))
    return out


def reconstruct_qq(rng, root, workdir):
    """`reconstruct` on nine fixtures, beil(3,3) and beil(1,4), over QQ."""
    out = reconstruct_requests(root, workdir, "QQ", RECONSTRUCT_QQ)
    rng.shuffle(out)
    return out


def reconstruct_f101(rng, root, workdir):
    """The instances of `reconstruct-qq` and beil(2,4), declared
    `field F 101`."""
    out = reconstruct_requests(root, workdir, "F 101", RECONSTRUCT_F101)
    rng.shuffle(out)
    return out


def quotient_deep(rng, root, workdir):
    """The build-heavy commands on deep chains, plus `compat` on a
    half-chain of each instance; no reconstruction."""
    out = []
    for command, m, length in QUOTIENT_DEEP:
        path, vertices, arrows, relations = write_beilinson(workdir, m, length)
        dim = oracle.beilinson_dimension(m, length)
        if command == "validate":
            out.append(request([command, path], check=command, dim=dim,
                               vertices=vertices, arrows=len(arrows),
                               relations=len(relations)))
        elif command == "check-tensor":
            out.append(request([command, path], check=command, ok=True))
        else:
            out.append(request([command, path], check=command,
                               vertices=vertices))
        half = length // 2
        verts = vertices[:half] if rng.random() < 0.5 else vertices[-half:]
        out.append(request(["compat", path, "--verts", ",".join(verts)],
                           check="compat", verts=verts,
                           compatible=oracle.compatible(arrows, relations, verts)))
    rng.shuffle(out)
    return out


def _plain(quiver, relations):
    vertices = list(quiver.vertices)
    arrows = [(a.label, a.source, a.target) for a in quiver.arrows]
    rels = [((r.source, r.target), r.terms[0][1].arrows, r.terms[1][1].arrows)
            for r in relations]
    return vertices, arrows, rels


def _subset(rng, vertices):
    keep = set(rng.sample(vertices, rng.randint(1, len(vertices))))
    return [v for v in vertices if v in keep]


def sweep_instance(rng, workdir, k, cell):
    """Nine requests (every command but `reconstruct`) on one random
    ordered quiver with random commutativity relations, whose vertex and
    arrow counts are `cell`."""
    while True:
        quiver, relations = random_tensor_quiver(rng, *cell)
        if (len(quiver.vertices), len(quiver.arrows)) == cell:
            break
    vertices, arrows, rels = _plain(quiver, relations)
    spec = write(workdir, f"sweep{k}.quiver",
                 spec_text(f"sweep{k}", "QQ", vertices, arrows, rels))
    dim = oracle.binomial_quotient_dimension(vertices, arrows, rels)
    out = [
        request(["validate", spec], check="validate", dim=dim,
                vertices=vertices, arrows=len(arrows), relations=len(rels)),
        request(["spectrum", spec], check="spectrum", vertices=vertices),
        request(["check-tensor", spec], check="check-tensor", ok=True),
        request(["filtration", spec], check="filtration", vertices=vertices),
        request(["compare-points", spec], check="compare-points",
                vertices=vertices),
    ]
    opens = _subset(rng, vertices)
    out.append(request(["sheaf", spec, "--open", ",".join(opens)],
                       check="sheaf", open=opens))
    opens = _subset(rng, vertices)
    argv = ["presheaf", spec, "--open", ",".join(opens)]
    if oracle.compatible(arrows, rels, opens):
        out.append(request(argv, check="presheaf", open=opens,
                           components=oracle.components(vertices, arrows, opens)))
    else:
        out.append(request(argv, code=1, error_type="IncompatibleSubquiver"))
    verts = _subset(rng, vertices)
    out.append(request(["compat", spec, "--verts", ",".join(verts)],
                       check="compat", verts=verts,
                       compatible=oracle.compatible(arrows, rels, verts)))
    # support of V (x) W must be supp V intersected with supp W.  V and W
    # are redrawn until V (x) W is small: about 2% of draws are larger,
    # take up to 1.6 s each, and would otherwise decide a run's wall time.
    while True:
        v = random_morphism_complex(rng, quiver, relations)
        w = random_morphism_complex(rng, quiver, relations)
        vw = tensor_complex(v, w)
        if sum(t.total_dim for t in vw.terms.values()) <= SWEEP_MAX_TENSOR_DIM:
            break
    cx = write(workdir, f"sweep{k}.json", json.dumps(complex_to_json(vw)))
    supp_w = oracle.support(complex_to_json(w), vertices)
    want = [x for x in oracle.support(complex_to_json(v), vertices)
            if x in supp_w]
    out.append(request(["support", spec, "--complex", cx], check="support",
                       support=sorted(want)))
    return out


# Requests the CLI must refuse with exit 1, or reject as malformed with
# exit 2.  The last four are known defects (ROADMAP item 5): they raise or
# exit 0, and are counted as failed, not dropped.
NOT_TENSOR = "quiver nt\nvertices 1 2\narrow x0 : 1 -> 2\narrow x1 : 1 -> 2\nrelation x0 + x1\n"
CYCLIC = "quiver cyc\nvertices 1 2\narrow a : 1 -> 2\narrow b : 2 -> 1\n"
SQUARE = ("quiver sq\nvertices 1 2 3 4\narrow a : 1 -> 2\narrow b : 2 -> 4\n"
          "arrow c : 1 -> 3\narrow d : 3 -> 4\nrelation a*b - c*d\n")
BAD_SYNTAX = "quiver bad\nvertices 1 2\narrow a 1 -> 2\n"
BAD_VERTEX = "quiver bad\nvertices 1 2\narrow a : 1 -> 3\n"
BAD_ARROW = "quiver bad\nvertices 1 2\narrow a : 1 -> 2\nrelation a - z\n"
BAD_FIELD = "quiver bad\nfield F 4\nvertices 1 2\n"
BAD_DIMS = '{"terms": {"0": {"dims": {"1": 1, "2": 1}, "arrows": {"a": [["1", "2"]]}}}}'


def refusals_and_malformed(workdir):
    nt = write(workdir, "not_tensor.quiver", NOT_TENSOR)
    cyc = write(workdir, "cyclic.quiver", CYCLIC)
    sq = write(workdir, "square.quiver", SQUARE)
    bad_json = write(workdir, "bad.json", "{not json")
    list_json = write(workdir, "list.json", "[1, 2]")
    bad_dims = write(workdir, "bad_dims.json", BAD_DIMS)
    refuse = "TensorRelationError"
    return [
        request(["spectrum", nt], 1, error_type=refuse),
        request(["sheaf", nt, "--open", "1"], 1, error_type=refuse),
        request(["presheaf", nt, "--open", "1,2"], 1, error_type=refuse),
        request(["compare-points", nt], 1, error_type=refuse),
        request(["check-tensor", nt], check="check-tensor", ok=False),
        request(["validate", cyc], 1, error_type="NotOrdered"),
        request(["spectrum", cyc], 1, error_type="NotOrdered"),
        request(["presheaf", sq, "--open", "1,2,4"], 1,
                error_type="IncompatibleSubquiver"),
        request(["validate", write(workdir, "syntax.quiver", BAD_SYNTAX)], 2),
        request(["validate", write(workdir, "vertex.quiver", BAD_VERTEX)], 2),
        request(["validate", write(workdir, "arrow.quiver", BAD_ARROW)], 2),
        request(["validate", write(workdir, "field.quiver", BAD_FIELD)], 2),
        request(["validate", os.path.join(workdir, "missing.quiver")], 2),
        request(["no-such-command", sq], 2),
        request(["sheaf", sq], 2),
        request(["presheaf", sq, "--open", "1,zz"], 2),
        request(["support", sq, "--complex", bad_dims], 2),
        # known defects
        request(["support", sq, "--complex", bad_json], 2),
        request(["support", sq, "--complex", list_json], 2),
        request(["validate", workdir], 2),
        request(["sheaf", sq, "--open", "1,zz"], 2),
    ]


def sweep_small(rng, root, workdir):
    """Nine millisecond-scale requests on each of SWEEP_INSTANCES random
    instances, plus the fixed refusals and malformed inputs.  The size of
    a quiver decides most of what its requests cost, so the instances are
    spread evenly over the size cells; drawn freely, how many large ones a
    seed happens to draw would decide the run's p99."""
    out = []
    for k in range(SWEEP_INSTANCES):
        cell = SWEEP_CELLS[k % len(SWEEP_CELLS)]
        out.extend(sweep_instance(rng, workdir, k, cell))
    out.extend(refusals_and_malformed(workdir))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "reconstruct-qq": reconstruct_qq,
    "quotient-deep": quotient_deep,
    "sweep-small": sweep_small,
    "reconstruct-f101": reconstruct_f101,
}


def build(name, seed, root, workdir):
    """Write the inputs of workload `name` under `workdir`; return its
    request list."""
    return WORKLOADS[name](random.Random(seed), root, workdir)
