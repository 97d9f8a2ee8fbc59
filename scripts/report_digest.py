#!/usr/bin/env python3
"""Print one line, `<reports> <sha256>`: the number of reports and one
digest over the JSON reports of `quivertt` commands on a fixed set of
inputs, each with its argv and exit code.  Two checkouts that print the
same line gave byte-identical reports.

The inputs are:

- the 10 fixtures and the 5 `tests/specs` files, each redeclared over QQ,
  F_2 and F_101, with `validate`, `spectrum`, `check-tensor`,
  `filtration`, `compare-points` and `reconstruct`; `sheaf` on every
  vertex; `presheaf` and `compat` on the first two vertices; and
  `support` of the unit complex.  A spec that does not read over a field
  (a fraction whose denominator is 0 mod p) gives its exit-2 reports;
- every request that `perfbench/inputs.build` writes for its four
  workloads at seeds 0 and 1.

Each command runs in-process through `quivertt.cli.run_command`, and its
report is serialised the way `quivertt.cli.main` prints it; what a
command writes to standard error (argparse's usage) is not hashed.  The
temporary directory and the checkout's root are replaced by fixed names
before hashing, so the line does not depend on where either lives.

    PYTHONPATH=src python scripts/report_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from quivertt import cli
from quivertt.dsl import parse_quiver_file
from quivertt.repcat import unit_object

ROOT = Path(__file__).resolve().parent.parent
SPECS = (sorted((ROOT / "src" / "quivertt" / "fixtures").glob("*.quiver"))
         + sorted((ROOT / "tests" / "specs").glob("*.quiver")))
FIELDS = ("QQ", "F 2", "F 101")
PLAIN = ("validate", "spectrum", "check-tensor", "filtration",
         "compare-points", "reconstruct")
SEEDS = (0, 1)


def redeclared(text, field):
    """The spec `text` with its `field` line, if any, replaced by one
    declaring `field` at the end."""
    lines = [line for line in text.splitlines()
             if line.split()[:1] != ["field"]]
    return "\n".join(lines + [f"field {field}"]) + "\n"


def spec_argvs(paths, workdir):
    """The argv of every command on each spec of `paths`, redeclared over
    each of FIELDS; the files are written under `workdir`."""
    workdir = Path(workdir)
    out = []
    for path in paths:
        # the quiver alone, read in the spec's own field, names the
        # vertices and arrows whatever field the copy declares
        quiver = parse_quiver_file(path).quiver
        vertices = list(quiver.vertices)
        unit = workdir / f"{path.stem}_unit.json"
        unit.write_text(json.dumps(
            {"terms": {"0": unit_object(quiver).to_json()}}))
        first_two = ",".join(vertices[:2])
        for field in FIELDS:
            spec = workdir / f"{path.stem}_{field.replace(' ', '')}.quiver"
            spec.write_text(redeclared(path.read_text(), field))
            spec = str(spec)
            out += [[command, spec] for command in PLAIN]
            out += [["sheaf", spec, "--open", v] for v in vertices]
            out += [["presheaf", spec, "--open", first_two],
                    ["compat", spec, "--verts", first_two],
                    ["support", spec, "--complex", str(unit)]]
    return out


def perfbench_argvs(workdir):
    """The argv of every request of the four perfbench workloads at each
    of SEEDS, their inputs written under `workdir`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    out = []
    for name in inputs.WORKLOADS:
        for seed in SEEDS:
            sub = Path(workdir) / f"{name}-{seed}"
            sub.mkdir()
            out += [req["argv"] for req in
                    inputs.build(name, seed, str(ROOT), str(sub))]
    return out


def reports(argvs, workdir):
    """One JSON line per argv: the argv, exit code and printed report,
    with `workdir` and the checkout's root replaced by fixed names."""
    for argv in argvs:
        with contextlib.redirect_stderr(io.StringIO()):
            doc, code = cli.run_command(argv)
        text = (json.dumps(doc, indent=2, sort_keys=True) + "\n"
                if doc is not None else "")
        line = json.dumps([argv, code, text])
        yield (line.replace(str(workdir), "<tmp>")
               .replace(str(ROOT), "<root>"))


def digest(lines):
    """`<count> <sha256>` over the lines, each ended by a newline."""
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode() + b"\n")
        count += 1
    return f"{count} {h.hexdigest()}"


def main():
    with tempfile.TemporaryDirectory() as workdir:
        argvs = spec_argvs(SPECS, workdir) + perfbench_argvs(workdir)
        print(digest(reports(argvs, workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
