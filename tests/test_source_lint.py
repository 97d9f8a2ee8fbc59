"""Checks on the library's source text.

An element of QQ is an `int` when it is integral, and `int / int` is a
float, so no module but `fields` may divide: a quotient of field elements
is `field.inv(x)` times the numerator.  Every name a module imports is used
in that module; only the package's `__init__.py` imports to re-export."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quivertt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "fields.py")
IMPORTING = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def divisions(source):
    """The line numbers of every `/` and `/=` in `source`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div))


def unused_imports(source):
    """The names that `source` imports but never reads, `__future__`
    features aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"linalg.py", "path_algebra.py", "reconstruct.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_division_outside_fields(path):
    assert divisions(path.read_text()) == [], \
        f"{path.name}: divide with field.inv, not /"


def test_the_check_sees_both_forms():
    assert divisions("x = one / v[p]\ny /= 2\nz = a // b\n") == [1, 2]


@pytest.mark.parametrize("path", IMPORTING, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], \
        f"{path.name}: imports a name it never uses"


def test_the_import_check_sees_every_form():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport json as j\n"
              "from .a import b, c as d\nfrom .e import f\n"
              "f(b)\n")
    assert unused_imports(source) == ["d", "j", "os"]
    assert unused_imports("import os.path\nos.sep\n") == []
