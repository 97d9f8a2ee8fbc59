"""Checks on the library's source text.

An element of QQ is an `int` when it is integral, and `int / int` is a
float, so no module but `fields` may divide: a quotient of field elements
is `field.inv(x)` times the numerator."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quivertt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "fields.py")


def divisions(source):
    """The line numbers of every `/` and `/=` in `source`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div))


def test_every_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"linalg.py", "path_algebra.py", "reconstruct.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_division_outside_fields(path):
    assert divisions(path.read_text()) == [], \
        f"{path.name}: divide with field.inv, not /"


def test_the_check_sees_both_forms():
    assert divisions("x = one / v[p]\ny /= 2\nz = a // b\n") == [1, 2]
