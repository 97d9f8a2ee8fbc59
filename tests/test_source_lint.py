"""Checks on the library's source text.

An element of QQ is an `int` when it is integral, and `int / int` is a
float, so no module but `fields` may divide: a quotient of field elements
is `field.inv(x)` times the numerator.  Every name a module imports is used
in that module, in the library and in its tests alike; only the package's
`__init__.py` imports to re-export.  CI runs Python 3.10, so no compiled
regex may use syntax that 3.11 added: atomic groups and possessive
quantifiers.  An element of F_p is a plain `int`: the element class
`FpElement` lives on only in the tests' oracle field, and no file under
`src` names it.  Reducing those ints is the field's job (`field(x)`,
`field.nonzero`, `field.vector`), so `modulus` is read only in `fields`
and in the three loops that reduce for themselves, each for a measured
reason: `linalg.combine`, `linalg.Echelon` and
`path_algebra.GroebnerBasis.reduce`."""

import ast
import importlib
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "quivertt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "fields.py")
IMPORTING = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
             + sorted(TESTS.glob("*.py")))


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
    importing = {p.name for p in IMPORTING}
    assert {"conftest.py", "test_source_lint.py", "reconstruct.py"} <= importing
    assert len(importing) == len(IMPORTING)


def test_no_fp_element_in_src():
    files = [p for p in SRC.parent.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    assert any(p.name == "fields.py" for p in files)
    assert [str(p.relative_to(SRC.parent)) for p in files
            if "FpElement" in p.read_text(errors="replace")] == []


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


PY311_SYNTAX = ("(?>", "*+", "++", "?+")


def py311_syntax(pattern):
    """The 3.11-only constructs that the regex text `pattern` holds."""
    return [token for token in PY311_SYNTAX if token in pattern]


def compile_calls(source):
    """The number of `re.compile` calls in `source`."""
    return sum(isinstance(node, ast.Call) and ast.unparse(node.func) == "re.compile"
               for node in ast.walk(ast.parse(source)))


LIBRARY = sorted(SRC.glob("*.py"))


def module_patterns():
    """Every compiled regex bound at the top level of a library module,
    as (module file name, attribute, pattern text)."""
    out = []
    for path in LIBRARY:
        module = importlib.import_module(f"quivertt.{path.stem}")
        out += [(path.name, name, value.pattern)
                for name, value in vars(module).items()
                if isinstance(value, re.Pattern)]
    return out


def test_no_python_311_regex_syntax():
    patterns = module_patterns()
    # a pattern compiled inside a function is not seen here: every
    # `re.compile` in the library must bind a module-level name
    assert len(patterns) == sum(compile_calls(p.read_text()) for p in LIBRARY)
    assert {file for file, _, _ in patterns} >= {"dsl.py", "fields.py"}
    assert [(file, name, py311_syntax(text)) for file, name, text in patterns
            if py311_syntax(text)] == []


def test_the_regex_check_sees_every_form():
    assert py311_syntax("(?>a+)b") == ["(?>"]
    assert py311_syntax("a*+b++c?+") == ["*+", "++", "?+"]
    assert py311_syntax("[+-]?\\d+(?:/\\d+)?[ \t]*") == []
    assert compile_calls("import re\nX = re.compile('a')\n"
                         "def f():\n    return re.compile('b')\n") == 2


# where `modulus` may be read: a file, and in it the functions or classes
# (a class with all its methods) whose qualified name is listed; None for
# anywhere in the file
MODULUS_READERS = {"fields.py": None, "linalg.py": ("combine", "Echelon"),
                   "path_algebra.py": ("GroebnerBasis.reduce",)}


def modulus_reads(source):
    """(line, qualified name of the enclosing function or class, "" at
    module level) of every read of an attribute `modulus` in `source`, a
    `getattr(x, "modulus")` included."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "modulus"
                    and isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Constant)
                    and child.value == "modulus"):
                out.append((child.lineno, ".".join(scope)))
            walk(child, scope)

    walk(ast.parse(source), ())
    return out


def reader_site(file, scope):
    """The entry of MODULUS_READERS that allows a read in `scope` of
    `file`, or None."""
    allowed = MODULUS_READERS.get(file, ())
    if allowed is None:
        return file
    return next((site for site in allowed
                 if scope == site or scope.startswith(site + ".")), None)


def test_modulus_is_read_only_by_the_field_and_three_loops():
    reads = [(path.name, line, scope) for path in LIBRARY
             for line, scope in modulus_reads(path.read_text())]
    assert [r for r in reads if reader_site(r[0], r[2]) is None] == []
    # every listed loop still reads it, so the list does not go stale;
    # `fields` only sets it
    assert {(file, reader_site(file, scope)) for file, _, scope in reads} \
        == {("linalg.py", "combine"), ("linalg.py", "Echelon"),
            ("path_algebra.py", "GroebnerBasis.reduce")}


def test_the_modulus_check_sees_every_form():
    source = ("class Matrix:\n"
              "    def __add__(self, other):\n"
              "        p = self.field.modulus\n"
              "    def scale(self, c):\n"
              "        return getattr(self.field, 'modulus')\n"
              "def combine(terms, field):\n"
              "    p = field.modulus\n"
              "class Echelon:\n"
              "    def add(self, vec):\n"
              "        def inner():\n"
              "            return self.field.modulus\n"
              "field.modulus = None\n")
    reads = modulus_reads(source)
    assert reads == [(3, "Matrix.__add__"), (5, "Matrix.scale"),
                     (7, "combine"), (11, "Echelon.add.inner")]
    assert [reader_site("linalg.py", scope) for _, scope in reads] == [
        None, None, "combine", "Echelon"]
    assert reader_site("dsl.py", "combine") is None
    assert reader_site("path_algebra.py", "GroebnerBasis") is None
    assert reader_site("fields.py", "PrimeField.__init__") == "fields.py"
