"""Checks on the library's source text.

An element of QQ is an `int` when it is integral, and `int / int` is a
float, so no module but `fields` may divide: a quotient of field elements
is `field.inv(x)` times the numerator.  Every name a module imports is used
in that module, in the library and in its tests alike; only the package's
`__init__.py` imports to re-export.  No library module imports a
`_`-prefixed name from another one: what two modules share is public,
like the path order `quiver.word_order`.  CI runs Python 3.10, so no compiled
regex may use syntax that 3.11 added: atomic groups and possessive
quantifiers.  An element of F_p is a plain `int`: the element class
`FpElement` lives on only in the tests' oracle field, and no file under
`src` names it.  Reducing those ints is the field's job (`field(x)`,
`field.nonzero`, `field.vector`), so no module but `fields` reads the
prime, as an attribute `p` or `modulus`: no kernel keeps a modular copy
of its loop.  Every function, class and method of the library is named
outside its own body in the library, `scripts/` or `perfbench/`, a method
through an attribute, an import alias or a string, never a bare name; the
check goes by name, and `UNCALLED` lists the paper's maps that stay
without a caller, each with its reason.  The tensor check reads only the
relations, the field and the Groebner basis of the algebra, so it cannot
go back through the memo of normal forms.  The spectrum, the sheaf and
presheaf sections, the k-points and the certified tensor verdict name
nothing that lists the basis of kQ/(R)."""

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


def private_imports(source):
    """The `_`-prefixed names that `source` imports from a module of the
    package, by a relative import or from `quivertt`."""
    return sorted(a.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level
                       or (node.module or "").split(".")[0] == "quivertt")
                  for a in node.names if a.name.startswith("_"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_name_is_imported_across_modules(path):
    assert private_imports(path.read_text()) == [], \
        f"{path.name}: imports a private name of another module"


def test_the_private_import_check_sees_every_form():
    source = ("from __future__ import annotations\n"
              "from collections import _chain\n"
              "from .a import b, _c\nfrom . import _d as e\n"
              "from quivertt.f import _g\nfrom .h.i import _j, k\n")
    assert private_imports(source) == ["_c", "_d", "_g", "_j"]


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


# the attributes that hold a prime field's p
MODULUS_ATTRIBUTES = {"p", "modulus"}
# where they may be read: a file, and in it the functions or classes (a
# class with all its methods) whose qualified name is listed; None for
# anywhere in the file
MODULUS_READERS = {"fields.py": None}


def modulus_reads(source):
    """(line, qualified name of the enclosing function or class, "" at
    module level) of every read of an attribute in MODULUS_ATTRIBUTES in
    `source`, a `getattr(x, "p")` included."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute)
                    and child.attr in MODULUS_ATTRIBUTES
                    and isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Constant)
                    and child.value in MODULUS_ATTRIBUTES):
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


def test_modulus_is_read_only_by_the_field():
    reads = [(path.name, line, scope) for path in LIBRARY
             for line, scope in modulus_reads(path.read_text())]
    assert [r for r in reads if reader_site(r[0], r[2]) is None] == []


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
              "field.modulus = None\n"
              "def _residue(x, field):\n"
              "    return x % field.p + getattr(field, 'p', 0)\n"
              "field.p = 7\n")
    reads = modulus_reads(source)
    assert reads == [(3, "Matrix.__add__"), (5, "Matrix.scale"),
                     (7, "combine"), (11, "Echelon.add.inner"),
                     (14, "_residue"), (14, "_residue")]
    assert [reader_site("linalg.py", scope) for _, scope in reads] == [
        None] * 6
    assert [reader_site("fields.py", scope) for _, scope in reads] == [
        "fields.py"] * 6
    assert reader_site("path_algebra.py", "GroebnerBasis.reduce") is None
    assert reader_site("fields.py", "PrimeField.__init__") == "fields.py"


# Nothing in the library lacks a caller.  A function, class or method
# defined in `src/quivertt` must be named outside its own body somewhere in
# the library, `scripts/` or `perfbench/`; a test alone does not keep it.
# The paper's maps stay even before a caller comes: each such exception is
# listed here with its reason.
USERS = (LIBRARY + sorted((SRC.parents[1] / "scripts").glob("*.py"))
         + sorted((SRC.parents[1] / "perfbench").glob("*.py")))
UNCALLED = {
    "on_complex": "PhiTransformation.on_complex is phi acting on a complex, "
                  "one of the paper's maps; recovering the quiver from the "
                  "assembled algebra (ROADMAP, route A) calls it",
}


def definitions(source):
    """The functions, classes and methods that `source` defines, at any
    depth, dunder names aside: {qualified name: whether it is a method,
    a function defined directly in a class body}."""
    out = {}

    def walk(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    out[".".join(scope + (child.name,))] = (
                        in_class and not isinstance(child, ast.ClassDef))
                walk(child, scope + (child.name,),
                     isinstance(child, ast.ClassDef))
            else:
                walk(child, scope, in_class)

    walk(ast.parse(source), (), False)
    return out


def names_used(source):
    """(names, attributes): every name that `source` uses outside the body
    of the definition that bears it.  `attributes` holds the ones a method
    is called by: an attribute, an imported name or its alias (so a
    re-export counts), and each dotted segment of a string, as in the
    tracer's "ProbeEvaluator.compose".  `names` holds the bare `Name`s,
    which call functions and classes but also read local variables."""
    names, attributes = set(), set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            into = attributes
            if isinstance(child, ast.Name):
                found, into = [child.id], names
            elif isinstance(child, ast.Attribute):
                found = [child.attr]
            elif isinstance(child, ast.alias):
                found = child.name.split(".") + [child.asname]
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                found = [s for s in child.value.split(".") if s.isidentifier()]
            else:
                found = []
            into.update(name for name in found if name and name not in scope)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope | {child.name})
            else:
                walk(child, scope)

    walk(ast.parse(source), frozenset())
    return names, attributes


def uncalled(defining, using, allowed=()):
    """The definitions in `defining`, {module name: source}, whose names no
    source in `using` names, as "module.qualified.name".  A method counts
    as called only through an attribute, an import alias or a string, so
    a local variable that shares its name keeps no method alive; a
    function or class counts through a bare name too.  The check is by
    name alone: a method that shares its name with a called one elsewhere,
    even in another class, counts as called."""
    used = [names_used(source) for source in using]
    by_attribute = set(allowed).union(*(a for _, a in used))
    by_name = by_attribute.union(*(n for n, _ in used))
    return [f"{module}.{qualname}" for module, source in defining.items()
            for qualname, method in definitions(source).items()
            if qualname.rsplit(".", 1)[-1]
            not in (by_attribute if method else by_name)]


def test_every_definition_in_the_library_has_a_caller():
    assert {p.parent.name for p in USERS} == {"quivertt", "scripts",
                                              "perfbench"}
    defining = {p.stem: p.read_text() for p in LIBRARY}
    using = [p.read_text() for p in USERS]
    assert uncalled(defining, using, UNCALLED) == []
    # each exception is still defined and still without a caller, so the
    # list does not go stale
    assert sorted(uncalled(defining, using)) == [
        "reconstruct.PhiTransformation.on_complex"]


def test_the_caller_check_sees_every_form():
    source = ("class Walker:\n"
              "    def __init__(self):\n"
              "        self.step()\n"
              "    def step(self):\n"
              "        return 1\n"
              "    def again(self):\n"
              "        return self.again()\n"
              "def outer():\n"
              "    def inner():\n"
              "        return 0\n"
              "    return inner() + Walker().step()\n"
              "def traced():\n"
              "    pass\n"
              "def exported():\n"
              "    pass\n"
              "def kept():\n"
              "    pass\n")
    assert list(definitions(source)) == [
        "Walker", "Walker.step", "Walker.again", "outer", "outer.inner",
        "traced", "exported", "kept"]
    assert [name for name, method in definitions(source).items()
            if method] == ["Walker.step", "Walker.again"]
    using = [source, 'WRAPPED = [("m", "Walker.traced")]\n',
             "from .m import exported as public, outer\n"]
    assert uncalled({"m": source}, using) == ["m.Walker.again", "m.kept"]
    assert uncalled({"m": source}, using, {"kept"}) == ["m.Walker.again"]
    assert uncalled({"m": source}, using[:2]) == [
        "m.Walker.again", "m.outer", "m.exported", "m.kept"]
    # a bare name calls a function but no method: a local variable that
    # shares a method's name does not keep the method
    bare = "again = kept = 0\nfor row in again, kept:\n    pass\n"
    assert uncalled({"m": source}, using + [bare]) == ["m.Walker.again"]
    matrix = "class M:\n    def row(self):\n        pass\n"
    assert uncalled({"m": matrix}, [bare + "M()\n"]) == ["m.M.row"]
    assert uncalled({"m": matrix}, [bare + "M().row()\n"]) == []


# The probes are the route that `assemble_A` checks the quotient against,
# so they are built from the quiver and the relations alone: the probe
# builder reads none of the quotient's Groebner basis, step table, normal
# forms, structure constants or basis indices.
QUOTIENT_ATTRIBUTES = {"groebner", "_steps", "_walk", "_fill", "arrow_step",
                       "product_indices", "word_index", "idempotent_index"}
PROBE_BUILDER = ("Probe",)
# The code that reads the projective modules off the probes: it multiplies
# nothing in the quotient, and finds the quotient's basis classes only by
# word and by vertex.
PROBE_READERS = {"repcat": ("module_representation",),
                 "reconstruct": ("ProbeEvaluator",)}
PRODUCTS = ((QUOTIENT_ATTRIBUTES - {"word_index", "idempotent_index"})
            | {"product"})


def quotient_reads(source, defs=PROBE_BUILDER, attributes=QUOTIENT_ATTRIBUTES):
    """The names of `attributes` that the top-level definitions `defs` of
    `source` name, as a name, an attribute or a string."""
    tree = ast.parse(source)
    found = set()
    for node in tree.body:
        if getattr(node, "name", None) in defs:
            names, used = names_used(ast.get_source_segment(source, node))
            found |= (names | used) & attributes
    return sorted(found)


def top_level(source):
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}


def test_probe_builder_reads_no_quotient_attribute():
    source = (SRC / "repcat.py").read_text()
    assert set(PROBE_BUILDER) <= top_level(source)
    assert quotient_reads(source) == []


@pytest.mark.parametrize("module", sorted(PROBE_READERS))
def test_probe_readers_multiply_nothing_in_the_quotient(module):
    source = (SRC / f"{module}.py").read_text()
    defs = PROBE_READERS[module]
    assert set(defs) <= top_level(source)
    assert quotient_reads(source, defs, PRODUCTS) == []


def test_the_probe_check_sees_every_form():
    source = ("class Probe:\n"
              "    def __init__(self, alg):\n"
              "        self.index = alg.word_index\n"
              "        self.rules = getattr(alg, 'groebner')\n"
              "    def walk(self):\n"
              "        return arrow_step\n"
              "def assemble_A(alg):\n"
              "    return alg.product_indices\n")
    assert quotient_reads(source) == ["arrow_step", "groebner", "word_index"]
    assert quotient_reads(source, ("Probe", "assemble_A"), PRODUCTS) == [
        "arrow_step", "groebner", "product_indices"]


# The spectrum, the sheaf and presheaf sections, the k-points and the
# tensor verdict with its certificate need only the quiver, the relations
# and the Groebner rules, so they take a `Presentation`, which has no
# basis of kQ/(R): these name no listed attribute, no reader of one, and
# not `dim`.
LISTED = {"basis", "pair_indices", "word_index", "idempotent_index",
          "_list_basis", "dim",
          "dim_pair", "_fill", "arrow_step", "product_indices",
          "element_word", "module_basis", "_walk", "product", "idempotent"}
CERTIFICATE_ONLY = {
    "spectrum": ("spc", "sheaf_sections", "presheaf_sections"),
    "reconstruct": ("rational_points",),
    "path_algebra": ("require_tensor_relations", "certify_quotient",
                     "is_tensor_relations"),
}


@pytest.mark.parametrize("module", sorted(CERTIFICATE_ONLY))
def test_certificate_only_code_names_no_listed_attribute(module):
    source = (SRC / f"{module}.py").read_text()
    defs = CERTIFICATE_ONLY[module]
    assert set(defs) <= top_level(source)
    assert quotient_reads(source, defs, LISTED) == []


# The tensor check reduces each relation term by the Groebner basis: of
# the algebra it reads only these, so no later change can route it
# through the step table or `arrow_step`, which need the check's verdict.
# The certificate reads only the field and the Groebner rules.
TENSOR_CHECK_READS = {"relations", "field", "groebner"}
CERTIFICATE_READS = {"field", "groebner"}


def parameter_reads(source, name):
    """(attributes, lines): the attributes that the top-level function
    `name` of `source` reads off its first parameter, and the lines where
    it uses that parameter in any other way, such as passing it on or
    handing it to `getattr`."""
    func = next(node for node in ast.parse(source).body
                if getattr(node, "name", None) == name)
    param = func.args.args[0].arg
    uses = [node for node in ast.walk(func)
            if isinstance(node, ast.Name) and node.id == param]
    reads = {id(node.value): node.attr for node in ast.walk(func)
             if isinstance(node, ast.Attribute)}
    return ({reads[id(node)] for node in uses if id(node) in reads},
            sorted(node.lineno for node in uses if id(node) not in reads))


def test_tensor_check_reads_only_relations_field_and_groebner_basis():
    source = (SRC / "path_algebra.py").read_text()
    assert parameter_reads(source, "is_tensor_relations") == (
        TENSOR_CHECK_READS, [])
    assert parameter_reads(source, "certify_quotient") == (
        CERTIFICATE_READS, [])


def test_the_parameter_check_sees_every_form():
    source = ("def is_tensor_relations(alg):\n"
              "    field = alg.field\n"
              "    for gen in alg.relations:\n"
              "        d = alg.dim\n"
              "        nfs = [alg._walk(p) for _, p in gen.terms]\n"
              "        memo = getattr(alg, '_steps')\n"
              "        helper(alg, alg.groebner.reduce)\n"
              "def helper(alg, reduce):\n"
              "    return alg.arrow_step\n")
    assert parameter_reads(source, "is_tensor_relations") == (
        {"field", "relations", "dim", "_walk", "groebner"}, [6, 7])
    assert parameter_reads(source, "helper") == ({"arrow_step"}, [])
