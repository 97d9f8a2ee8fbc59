"""Line-oriented input language for quivers with relations.

A spec file looks like::

    quiver S2
    field QQ
    vertices 1 2 3
    arrow a0 : 1 -> 2
    arrow b0 : 2 -> 3
    relation a0*b1 - a1*b0

One declaration per line; `#` starts a comment; blank lines are ignored.
`field` is `QQ` (the default) or `F <p>` for a prime p of at most 2^64.
The `quiver`, `vertices` and `field` lines may each appear once.
Relation expressions are signed, optionally coefficient-weighted path
words, with paths written as `*`-separated arrow labels read left to right.
Coefficients are integers or fractions `p/q`.  An arrow label does not
start with a digit, so `2a` in a relation is always the coefficient 2 times
the arrow `a`.  Relation lines are read after all the others, so a
relation may precede the arrows it uses, and its coefficients are read in
the field of the `field` line, wherever it stands.

Each line is read by one match of `_LINE`, which holds the grammar of every
declaration; a relation is then read by one match of `_TERM` per term.
Every token of a declaration, and every token of a term, is an optional
group that is tried only after the ones before it matched.  A match
therefore always succeeds, and on a malformed line the first group left
unset is the first token missing; the diagnostic is computed from that
match, so every message keeps its (line, column) position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fields import QQ, FieldError, field_by_name
from .quiver import Arrow, Path, Quiver, QuiverError, Relation


class ParseError(ValueError):
    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclass
class QuiverSpecFile:
    """The abstract syntax of one spec file: enough to rebuild the quiver,
    the relation list, and a canonical textual form."""

    name: str
    field: object = QQ
    quiver: Quiver = None
    relations: tuple = ()

    def pretty(self):
        lines = [f"quiver {self.name}", f"field {self.field.name}"]
        lines.append("vertices " + " ".join(self.quiver.vertices))
        for a in self.quiver.arrows:
            lines.append(f"arrow {a.label} : {a.source} -> {a.target}")
        for r in self.relations:
            lines.append("relation " + r.pretty(self.field))
        return "\n".join(lines) + "\n"


_B = "[ \t]*"                    # blanks: only spaces and tabs separate tokens
_NAME = "[A-Za-z0-9_]+"
_WHOLE = "(?![A-Za-z0-9_])"      # a keyword is a whole name, not a prefix
_BLANKS = re.compile(_B)


def _steps(steps):
    """The pattern of the (group, token, what) `steps` in order, blanks
    allowed before each, where a step is tried only once all before it
    matched; `what` names the token in a diagnostic."""
    pattern = ""
    for group, token, _ in reversed(steps):
        pattern = f"(?:{_B}(?P<{group}>{token}){pattern})?"
    return pattern


_ARROW = (("label", _NAME, "arrow label"), ("colon", ":", "':'"),
          ("source", _NAME, "source vertex"), ("to", "->", "'->'"),
          ("target", _NAME, "target vertex"))
_QUIVER = (("name", _NAME, "quiver name"),)

_LINE = re.compile(
    f"{_B}(?:"
    f"(?P<relation>relation){_WHOLE}"
    f"|(?P<arrow>arrow){_WHOLE}{_steps(_ARROW)}"
    f"|(?P<vertices>vertices){_WHOLE}(?P<names>(?:{_B}{_NAME})*)"
    f"|(?P<quiver>quiver){_WHOLE}{_steps(_QUIVER)}"
    f"|(?P<field>field){_WHOLE}(?:{_B}(?:(?P<F>F){_WHOLE}"
    f"(?:{_B}(?P<prime>{_NAME}))?|(?P<token>{_NAME})))?"
    f"|(?P<keyword>{_NAME})?"
    ")")

# sign? coefficient? path.  Every group after the coefficient is optional,
# so the engine never backtracks into its digits, which are read as far as
# they go (no atomic group, which Python 3.10 lacks): `12` is a coefficient
# missing its path, never the label `12`.
_TERM = re.compile(
    f"{_B}(?P<sign>[+-]?){_B}(?P<coefficient>\\d+(?:/\\d+)?)?(?P<lead>{_B})"
    f"(?P<path>{_NAME}(?:{_B}\\*{_B}{_NAME})*)?(?P<dangling>{_B}\\*)?")
_LABEL = re.compile(_NAME)


def _blanks_end(body, pos):
    return _BLANKS.match(body, pos).end()


def _arrow_error(m, body, number):
    """The ParseError for an arrow line that `m` read: a label that starts
    with a digit, a missing token, or a label declared before."""
    label = m["label"]
    if label is not None and label[0].isdigit():
        return ParseError(f"arrow label {label!r} starts with a digit",
                          number, m.start("label") + 1)
    return (_missing(_ARROW, m, body, number)
            or ParseError(f"duplicate arrow label {label!r}", number,
                          m.end() + 1))


def _expected(what, m, body, number):
    """The ParseError for a token `what` missing after `m` ends."""
    return ParseError(f"expected {what}", number,
                      _blanks_end(body, m.end()) + 1)


def _missing(steps, m, body, number):
    """The ParseError for the first of `steps` that `m` did not reach, or
    None when it read them all."""
    for group, _, what in steps:
        if m[group] is None:
            return _expected(what, m, body, number)
    return None


def _parse_relation(number, body, pos, field, lookup):
    """One relation expression: sign? term (sign term)*, where a term is an
    optional numeric coefficient followed by a path word."""
    n = len(body)
    one = field.one
    terms = []
    while True:
        m = _TERM.match(body, pos)
        sign, text, _, path, dangling = m.groups()
        if not sign and terms:
            raise ParseError("expected '+' or '-' between relation terms",
                             number, m.start("sign") + 1)
        coeff = one
        if text is not None:
            try:
                coeff = field.parse(text)
            except (FieldError, ZeroDivisionError) as exc:
                raise ParseError(str(exc), number,
                                 m.start("coefficient") + 1) from None
        if path is None:
            if m.start("sign") == n:
                raise ParseError("empty relation", number, n + 1)
            raise ParseError("expected arrow label", number, m.end("lead") + 1)
        if dangling is not None:
            raise _expected("arrow label", m, body, number)
        labels = (path.split("*") if " " not in path and "\t" not in path
                  else _LABEL.findall(path))
        try:
            arrows = [lookup[label] for label in labels]
        except KeyError as exc:
            raise ParseError(f"unknown arrow {exc.args[0]!r}", number,
                             m.start("lead") + 1) from None
        last = arrows[0]
        for a in arrows[1:]:
            if last.target != a.source:
                raise ParseError(
                    f"arrows {last.label} and {a.label} do not compose",
                    number, m.start("lead") + 1)
            last = a
        if sign == "-":
            coeff = field(-coeff)
        terms.append((coeff,
                      Path(arrows[0].source, last.target, tuple(labels))))
        pos = m.end()
        if pos == n:
            break
    path = terms[0][1]
    try:
        return Relation(path.source, path.target, terms)
    except QuiverError as exc:
        raise ParseError(str(exc), number, 1) from None


def parse_quiver(text):
    """Parse a spec file into a QuiverSpecFile; raises ParseError with a
    position, or a homogeneity/composability error phrased the same way."""
    name = None
    field = None
    vertices = None
    arrows = []
    arrow_lookup = {}
    relation_lines = []

    for number, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        body = (raw if cut < 0 else raw[:cut]).rstrip()
        if not body:
            continue
        m = _LINE.match(body)
        if m["relation"] is not None:
            relation_lines.append((number, body, m.end()))
            continue
        if m["arrow"] is not None:
            label, source, target = m.group("label", "source", "target")
            if target is None or label[0].isdigit() or label in arrow_lookup:
                raise _arrow_error(m, body, number)
            a = Arrow(label, source, target)
            arrows.append(a)
            arrow_lookup[label] = a
        elif m["vertices"] is not None:
            if vertices is not None:
                raise ParseError("duplicate vertices declaration",
                                 number, m.end("vertices") + 1)
            vertices = m["names"].split()
            if m.end() != len(body):
                raise _expected("vertex", m, body, number)
            if not vertices:
                raise ParseError("empty vertex list", number, m.end() + 1)
        elif m["quiver"] is not None:
            if name is not None:
                raise ParseError("duplicate quiver declaration",
                                 number, m.end("quiver") + 1)
            name = m["name"]
            if name is None:
                raise _missing(_QUIVER, m, body, number)
        elif m["field"] is not None:
            if field is not None:
                raise ParseError("duplicate field declaration",
                                 number, m.end("field") + 1)
            if m["token"] is not None:
                token = m["token"]
            elif m["prime"] is not None:
                token = "F" + m["prime"]
            else:
                raise _expected("prime" if m["F"] is not None else "field name",
                                m, body, number)
            try:
                field = field_by_name(token)
            except FieldError as exc:
                raise ParseError(str(exc), number, m.end() + 1) from None
        elif m["keyword"] is not None:
            raise ParseError(f"unknown declaration {m['keyword']!r}", number, 1)
        else:
            raise _expected("declaration keyword", m, body, number)
        if m.end() != len(body):
            pos = _blanks_end(body, m.end())
            raise ParseError(f"trailing text {body[pos:]!r}", number, pos + 1)

    if name is None:
        raise ParseError("missing quiver declaration", 1, 1)
    if vertices is None:
        raise ParseError("missing vertices declaration", 1, 1)

    try:
        quiver = Quiver(tuple(vertices), tuple(arrows))
    except QuiverError as exc:
        raise ParseError(str(exc), 1, 1) from None

    field = field or QQ
    relations = []
    for number, body, pos in relation_lines:
        relations.append(_parse_relation(number, body, pos, field, arrow_lookup))
    return QuiverSpecFile(name, field, quiver, tuple(relations))


def parse_quiver_file(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = raw.rfind(b"\n", 0, exc.start) + 1
        raise ParseError(f"invalid UTF-8 byte {raw[exc.start]:#04x}",
                         raw.count(b"\n", 0, exc.start) + 1,
                         exc.start - line_start + 1) from None
    return parse_quiver(text)
