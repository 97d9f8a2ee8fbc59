"""The character-by-character spec parser that `quivertt.dsl` replaced,
kept as a test oracle for `test_dsl_differential.py`.

It reads each line with a cursor that skips blanks and takes one token at
a time.  It accepts an arrow label that starts with a digit, which the
library now refuses; inputs that declare one are left out of the
comparison.  A signed coefficient is coerced into the field, so over F_p
it is the representative, as the library's elements are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from quivertt.fields import QQ, FieldError, field_by_name
from quivertt.quiver import Arrow, Quiver, QuiverError

from conftest import path_from_arrows, relation_from_terms


class ParseError(ValueError):
    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


_NAME = re.compile(r"[A-Za-z0-9_]+")


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


class _Line:
    def __init__(self, number, text):
        self.number = number
        self.text = text
        self.pos = 0

    def error(self, message, column=None):
        return ParseError(message, self.number,
                          (self.pos if column is None else column) + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def name(self, what="name"):
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if not m:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m.group()

    def rest(self):
        self.skip_ws()
        return self.text[self.pos:]


def _strip_comment(text):
    cut = text.find("#")
    return text if cut < 0 else text[:cut]


_NUMBER = re.compile(r"\d+(/\d+)?")


def _parse_relation(line, spec, pos_lookup):
    """One relation expression: sign? term (sign term)*, where a term is an
    optional numeric coefficient followed by a path word."""
    field = spec.field
    terms = []
    first = True
    while True:
        if line.at_end():
            if first:
                raise line.error("empty relation")
            break
        sign = field.one
        ch = line.peek()
        if ch in "+-":
            line.pos += 1
            sign = -field.one if ch == "-" else field.one
        elif not first:
            raise line.error("expected '+' or '-' between relation terms")
        line.skip_ws()
        coeff = field.one
        m = _NUMBER.match(line.text, line.pos)
        if m:
            try:
                coeff = field.parse(m.group())
            except (FieldError, ZeroDivisionError) as exc:
                raise line.error(str(exc))
            line.pos = m.end()
        start = line.pos
        labels = [line.name("arrow label")]
        while line.peek() == "*":
            line.take("*")
            labels.append(line.name("arrow label"))
        arrows = []
        for lab in labels:
            if lab not in pos_lookup:
                raise line.error(f"unknown arrow {lab!r}", start)
            arrows.append(pos_lookup[lab])
        try:
            path = path_from_arrows(arrows)
        except QuiverError as exc:
            raise line.error(str(exc), start)
        terms.append((field(sign * coeff), path))
        first = False
    try:
        return relation_from_terms(terms)
    except QuiverError as exc:
        raise line.error(str(exc), 0)


def parse_quiver(text):
    """Parse a spec file into a QuiverSpecFile; raises ParseError with a
    position, or a homogeneity/composability error phrased the same way."""
    name = None
    field = QQ
    vertices = None
    arrows = []
    arrow_lookup = {}
    relation_lines = []

    for number, raw in enumerate(text.splitlines(), start=1):
        body = _strip_comment(raw).rstrip()
        if not body.strip():
            continue
        line = _Line(number, body)
        keyword = line.name("declaration keyword")
        if keyword == "quiver":
            if name is not None:
                raise line.error("duplicate quiver declaration")
            name = line.name("quiver name")
        elif keyword == "field":
            token = line.name("field name")
            if token == "F":
                token = f"F{line.name('prime')}"
            try:
                field = field_by_name(token)
            except FieldError as exc:
                raise line.error(str(exc))
        elif keyword == "vertices":
            if vertices is not None:
                raise line.error("duplicate vertices declaration")
            vertices = []
            while not line.at_end():
                vertices.append(line.name("vertex"))
            if not vertices:
                raise line.error("empty vertex list")
        elif keyword == "arrow":
            label = line.name("arrow label")
            line.take(":")
            src = line.name("source vertex")
            line.take("->")
            tgt = line.name("target vertex")
            if label in arrow_lookup:
                raise line.error(f"duplicate arrow label {label!r}")
            a = Arrow(label, src, tgt)
            arrows.append(a)
            arrow_lookup[label] = a
        elif keyword == "relation":
            relation_lines.append(line)
            continue
        else:
            raise line.error(f"unknown declaration {keyword!r}", 0)
        if not line.at_end():
            raise line.error(f"trailing text {line.rest()!r}")

    if name is None:
        raise ParseError("missing quiver declaration", 1, 1)
    if vertices is None:
        raise ParseError("missing vertices declaration", 1, 1)

    try:
        quiver = Quiver(tuple(vertices), tuple(arrows))
    except QuiverError as exc:
        raise ParseError(str(exc), 1, 1)

    spec = QuiverSpecFile(name, field, quiver, ())
    relations = []
    for line in relation_lines:
        relations.append(_parse_relation(line, spec, arrow_lookup))
    spec.relations = tuple(relations)
    return spec


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
