#!/usr/bin/env python3
"""Count the code lines of each module of a package: the lines that hold
a token of code, leaving out blank lines, comments and docstrings (the
string that opens a module, class or function body).  A statement that
spans several lines counts each line it spans.

    python scripts/code_lines.py [DIR]

prints one `lines  module` row per `*.py` file of DIR (default
`src/quivertt`), sorted by name, and then the total."""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers spanned by every docstring of `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python source text `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = (Path(argv[0]) if argv
            else Path(__file__).resolve().parent.parent / "src" / "quivertt")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
