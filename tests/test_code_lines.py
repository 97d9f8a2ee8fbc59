"""`scripts/code_lines.py`: code lines leave out blank lines, comments and
docstrings, and count every line a statement spans."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

SOURCE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment leaves the line code

# a comment line


def f(x):
    """A one-line docstring."""
    y = (x +
         1)
    text = """a string that is
no docstring"""
    return y, text, os


class C:
    """A class docstring."""

    def g(self):
        return 1
'''


def load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_a_synthetic_module():
    # import, def f, the two lines of y, the two of text, return, class C,
    # def g and its return
    assert load().code_lines(SOURCE) == 10


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nX = 1\n')
    assert load().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["1", "a.py"], ["10", "b.py"], ["11", "total"]]
