"""The README's library example runs as written: every line of its
`python` block that ends in a `# ...` comment prints exactly that
comment, so the documented API cannot drift from the code."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def expected_output(block):
    """The trailing `# ...` comment of each line that has one, in order."""
    return [m.group(1) for m in re.finditer(r"#\s*(.*?)\s*$", block, re.M)]


def test_the_readme_has_one_library_example():
    blocks = python_blocks((ROOT / "README.md").read_text())
    assert len(blocks) == 1
    assert expected_output(blocks[0]) == ["3", "15 True", "1"]


def test_the_library_example_prints_its_comments(monkeypatch):
    block, = python_blocks((ROOT / "README.md").read_text())
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected_output(block)

