"""The README's library example runs as written: every line of its
`python` block that ends in a `# ...` comment prints exactly that
comment, so the documented API cannot drift from the code.  Its command
list names each command of the CLI once, with that command's flags."""

import contextlib
import io
import re
from pathlib import Path

from quivertt.cli import _COMMANDS

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


def command_lines(text):
    """The words of each `quivertt ...` line in the README's `sh` blocks,
    with any trailing `# ...` comment dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    return [line.split("#")[0].split() for block in blocks
            for line in block.splitlines() if line.startswith("quivertt ")]


def test_the_command_list_matches_the_cli():
    lines = command_lines((ROOT / "README.md").read_text())
    assert sorted(words[1] for words in lines) == sorted(_COMMANDS)
    for command, spec_file, *rest in (words[1:] for words in lines):
        assert spec_file.endswith(".quiver")
        flags = rest[0::2]
        assert all(flag.startswith("--") for flag in flags), command
        assert len(rest) == 2 * len(flags), command
        assert [flag[2:] for flag in flags] == list(_COMMANDS[command][2])
