"""The examples in README.md, run as documented.

Every ``$ gwstack ...`` line in a fenced block is passed to
``cli.main``; its stdout must equal the lines that follow it, up to the
next command or the end of the block.  The commands of one block run in
order in a fresh working directory, so an example may read a file that
an earlier command of its block wrote.  The ``python`` block of the
Library section is executed, and that section documents exactly the
names in ``gwstack.__all__`` and shows every public method of
``Reconstructor`` as ``rec.<name>``.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

import gwstack
from gwstack import Reconstructor, cli

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ gwstack "


def _blocks():
    """The fenced blocks' examples as lists of ``(command, expected)``."""
    blocks, expected, in_block = [], None, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, expected = not in_block, None
            if in_block:
                blocks.append([])
        elif in_block and line.startswith(PROMPT):
            expected = []
            blocks[-1].append((line[len(PROMPT):], expected))
        elif expected is not None:
            expected.append(line)
    return [
        [(command, "".join(out + "\n" for out in expected)) for command, expected in block]
        for block in blocks
    ]


def _examples():
    return [
        pytest.param(block[: k + 1], id=block[k][0])
        for block in _blocks()
        for k in range(len(block))
    ]


@pytest.mark.parametrize("steps", _examples())
def test_example(steps, capsys, monkeypatch, tmp_path):
    """Run an example after the commands that precede it in its block."""
    monkeypatch.chdir(tmp_path)
    for command, expected in steps:
        assert cli.main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == expected, command


def _library():
    """The Library section's text and the source of its ``python`` block."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    end = section.find("\n## ", 1)
    if end != -1:
        section = section[:end]
    block = section[section.index("```python\n") + len("```python\n"):]
    return section, block[: block.index("```")]


def test_library_block_runs():
    _, source = _library()
    exec(compile(source, "README.md", "exec"), {})


def test_library_section_is_the_api():
    section, source = _library()
    exported = set(gwstack.__all__) - {"__version__"}
    undocumented = {n for n in exported if not re.search(rf"\b{n}\b", section)}
    assert not undocumented, f"exported but not in the README Library section: {undocumented}"
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "gwstack"
        for alias in node.names
    }
    assert imported, "the Library block imports nothing from gwstack"
    assert imported <= exported, f"imported but not exported: {imported - exported}"


def test_library_section_shows_the_engine():
    section, _ = _library()
    public = {name for name in vars(Reconstructor) if not name.startswith("_")}
    assert public, "Reconstructor has no public names"
    missing = {name for name in public if f"rec.{name}" not in section}
    assert not missing, f"public on Reconstructor but not in the README Library section: {missing}"
