"""The CLI examples in README.md, run as documented.

Every ``$ gwstack ...`` line in a fenced block is passed to
``cli.main``; its stdout must equal the lines that follow it, up to the
next command or the end of the block.  The commands of one block run in
order in a fresh working directory, so an example may read a file that
an earlier command of its block wrote.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from gwstack import cli

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
    monkeypatch.delenv("GWSTACK_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    for command, expected in steps:
        assert cli.main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == expected, command
