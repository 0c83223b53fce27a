"""The CLI examples in README.md, run as documented.

Every ``$ gwstack ...`` line in a fenced block is passed to
``cli.main``; its stdout must equal the lines that follow it, up to the
next command or the end of the block.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from gwstack import cli

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ gwstack "
NEEDS_FILES = {"cache --path runs.dat"}


def _examples():
    examples, expected, in_block = [], None, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, expected = not in_block, None
        elif in_block and line.startswith(PROMPT):
            expected = []
            examples.append((line[len(PROMPT):], expected))
        elif expected is not None:
            expected.append(line)
    return [
        pytest.param(
            command,
            "".join(out + "\n" for out in expected),
            id=command,
            marks=pytest.mark.skip(reason="reads a file the README does not ship") if command in NEEDS_FILES else (),
        )
        for command, expected in examples
    ]


@pytest.mark.parametrize("command, expected", _examples())
def test_example(command, expected, capsys, monkeypatch):
    monkeypatch.delenv("GWSTACK_CACHE", raising=False)
    assert cli.main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected
