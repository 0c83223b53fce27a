"""What a fresh interpreter loads when it imports gwstack.

Every CLI command runs in its own interpreter, so each module that
``import gwstack.cli`` pulls in is paid on every command.  These tests
name the standard-library modules gwstack must not load at import time;
they check module names, not times, so they are deterministic.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import gwstack

# ``dataclasses`` brings in ``inspect`` (and through it ``ast``, ``dis``
# and ``tokenize``), and so does ``importlib.resources`` on Python 3.12+;
# ``hashlib`` is needed only to check the golden table's checksum.
NOT_AT_IMPORT = ("dataclasses", "inspect", "hashlib")


def _loaded_by(code: str) -> set[str]:
    """The modules that running ``code`` adds to a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(gwstack.__file__))
    probe = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(*(set(sys.modules) - before))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
        check=True,
    )
    return set(out.stdout.split())


@pytest.mark.parametrize("module", ["gwstack.cli", "gwstack"])
def test_import_loads_no_heavy_modules(module):
    loaded = _loaded_by(f"import {module}")
    assert module in loaded
    assert not loaded & set(NOT_AT_IMPORT), sorted(loaded & set(NOT_AT_IMPORT))


def test_golden_rows_checks_the_checksum():
    loaded = _loaded_by("import gwstack.golden\ngwstack.golden.golden_rows(2)")
    assert "hashlib" in loaded
