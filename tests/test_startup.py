"""What a fresh interpreter loads when it imports gwstack.

Every CLI command runs in its own interpreter, so each module that
``import gwstack.cli`` pulls in is paid on every command.  These tests
name the standard-library modules gwstack must not load at import time,
and the modules each command loads, all of the standard library or
gwstack; they check module names, not times, so they are deterministic.
The package serves its public names on first use, and the last tests
check that it serves the same objects.
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


def _gwstack_modules(code: str) -> set[str]:
    """The gwstack modules, and ``json``, that running ``code`` loads."""
    return {m for m in _loaded_by(code) if m.split(".")[0] in ("gwstack", "json")}


BASE = {"gwstack", "gwstack.cli", "gwstack.target"}


@pytest.mark.parametrize(
    "code, expected",
    [
        ("import gwstack", {"gwstack"}),
        ("import gwstack.cli", BASE),
    ],
    ids=["gwstack", "gwstack.cli"],
)
def test_import_loads_only_what_it_runs(code, expected):
    assert _gwstack_modules(code) == expected


def _running(argv: list[str]) -> str:
    """Code that runs the command ``argv`` and checks that it succeeds; the
    command's own output goes to a buffer, not into the probe's list."""
    return (
        "import contextlib, io, gwstack.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert gwstack.cli.main({argv!r}) == 0"
    )


# Only ``ring`` loads gwstack.ring: the quantum-ring arithmetic is compiled
# by the one command that runs it.
@pytest.mark.parametrize(
    "argv, added",
    [
        ("ring --b 3 --lambda 1", {"gwstack.ring"}),
        ("compute --b 3 --insertions 1,1,2,2", {"gwstack.engine"}),
        ("table --b 3 --format tsv", {"gwstack.engine"}),
        ("table --b 3 --format jsonl", {"gwstack.engine"}),
        # gwstack.data is the package that importlib.resources reads the table from.
        ("verify --b 2", {"gwstack.data", "gwstack.engine", "gwstack.golden", "gwstack.records"}),
        ("cache --path {path}", {"gwstack.engine", "gwstack.records"}),
    ],
    ids=["ring", "compute", "table-tsv", "table-jsonl", "verify", "cache"],
)
def test_command_loads_only_what_it_runs(argv, added, tmp_path):
    path = tmp_path / "memo.rec"
    path.write_text("3 0 1,1,2,2 -1/9\n")
    assert _gwstack_modules(_running(argv.format(path=path).split())) == BASE | added


@pytest.mark.parametrize(
    "argv",
    [
        "compute --b 3 --insertions 1,1,2,2",
        "table --b 3 --format jsonl",
        "verify --b 2",
        "ring --b 3 --lambda 1 --check-generation",
        "cache --path {path}",
    ],
    ids=["compute", "table", "verify", "ring", "cache"],
)
def test_command_loads_only_the_standard_library(argv, tmp_path):
    path = tmp_path / "memo.rec"
    path.write_text("3 0 1,1,2,2 -1/9\n")
    loaded = _loaded_by(_running(argv.format(path=path).split()))
    assert "gwstack.cli" in loaded
    outside = {m for m in loaded if m.split(".")[0] not in {*sys.stdlib_module_names, "gwstack"}}
    assert not outside, sorted(outside)


@pytest.mark.parametrize("name", sorted(set(gwstack.__all__) - {"__version__"}))
def test_public_name_is_its_home_module_object(name):
    value = getattr(gwstack, name)
    assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_and_dir_list_the_public_names():
    namespace: dict = {}
    exec("from gwstack import *", namespace)
    assert set(gwstack.__all__) <= set(namespace)
    assert set(gwstack.__all__) <= set(dir(gwstack))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gwstack.no_such_name


def test_ring_serves_the_benchmark_import_line():
    # bench/workloads.py imports these six names from gwstack.ring; two of
    # them are defined in gwstack.target and re-imported by ring.
    from gwstack import target
    from gwstack.ring import (  # noqa: F401
        basis_element,
        build_p1b,
        build_p2,
        divisor_generation_check,
        qmul,
        specialize,
    )

    assert build_p1b is target.build_p1b
    assert build_p2 is target.build_p2


def test_submodules_import_by_name():
    from gwstack import golden

    assert golden is sys.modules["gwstack.golden"]
    assert golden.TABLE_ORDERS == (2, 3, 4, 5, 6)
