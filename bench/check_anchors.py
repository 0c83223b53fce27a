"""Exact-count anchors of the benchmark.

Counts made by the program repeat exactly from run to run, so they tell
less work apart from faster work.  This check runs every workload twice
on one seed and asserts that the counts and op counts agree, that the
pinned tables have the expected row counts, and that no op fails.

    python3 bench/check_anchors.py
    python3 -m pytest bench/check_anchors.py

It takes a few minutes, so the repository's test suite does not collect
it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402

WORKLOADS = ("table", "query", "targets", "cli")
SEED = 7
EXACT = (
    "engine.memo_entries",
    "engine.rows_nonzero",
    "records.records_loaded",
    "golden.rows_checked",
    "ring.build_p1b_calls",
)


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    *_, info, result = proc.stdout.splitlines()
    return json.loads(info)["info"], json.loads(result)


def test_pinned_row_counts():
    support, _ = oracles.load_support()
    assert {b: len(rows) for b, rows in support.items()} == {
        2: 1, 3: 3, 4: 9, 5: 22, 6: 46, 7: 90, 8: 166, 9: 293,
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    (info1, first), (info2, second) = run(workload, 1), run(workload, 1)
    assert info1["ops_sha256"] == info2["ops_sha256"]
    assert info1["passes"] == info2["passes"]
    assert first["attempted"] == second["attempted"] == info1["ops_per_pass"] * info1["passes"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["failed"] == second["failed"] == 0
    if workload == "table":
        assert first["metrics"]["engine.rows_nonzero"]["value"] == sum(
            oracles.ROW_COUNTS.values()
        )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_has_no_failures(workload):
    info, result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and info["failed_frac"] == 0
    # The first pass runs every op; later ones may stop at the deadline.
    assert info["ops_per_pass"] <= result["attempted"] <= info["ops_per_pass"] * info["passes"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
