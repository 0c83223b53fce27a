from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from gwstack import cli
from gwstack.engine import _FIELD
from gwstack.golden import mults_from_insertions
from reference import closed_4pt_deg0, closed_4pt_deg1


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def _spawn(*argv) -> subprocess.CompletedProcess:
    """``python -m gwstack.cli argv`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-m", "gwstack.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )


@pytest.fixture
def no_build(monkeypatch):
    """Fail the test if any target gets built."""

    def refuse(b):
        raise AssertionError(f"built P(1,{b})")

    monkeypatch.setattr(cli, "build_p1b", refuse)
    cli._target_for.cache_clear()


class TestCompute:
    def test_forced_degree(self, run):
        code, out, err = run("compute", "--b", "3", "--insertions", "1,1,2,2")
        assert (code, out, err) == (0, "-1/9\n", "")

    def test_insertion_order_is_irrelevant(self, run):
        assert run("compute", "--b", "3", "--insertions", "2,1,2,1")[1] == "-1/9\n"

    def test_divisor_and_identity_accepted(self, run):
        assert run("compute", "--b", "2", "--insertions", "1,2,2,2")[1] == "1/8\n"
        assert run("compute", "--b", "3", "--insertions", "0,2,2,2")[1] == "0\n"

    def test_usage_errors(self, run):
        assert run("compute", "--b", "0", "--insertions", "1,1")[0] == 2
        assert run("compute", "--b", "3", "--insertions", "1,7")[0] == 2
        assert run("compute", "--b", "3", "--insertions", "2")[0] == 2
        assert run("compute", "--b", "3", "--insertions", "1,x")[0] == 2
        # The insertions fix the degree, so there is no flag to give one.
        code, out, err = run("compute", "--b", "5", "--insertions", "4,4,4,4", "--degree", "1")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --degree 1" in err
        assert run("compute", "--b", "3", "--insertions", "0,0")[0] == 2  # degenerate

    def test_oversized_order_fails_before_building(self, run, no_build):
        too_big = str(cli._MAX_ORDER + 1)
        for argv in (
            ("compute", "--b", "100000", "--insertions", "1,1"),
            ("compute", "--b", too_big, "--insertions", "1,1"),
            ("table", "--b", too_big),
            ("ring", "--b", too_big, "--lambda", "1"),
        ):
            code, out, err = run(*argv)
            assert (code, out) == (2, ""), argv
            assert f"--b must lie in [1, {cli._MAX_ORDER}]" in err

    def test_oversized_insertion_count(self, run):
        most = (1 << _FIELD) - 1
        code, out, err = run("compute", "--b", "2", "--insertions", ",".join(["1"] * (most + 1)))
        assert (code, out) == (2, "")
        assert f"at most {most} insertions are supported, got {most + 1}" in err


class TestTable:
    def test_tsv_single_row(self, run):
        code, out, _ = run("table", "--b", "2", "--format", "tsv")
        assert (code, out) == (0, "0\t4\t-1/4\n")

    def test_human_matches_table_shorthand(self, run):
        code, out, _ = run("table", "--b", "3")
        assert code == 0
        assert out.splitlines() == [
            "N_0(0,6) = -1/27",
            "N_0(1,4) = 1/27",
            "N_0(2,2) = -1/9",
        ]

    def test_human_alignment(self, run):
        _, out, _ = run("table", "--b", "5")
        eq_cols = {line.index("= ") for line in out.splitlines()}
        assert len(eq_cols) == 1

    def test_row_counts(self, run):
        for b, count in ((4, 9), (5, 22), (6, 46)):
            _, out, _ = run("table", "--b", str(b), "--format", "tsv")
            assert len(out.splitlines()) == count

    def test_jsonl(self, run):
        code, out, _ = run("table", "--b", "3", "--format", "jsonl")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == '{"b":3,"d":0,"insertions":[1,1,2,2],"value":"-1/9"}'
        parsed = [json.loads(line) for line in lines]
        assert [row["insertions"] for row in parsed] == [
            [1, 1, 2, 2],
            [1, 2, 2, 2, 2],
            [2, 2, 2, 2, 2, 2],
        ]

    def test_absent_flags_and_negative_caps_exit_two(self, run):
        for argv in (
            # a divisor row is a ``compute``: the divisor axiom strips it
            "table --b 3 --include-divisor --max-n 4 --format jsonl",
            # identity insertions add no nonzero row, so there is no flag
            "table --b 2 --include-fundamental --max-n 4 --format jsonl",
            # the support is finite in the degree, so there is no cap on it
            "table --b 3 --max-d 1",
            # a negative cap printed an empty table with exit 0
            "table --b 3 --max-n -1",
        ):
            assert run(*argv.split())[:2] == (2, ""), argv

    def test_full_support_cap_fails_before_building(self, run, no_build):
        too_big = str(cli._MAX_TABLE_ORDER + 1)
        for argv in (
            ("table", "--b", too_big),
            ("table", "--b", too_big, "--format", "tsv"),
        ):
            code, out, err = run(*argv)
            assert (code, out) == (2, ""), argv
            assert f"b <= {cli._MAX_TABLE_ORDER} only" in err

    def test_max_n_past_one_key_exits_two(self, run):
        most = (1 << _FIELD) - 1
        code, out, err = run("table", "--b", "3", "--max-n", str(most + 1), "--format", "tsv")
        assert (code, out) == (2, "")
        assert f"max_n must be at most {most}, got {most + 1}" in err
        assert run("table", "--b", "3", "--max-n", str(most), "--format", "tsv")[:2] == (
            0, run("table", "--b", "3", "--format", "tsv")[1]
        )

    def test_max_n_lifts_full_support_cap(self, run):
        b = cli._MAX_TABLE_ORDER + 1
        code, out, _ = run("table", "--b", str(b), "--max-n", "4", "--format", "tsv")
        assert code == 0
        # Four twisted exponents sum to 2b at degree 0 and to 3b + 1 at
        # degree 1; both have closed forms, and no higher degree fits.
        expected = []
        for ks in itertools.combinations_with_replacement(range(1, b), 4):
            if sum(ks) == 2 * b:
                d, value = 0, closed_4pt_deg0(b, *ks)
            elif sum(ks) == 3 * b + 1:
                d, value = 1, closed_4pt_deg1(b, *ks)
            else:
                continue
            if value:
                mults = ",".join(map(str, mults_from_insertions(b, ks)))
                expected.append(f"{d}\t{mults}\t{value}")
        assert sorted(out.splitlines()) == sorted(expected)

    def test_full_support_at_b12(self, run):
        # Past the 4-point closed forms no other test pins a value at
        # b = 12, so the whole output is pinned by its sha256.
        for fmt, digest in (
            ("tsv", "9eb277fe40427914218acf27b8c24904d5b87633562199aa940fbe7313852ff1"),
            ("jsonl", "60306a074ad8ea133402d781f3b341099725217bb9e9443d5b85132746f8c61d"),
        ):
            code, out, _ = run("table", "--b", "12", "--format", fmt)
            assert code == 0
            assert len(out.splitlines()) == 1331
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    def test_empty_table_for_b1(self, run):
        assert run("table", "--b", "1") == (0, "", "")

    def test_no_floating_point_anywhere(self, run):
        for fmt in ("human", "tsv", "jsonl"):
            _, out, _ = run("table", "--b", "5", "--format", fmt)
            assert not re.search(r"\d\.\d", out)


class TestVerify:
    def test_single_table(self, run):
        code, out, _ = run("verify", "--b", "3")
        assert code == 0
        assert out == "P(1,3): 3/3 rows match\n"

    def test_all_tables(self, run):
        code, out, _ = run("verify", "--b", "all")
        assert code == 0
        assert out.splitlines()[-1] == "total: 81/81 rows match"

    def test_unknown_order(self, run):
        for order in ("9", "foo", "02"):
            code, out, err = run("verify", "--b", order)
            assert (code, out) == (2, ""), order
            assert "invalid choice" in err

    def test_mismatch_exits_one(self, run, monkeypatch):
        from gwstack import golden as golden_mod
        from gwstack.golden import GoldenRow

        fake = (GoldenRow(2, 0, (4,), Fraction(1, 7)),)
        monkeypatch.setattr(golden_mod, "golden_rows", lambda b: fake)
        code, out, _ = run("verify", "--b", "2")
        assert code == 1
        assert out.splitlines() == ["P(1,2): 0/1 rows match", "  N_0(4): table 1/7, engine -1/4"]

    def test_corrupt_golden_table_exits_three(self, run, monkeypatch):
        from gwstack import golden as golden_mod

        monkeypatch.setattr(golden_mod, "_DATA_SHA256", "0" * 64)
        golden_mod._load_tables.cache_clear()
        try:
            code, out, err = run("verify", "--b", "2")
        finally:
            monkeypatch.undo()
            golden_mod._load_tables.cache_clear()
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("gwstack: golden data checksum mismatch")


class TestRing:
    def test_quantum_specialization(self, run):
        code, out, _ = run("ring", "--b", "2", "--lambda", "2", "--check-generation")
        assert code == 0
        assert out.splitlines() == [
            "ring P(1,2) at q = 2",
            "1 * 1 = 1",
            "1 * a^1 = a^1",
            "1 * x = x",
            "a^1 * a^1 = x",
            "a^1 * x = 1",
            "x * x = a^1",
            "generated: true",
        ]

    def test_orbifold_ring_is_not_generated(self, run):
        code, out, _ = run("ring", "--b", "3", "--lambda", "0", "--check-generation")
        assert code == 0
        lines = out.splitlines()
        assert "x * x = 0" in lines
        assert lines[-1] == "generated: false"

    def test_negative_lambda_with_equals_sign(self, run):
        code, out, _ = run("ring", "--b", "2", "--lambda=-1/2")
        assert code == 0
        assert "x * x = -1/4 a^1" in out.splitlines()

    def test_fractional_coefficients(self, run):
        _, out, _ = run("ring", "--b", "3", "--lambda", "1")
        assert "a^2 * x = 1/3 a^1" in out.splitlines()

    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                ("--b", "100", "--lambda=-7/3", "--check-generation"),
                "95dd6073c274376d76bc5687f6f8918eced1b9c95ef20b7d965a174416ee3bd6",
                id="b100-generated",
            ),
            pytest.param(
                ("--b", "48", "--lambda", "0"),
                "d8ccc1495dd73fea48b449d2ac4765218e974bcedb13fa8f2d507332e4258426",
                id="b48-orbifold",
            ),
            pytest.param(
                ("--b", "1", "--lambda", "0", "--check-generation"),
                "2d362f04f0b28e3a94f6409beb517ddd307cfd2b8543b4db73b5201f099fec61",
                id="b1-orbifold-generated",
            ),
        ],
    )
    def test_whole_output_is_pinned(self, run, argv, digest):
        # Entries that share a specialized vector share its rendering, so
        # the whole table is pinned by its sha256.
        code, out, err = run("ring", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_malformed_lambda(self, run):
        assert run("ring", "--b", "2", "--lambda", "sqrt2")[0] == 2
        assert run("ring", "--b", "2", "--lambda", "1/0")[0] == 2
        # Exponent notation and overlong text are refused before Fraction()
        # is called; 1e5000 crashed with exit 1 while printing and
        # 1e10000000 spent seconds inside Fraction().
        assert run("ring", "--b", "2", "--lambda=1e5000")[0] == 2
        assert run("ring", "--b", "2", "--lambda", "1" * 1000)[0] == 2
        t0 = time.monotonic()
        assert run("ring", "--b", "2", "--lambda=1e10000000")[0] == 2
        assert time.monotonic() - t0 < 1


class TestCache:
    def test_round_trip(self, run, tmp_path):
        path = str(tmp_path / "memo.rec")
        code, out, _ = run(
            "compute", "--b", "6", "--insertions", "5,5,5,5,5", "--cache", path
        )
        assert (code, out) == (0, "1/1296\n")
        code, out, _ = run("cache", "--path", path)
        assert code == 0
        assert out.endswith("records ok\n")
        # A warm cache must not change the answer.
        code, out, _ = run(
            "compute", "--b", "6", "--insertions", "5,5,5,5,5", "--cache", path
        )
        assert (code, out) == (0, "1/1296\n")

    def test_axiom_zero_rows_are_accepted(self, run, tmp_path):
        # What ``compute --b 3 --insertions 1,1,2,2 --cache`` wrote while
        # a WDVV relation still stored every axiom-zero factor it met:
        # the first two rows.  The file stays valid and changes no value.
        path = tmp_path / "memo.rec"
        rows = [("0,1,2,3", "0"), ("1,1,1,3", "0"), ("1,1,2,2", "-1/9"), ("1,3,3,3", "1/27")]
        path.write_text("3 0 0,1,2,3 0\n3 0 1,1,1,3 0\n3 0 1,1,2,2 -1/9\n3 1 1,3,3,3 1/27\n")
        assert run("cache", "--path", str(path))[:2] == (0, "4 records ok\n")
        for ins, value in rows:
            out = run("compute", "--b", "3", "--insertions", ins, "--cache", str(path))[:2]
            assert out == (0, value + "\n"), ins
        assert run("cache", "--path", str(path))[:2] == (0, "4 records ok\n")

    def test_env_var_is_ignored(self, run, tmp_path, monkeypatch):
        # Only --cache names a record file; a variable left set in the
        # environment must not make runs share one.
        path = tmp_path / "memo.rec"
        monkeypatch.setenv("GWSTACK_CACHE", str(path))
        assert run("compute", "--b", "4", "--insertions", "2,2,2,2")[:2] == (0, "-1/8\n")
        assert not path.exists()

    @pytest.mark.parametrize(
        "text, code, out, reason",
        [
            ("3 1 2,2 1/3\n", 0, "1 records ok\n", None),  # matches base2
            ("3 1 2,2 1/2\n", 3, "", "conflicts"),
            ("3 0 0,0 1\n", 3, "", "degenerate"),  # the degree-0 pair
        ],
        ids=["matches-base2", "conflicts", "degree-0"],
    )
    def test_two_point_records(self, run, tmp_path, text, code, out, reason):
        path = tmp_path / "memo.rec"
        path.write_text(text)
        got_code, got_out, err = run("cache", "--path", str(path))
        assert (got_code, got_out) == (code, out)
        if code:
            assert "memo.rec:1:" in err and reason in err

    @pytest.mark.parametrize(
        "record, ins, axiom",
        [
            ("3 0 0,2,2,2 7", "0,2,2,2", "identity axiom: 0,"),
            ("3 1 1,3,3,3 7", "1,3,3,3", "divisor axiom: 1/27,"),
        ],
        ids=["identity", "divisor"],
    )
    def test_axiom_records_are_checked(self, run, tmp_path, record, ins, axiom):
        # A record on a key that an axiom decides is checked against it,
        # after a valid twisted record on line 1.
        path = tmp_path / "memo.rec"
        path.write_text(f"3 0 1,1,2,2 -1/9\n{record}\n")
        for argv in (
            ("compute", "--b", "3", "--insertions", ins, "--cache", str(path)),
            ("cache", "--path", str(path)),
        ):
            code, out, err = run(*argv)
            assert (code, out) == (3, ""), argv
            assert f"memo.rec:2: entry" in err and f"conflicts with the {axiom} not 7" in err

    def test_emit_normalizes(self, run, tmp_path):
        # Insertions are sorted, and a key given twice is emitted once.
        path = tmp_path / "memo.rec"
        for text in ("# note\n3 0 2,1,2,1 -1/9\n", "3 0 1,1,2,2 -1/9\n3 0 2,2,1,1 -1/9\n"):
            path.write_text(text)
            code, out, _ = run("cache", "--path", str(path), "--emit")
            assert (code, out) == (0, "3 0 1,1,2,2 -1/9\n"), text

    @pytest.mark.parametrize(
        "line, field",
        [
            ("+3 0 1,1,2,2 -1/9", "+3"),
            ("3 00 1,1,2,2 -1/9", "00"),
            ("3 0 1,1,2,0_2 -1/9", "0_2"),
        ],
        ids=["plus-sign", "padded", "underscore"],
    )
    def test_rejects_non_canonical_integers(self, run, tmp_path, line, field):
        path = tmp_path / "memo.rec"
        path.write_text(f"{line}\n")
        code, out, err = run("cache", "--path", str(path), "--emit")
        assert (code, out) == (3, "")
        assert f"memo.rec:1: malformed integer {field!r}" in err

    def test_rejects_non_lowest_terms(self, run, tmp_path):
        path = tmp_path / "memo.rec"
        path.write_text("3 0 1,1,2,2 -2/18\n")
        code, _, err = run("cache", "--path", str(path))
        assert code == 3
        assert "lowest terms" in err
        assert "memo.rec:1" in err

    def test_rejects_oversized_order_before_building(self, run, tmp_path, no_build):
        path = tmp_path / "memo.rec"
        for text, line in (
            ("100000 1 1,100000 1/100000\n", 1),
            ("3 0 1,1,2,2 -1/9\n100000 1 1,100000 1/100000\n", 2),
            ("0 0 1,1 1/2\n", 1),
            ("-3 0 1,1 1/2\n", 1),
        ):
            path.write_text(text)
            code, out, err = run("cache", "--path", str(path))
            assert (code, out) == (3, "")
            assert f"memo.rec:{line}: b must lie in [1, {cli._MAX_ORDER}]" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("3 -1 1,1,2,2 -1/9", "degree -1 is not forced by insertions (1, 1, 2, 2) on P(1,3)"),
            ("3 0 2 1/2", "at least two insertions are required"),
            ("3 0 1,4 1/2", "basis index 4 out of range for P(1,3)"),
            ("3 0 -1,1 1/2", "basis index -1 out of range for P(1,3)"),
        ],
        ids=["negative-degree", "one-insertion", "exponent-above-b", "negative-exponent"],
    )
    def test_rejects_records_that_are_no_invariant(self, run, tmp_path, line, message):
        # Each line parses; the engine's preload is what refuses it.
        path = tmp_path / "memo.rec"
        path.write_text(line + "\n")
        code, out, err = run("cache", "--path", str(path))
        assert (code, out) == (3, "")
        assert f"memo.rec:1: {message}" in err

    def test_rejects_oversized_insertion_count(self, run, tmp_path):
        most = (1 << _FIELD) - 1
        path = tmp_path / "memo.rec"
        path.write_text("3 0 1,1,2,2 -1/9\n2 0 " + ",".join(["1"] * (most + 1)) + " 1\n")
        code, out, err = run("cache", "--path", str(path))
        assert (code, out) == (3, "")
        assert f"memo.rec:2: at most {most} insertions are supported" in err

    def test_rejects_wrong_degree(self, run, tmp_path):
        path = tmp_path / "memo.rec"
        path.write_text("3 1 1,1,2,2 -1/9\n")
        code, _, err = run("cache", "--path", str(path))
        assert code == 3
        assert "not forced" in err

    def test_rejects_value_conflicting_with_constants(self, run, tmp_path):
        path = tmp_path / "memo.rec"
        path.write_text("3 0 1,1,1 1/2\n")
        code, _, err = run("cache", "--path", str(path))
        assert code == 3
        assert "conflicts" in err

    def test_rejects_conflicting_duplicates(self, run, tmp_path):
        path = tmp_path / "memo.rec"
        path.write_text("3 0 1,1,2,2 -1/9\n3 0 2,2,1,1 -1/8\n")
        code, _, err = run("cache", "--path", str(path))
        assert code == 3
        assert "memo.rec:2" in err

    def test_missing_file_exits_three(self, run, tmp_path):
        code, _, err = run("cache", "--path", str(tmp_path / "absent.rec"))
        assert code == 3
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "argv",
        ["cache --path", "compute --b 3 --insertions 1,1,2,2 --cache"],
        ids=["cache", "compute"],
    )
    def test_non_ascii_file_exits_three(self, run, tmp_path, argv):
        path = tmp_path / "memo.rec"
        path.write_bytes(b"3 0 1,1,2,2 -1/9\n\xff\n")
        code, out, err = run(*argv.split(), str(path))
        assert (code, out) == (3, "")
        assert f"cannot read {path}" in err

    def test_overlong_rational_exits_three(self, run, tmp_path, int_digit_limit):
        path = tmp_path / "memo.rec"
        path.write_text("3 0 1,1,2,2 -1/" + "9" * (int_digit_limit + 1) + "\n")
        code, out, err = run("cache", "--path", str(path))
        assert (code, out) == (3, "")
        assert "memo.rec:1:" in err

    @pytest.mark.parametrize(
        "template", ["{} 0 1,1 1/2", "3 {} 1,1 1/2", "3 0 1,{} 1/2"], ids=["b", "d", "exponent"]
    )
    def test_overlong_integer_exits_three(self, run, tmp_path, int_digit_limit, template):
        path = tmp_path / "memo.rec"
        path.write_text(template.format("9" * (int_digit_limit + 1)) + "\n")
        code, out, err = run("cache", "--path", str(path))
        assert (code, out) == (3, "")
        assert "memo.rec:1: integer of" in err
        assert len(err) < 200  # the field's length, not the field

    @pytest.mark.parametrize(
        "line",
        [
            "+" + "9" * 5000,
            "+" + "9" * 5000 + " 0 1,1 1/2",
            "3 0 1,+" + "9" * 5000 + " 1/2",
            "3 0 1,1 +" + "9" * 5000,
            "3 0 1,1 2/4" + "0" * 3000,
            "3 0 " + "1," * 3000 + "9 1/2",
            "3 0 " + "1," * 2999 + "1 1/2",
        ],
        ids=["one-field", "b", "exponent", "value", "lowest-terms", "range", "degree"],
    )
    def test_malformed_field_echo_is_capped(self, run, tmp_path, line):
        # A long malformed field, or a long rational not in lowest terms,
        # is echoed by its first characters and its length, and so is
        # its line.  A long insertion list that parses but is out of range
        # is refused by the index alone, and one that forces another
        # degree is echoed by its start and its count.
        path = tmp_path / "memo.rec"
        path.write_text(line + "\n")
        code, out, err = run("cache", "--path", str(path))
        assert (code, out) == (3, "")
        assert "memo.rec:1: " in err
        assert len(err) < 300

    def test_corrupt_preload_blocks_compute(self, run, tmp_path):
        path = tmp_path / "memo.rec"
        # A wrong value for a golden key, whose gauged value 9 * (-2/9) is
        # an integer, so no check at load can tell it from a true value.
        path.write_text("3 0 1,1,2,2 -2/9\n")
        code, out, err = run(
            "compute", "--b", "3", "--insertions", "1,1,2,2", "--cache", str(path)
        )
        assert (code, out) == (0, "-2/9\n")  # preload accepts it; the memo short-circuits
        path.write_text("3 0 1,1,2,2 -2/9\n3 0 1,1,2,2 -1/9\n")
        code, _, err = run(
            "compute", "--b", "3", "--insertions", "1,1,2,2", "--cache", str(path)
        )
        assert code == 3
        assert "refusing to store" in err

    def test_rejects_value_with_a_non_integer_gauge(self, run, tmp_path):
        # On P(1,3) a 4-point value at degree 0 is T / 9 with T an
        # integer; -1/8 gives T = -9/8.
        path = tmp_path / "memo.rec"
        path.write_text("# one record\n3 0 1,1,2,2 -1/8\n")
        code, out, err = run("cache", "--path", str(path))
        assert (code, out) == (3, "")
        assert "memo.rec:2:" in err and "not a value of P(1,3)" in err

    @pytest.mark.parametrize(
        "argv",
        [("compute", "--b", "3", "--insertions", "1,1,2,2"), ("table", "--b", "3")],
        ids=["compute", "table"],
    )
    def test_failed_save_prints_nothing(self, run, tmp_path, argv):
        # A command saves before it prints, so one that cannot write its
        # --cache file exits 3 with nothing on stdout and leaves no file.
        code, out, err = run(*argv, "--cache", str(tmp_path / "missing" / "memo.rec"))
        assert (code, out) == (3, "")
        assert "cannot write" in err
        assert list(tmp_path.rglob("*")) == []

    def test_foreign_orders_survive_saves(self, run, tmp_path):
        memo = tmp_path / "memo.rec"
        run("compute", "--b", "2", "--insertions", "1,1,1,1", "--cache", str(memo))
        run("compute", "--b", "3", "--insertions", "1,1,2,2", "--cache", str(memo))
        text = memo.read_text().splitlines()
        assert "2 0 1,1,1,1 -1/4" in text
        assert "3 0 1,1,2,2 -1/9" in text


class TestUsage:
    def test_module_entry_point(self):
        done = _spawn("compute", "--b", "3", "--insertions", "1,1,2,2")
        assert (done.returncode, done.stdout) == (0, "-1/9\n")

    def test_module_entry_point_usage_error(self):
        done = _spawn("compute", "--b", "3", "--insertions", "1,7")
        assert (done.returncode, done.stdout) == (2, "")
        assert "basis index 7 out of range for P(1,3)" in done.stderr

    def test_module_entry_point_file_error(self, tmp_path):
        path = tmp_path / "memo.rec"
        path.write_text("3 0 1,1 2/4\n")
        done = _spawn("cache", "--path", str(path))
        assert (done.returncode, done.stdout) == (3, "")
        assert f"{path}:1: " in done.stderr

    def test_closed_stdout_exits_zero(self):
        """``gwstack table ... | head -1``: the reader leaves, the command
        stops quietly.  The table is about 270 kB, far past what a pipe
        buffers, so the command is still writing when the pipe closes."""
        argv = "table --b 14 --format jsonl"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        with subprocess.Popen(
            [sys.executable, "-m", "gwstack.cli", *argv.split()],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert first.startswith(b'{"b":14,')
        assert (code, err) == (0, b"")

    def test_no_arguments(self, run):
        assert run()[0] == 2

    def test_unknown_subcommand(self, run):
        assert run("tabulate")[0] == 2
