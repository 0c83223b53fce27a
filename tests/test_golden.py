from __future__ import annotations

import hashlib
from fractions import Fraction
from importlib import resources

import pytest

from gwstack import Reconstructor, build_p1b, golden_rows, verify
from gwstack import golden as golden_mod
from gwstack.engine import InsertionKey
from gwstack.golden import (
    ROW_COUNTS,
    GoldenRow,
    RowResult,
    VerifyReport,
    _parse_row,
    insertions_from_mults,
    mults_from_insertions,
)
from gwstack.records import RecordError

F = Fraction


class TestMultsHelpers:
    def test_expansion(self):
        assert insertions_from_mults((2, 2)) == (1, 1, 2, 2)
        assert insertions_from_mults((0, 0, 0, 4)) == (4, 4, 4, 4)
        assert insertions_from_mults(()) == ()

    def test_round_trip(self):
        mults = (1, 0, 3, 2)
        assert mults_from_insertions(5, insertions_from_mults(mults)) == mults

    def test_rejects_out_of_band_exponents(self):
        with pytest.raises(ValueError):
            mults_from_insertions(3, (1, 3))  # divisor class has no slot
        with pytest.raises(ValueError):
            mults_from_insertions(3, (0, 1))
        with pytest.raises(ValueError):
            insertions_from_mults((1, -1))


class TestGoldenRows:
    def test_row_counts(self):
        for b, count in ROW_COUNTS.items():
            assert len(golden_rows(b)) == count
        assert sum(ROW_COUNTS.values()) == 81

    def test_unknown_order(self):
        with pytest.raises(ValueError, match="no golden table"):
            golden_rows(7)

    def test_spot_values(self):
        by_key = {(row.d, row.mults): row.value for row in golden_rows(5)}
        assert by_key[(0, (1, 1, 1, 1))] == F(-1, 25)
        assert by_key[(1, (0, 0, 0, 4))] == F(1, 125)
        assert by_key[(0, (0, 0, 0, 10))] == F(-49, 15625)

    def test_rows_are_degree_consistent(self):
        for b in ROW_COUNTS:
            for row in golden_rows(b):
                weighted = sum(i * k for i, k in enumerate(row.mults, start=1))
                assert weighted == row.d * (b + 1) + b * (row.n - 2)
                assert row.n > 3
                assert row.value != 0

    def test_row_accessors(self):
        row = golden_rows(3)[0]
        assert row.label() == "N_0(2,2)"
        assert row.insertions() == (1, 1, 2, 2)
        assert row.key() == InsertionKey(0, (1, 1, 2, 2))


class TestDataFileGuards:
    def test_checksum_tamper_detected(self, monkeypatch):
        monkeypatch.setattr(golden_mod, "_DATA_SHA256", "0" * 64)
        golden_mod._load_tables.cache_clear()
        try:
            with pytest.raises(RecordError, match="checksum"):
                golden_rows(2)
        finally:
            monkeypatch.undo()
            golden_mod._load_tables.cache_clear()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda rows: rows + ["3 -1 2,2 -1/9"],
                r"p1b_tables.dat:100: row N_-1\(2,2\) violates the degree axiom",
            ),
            (lambda rows: rows + ["3 0 two 1"], r"p1b_tables.dat:100: malformed integer 'two'"),
            # a ValueError from the row's own checks gains the line too
            (lambda rows: rows + ["3 0 -1,6 -1/9"], r"p1b_tables.dat:100: negative multiplicity"),
            (lambda rows: rows + [rows[16]], r"p1b_tables.dat:100: duplicate row N_0\(2,2\)"),
            (lambda rows: rows[:-1], r"p1b_tables.dat: expected 46 rows for b=6, found 45"),
        ],
        ids=["negative-degree", "unparsable", "negative-multiplicity", "duplicate", "row-count"],
    )
    def test_loader_guards(self, monkeypatch, edit, message):
        self._load_crafted(monkeypatch, edit, message)

    @pytest.mark.parametrize(
        "template", ["{} 0 2,2 -1/9", "3 {} 2,2 -1/9", "3 0 2,{} -1/9"], ids=["b", "d", "exponent"]
    )
    def test_loader_refuses_overlong_integers(self, monkeypatch, int_digit_limit, template):
        row = template.format("9" * (int_digit_limit + 1))
        message = rf"^p1b_tables.dat:100: integer of {int_digit_limit + 1} characters$"
        self._load_crafted(monkeypatch, lambda rows: rows + [row], message)

    @staticmethod
    def _load_crafted(monkeypatch, edit, message):
        # The loader reads a crafted file under a matching checksum, so
        # each guard after the checksum is reached.
        lines = (resources.files("gwstack.data") / "p1b_tables.dat").read_text().splitlines()
        assert lines[16] == "3 0 2,2 -1/9"  # file line 17
        blob = "".join(line + "\n" for line in edit(lines)).encode("ascii")

        class Files:
            def files(self, package):
                return self

            def joinpath(self, name):
                return self

            def read_bytes(self):
                return blob

        monkeypatch.setattr(resources, "files", Files().files)
        monkeypatch.setattr(golden_mod, "_DATA_SHA256", hashlib.sha256(blob).hexdigest())
        golden_mod._load_tables.cache_clear()
        try:
            with pytest.raises(RecordError, match=message):
                golden_rows(3)
        finally:
            monkeypatch.undo()
            golden_mod._load_tables.cache_clear()

    @pytest.mark.parametrize(
        "payload",
        [
            "3 0 2,2",  # missing value
            "1 0 2 1/2",  # b below 2
            "3 0 2,2,1 -1/9",  # wrong vector length
            "3 0 2,2 0",  # zero value
            "3 0 2,1 -1/9",  # three insertions, off its degree too
            "3 1 2,2 -1/9",  # degree axiom violated
            "3 1 1,1 1/27",  # too few insertions
            "3 0 2,2 -2/18",  # not lowest terms
            # integer fields are as strict as a record file's
            "+3 0 2,2 -1/9",
            "3 00 2,2 -1/9",
            "3 0 2,0_2 -1/9",
        ],
    )
    def test_bad_rows_rejected(self, payload):
        with pytest.raises(RecordError):
            _parse_row(payload, {})


class TestVerify:
    @pytest.mark.parametrize("b", sorted(ROW_COUNTS))
    def test_tables_reproduce(self, b, engines):
        report = verify(b, reconstructor=engines.p1b(b))
        assert report.ok
        assert report.matched == report.total == ROW_COUNTS[b]
        assert report.extra == ()
        assert f"{report.total}/{report.total} rows match" in report.render()

    def test_report_flags_a_mismatch(self):
        row = GoldenRow(3, 0, (2, 2), F(-1, 9))
        report = VerifyReport(3, (RowResult(row, computed=F(-1, 8)),), ())
        assert not report.ok
        assert report.render().splitlines() == [
            "P(1,3): 0/1 rows match",
            "  N_0(2,2): table -1/9, engine -1/8",
        ]

    def test_verify_reads_rows_from_the_engine(self):
        # A wrong N_0(2,2) preloaded into the memo reaches the report
        # through the one enumeration, and so do the two rows that reduce
        # through it.  -1/8 has no integer gauged value on P(1,3), so the
        # memo cannot hold it; -2/9 (gauged -2) stands in.
        rec = Reconstructor(build_p1b(3))
        rec.preload([(0, (1, 1, 2, 2), F(-2, 9))])
        report = verify(3, reconstructor=rec)
        assert not report.ok
        assert report.extra == ()
        assert report.render().splitlines() == [
            "P(1,3): 0/3 rows match",
            "  N_0(2,2): table -1/9, engine -2/9",
            "  N_0(1,4): table 1/27, engine 1/9",
            "  N_0(0,6): table -1/27, engine -1/9",
        ]

    def test_verify_builds_each_target_once(self, monkeypatch, capsys):
        # Loading the table builds the P(1,b) that check its rows' degrees,
        # and verify runs its engines on those same targets.
        from gwstack import cli

        built = []

        def spy(b):
            built.append(b)
            return build_p1b(b)

        monkeypatch.setattr(golden_mod, "build_p1b", spy)
        monkeypatch.setattr(cli, "build_p1b", spy)
        golden_mod._load_tables.cache_clear()
        try:
            assert cli.main(["verify", "--b", "all"]) == 0
        finally:
            monkeypatch.undo()
            golden_mod._load_tables.cache_clear()
        assert built == [2, 3, 4, 5, 6]
        assert capsys.readouterr().out.splitlines()[-1] == "total: 81/81 rows match"

    def test_report_lists_support_gaps(self):
        # A row the enumeration never produced is a mismatch that reads
        # engine 0, and is reported once; a value no row holds is extra.
        rec = Reconstructor(build_p1b(3))
        rec.preload([(0, (1, 1, 2, 2), F(0))])
        report = verify(3, reconstructor=rec)
        assert report.render().splitlines()[:2] == [
            "P(1,3): 0/3 rows match",
            "  N_0(2,2): table -1/9, engine 0",
        ]
        row = GoldenRow(3, 0, (2, 2), F(-1, 9))
        extra = ((InsertionKey(1, (3, 3, 3, 3)), F(1)),)
        report = VerifyReport(3, (RowResult(row, computed=row.value),), extra)
        assert not report.ok
        assert report.render().splitlines() == [
            "P(1,3): 1/1 rows match",
            "  enumeration found an untabulated nonzero invariant (3, 3, 3, 3) at degree 1 = 1",
        ]
