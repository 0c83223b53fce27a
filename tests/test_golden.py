from __future__ import annotations

from fractions import Fraction

import pytest

from gwstack import (
    GoldenRow,
    InsertionKey,
    golden_rows,
    insertions_from_mults,
    mults_from_insertions,
    verify,
)
from gwstack import golden as golden_mod
from gwstack.golden import ROW_COUNTS, RowResult, VerifyReport, _parse_row
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
        assert row.key() == InsertionKey("P(1,3)", 0, (1, 1, 2, 2))


class TestDataFileGuards:
    def test_checksum_tamper_detected(self, monkeypatch):
        monkeypatch.setattr(golden_mod, "_DATA_SHA256", "0" * 64)
        golden_mod._load_tables.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="checksum"):
                golden_rows(2)
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
        ],
    )
    def test_bad_rows_rejected(self, payload):
        with pytest.raises((RecordError, ValueError)):
            _parse_row(payload, {})


class TestVerify:
    @pytest.mark.parametrize("b", sorted(ROW_COUNTS))
    def test_tables_reproduce(self, b, engines):
        report = verify(b, reconstructor=engines.p1b(b))
        assert report.ok
        assert report.matched == report.total == ROW_COUNTS[b]
        assert report.missing == ()
        assert report.extra == ()
        assert f"{report.total}/{report.total} rows match" in report.render()

    def test_report_flags_consistent_disagreement(self):
        row = GoldenRow(3, 0, (2, 2), F(-1, 9))
        result = RowResult(row, computed=F(-1, 8), recheck=F(-1, 8))
        report = VerifyReport(3, (result,), (), ())
        assert not report.ok
        text = report.render()
        assert "0/1 rows match" in text
        assert "consistently disagrees with the table" in text

    def test_report_flags_self_disagreement(self):
        row = GoldenRow(3, 0, (2, 2), F(-1, 9))
        result = RowResult(row, computed=F(-1, 8), recheck=F(-1, 9))
        report = VerifyReport(3, (result,), (), ())
        text = report.render()
        assert "disagrees with itself" in text

    def test_report_lists_support_gaps(self):
        key = InsertionKey("P(1,3)", 0, (1, 1, 2, 2))
        report = VerifyReport(3, (), (key,), ((key, F(1)),))
        assert not report.ok
        text = report.render()
        assert "never produced" in text
        assert "untabulated" in text
