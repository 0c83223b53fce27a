from __future__ import annotations

import os
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gwstack.records import (
    GWRecord,
    RecordError,
    load_records,
    parse_rational,
    save_records,
)


class TestRational:
    def test_examples(self):
        assert parse_rational("-1/9") == Fraction(-1, 9)
        assert parse_rational("0") == 0
        assert parse_rational("5663/5038848") == Fraction(5663, 5038848)
        assert str(Fraction(-1, 4)) == "-1/4"
        assert str(Fraction(0)) == "0"
        assert str(Fraction(12)) == "12"

    @pytest.mark.parametrize(
        "bad",
        ["2/18", "1/0", "-0", "01", "1/-2", "+1/2", "0.5", "1 /2", "", "a/b", "7/"],
    )
    def test_rejects_noncanonical(self, bad):
        with pytest.raises(RecordError):
            parse_rational(bad)

    @given(st.fractions())
    def test_round_trip(self, value):
        assert parse_rational(str(value)) == value

    @pytest.mark.parametrize("field", ["numerator", "denominator"])
    def test_rejects_overlong_integers(self, int_digit_limit, field):
        digits = "1" * (int_digit_limit + 1)
        text = digits if field == "numerator" else f"1/{digits}"
        with pytest.raises(RecordError, match=f"rational of {len(text)} characters"):
            parse_rational(text)


class TestGWRecord:
    def test_render_parse(self):
        rec = GWRecord(3, 0, (2, 1, 2, 1), Fraction(-1, 9))
        assert rec.insertions == (1, 1, 2, 2)  # normalized on construction
        line = rec.render()
        assert line == "3 0 1,1,2,2 -1/9"
        assert GWRecord.parse(line) == rec

    @pytest.mark.parametrize(
        "fields",
        [
            (0, 0, (1, 1)),  # b not positive
            (3, -1, (1, 1)),  # negative degree
            (3, 0, (2,)),  # single insertion
            (3, 0, (1, 4)),  # exponent above b
            (3, 0, (-1, 1)),  # negative exponent
        ],
    )
    def test_constructor_rejects_bad_fields(self, fields):
        with pytest.raises(RecordError):
            GWRecord(*fields, Fraction(1, 2))
        good = GWRecord(3, 0, (1, 1), Fraction(1, 2))
        with pytest.raises(RecordError):
            good._replace(**dict(zip(("b", "d", "insertions"), fields)))

    def test_replace_sorts_insertions(self):
        rec = GWRecord(3, 0, (1, 2), Fraction(1, 2))
        assert rec._replace(insertions=(3, 1, 2)).insertions == (1, 2, 3)

    def test_parse_rejects_bad_lines(self):
        for line in [
            "3 0 1,1,2,2",  # missing value
            "3 0 1,1,2,2 -1/9 extra",
            "3 -1 1,1,2,2 -1/9",
            "0 0 1,1 1/2",
            "3 0 1,4 1/2",  # exponent above b
            "3 0 2 1/2",  # single insertion
            "3 0 1,x 1/2",
            "3 0 1,1 2/4",
        ]:
            with pytest.raises(RecordError):
                GWRecord.parse(line)

    @given(
        st.integers(1, 9).flatmap(
            lambda b: st.tuples(
                st.just(b),
                st.integers(0, 5),
                st.lists(st.integers(0, b), min_size=2, max_size=8),
                st.fractions(),
            )
        )
    )
    def test_line_round_trip(self, args):
        b, d, ins, value = args
        rec = GWRecord(b, d, tuple(ins), value)
        assert GWRecord.parse(rec.render()) == rec


class TestRecordFiles:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "values.rec"
        records = [
            GWRecord(2, 0, (1, 1, 1, 1), Fraction(-1, 4)),
            GWRecord(3, 1, (3, 3, 3, 3), Fraction(0)),
        ]
        save_records(str(path), records)
        text = path.read_text()
        path.write_text("# header\n\n" + text + "   # trailing comment line\n")
        loaded = load_records(str(path))
        assert [rec for _, rec in loaded] == records

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "values.rec"
        path.write_text("# fine\n2 0 1,1,1,1 -2/8\n")
        with pytest.raises(RecordError, match=r"values\.rec:2"):
            load_records(str(path))

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "values.rec"
        save_records(str(path), [GWRecord(2, 0, (1, 1, 1, 1), Fraction(-1, 4))])
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(RecordError, match="cannot write"):
            save_records(str(path), [GWRecord(3, 0, (1, 1, 2, 2), Fraction(-1, 9))])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["values.rec"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(RecordError, match="cannot read"):
            load_records(str(tmp_path / "absent.rec"))
