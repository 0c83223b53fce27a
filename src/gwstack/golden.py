"""Golden tables of known invariant values and the verification driver.

The data file ships every known nonzero invariant of P(1,b) for
b = 2..6 with more than three insertions and no divisor or identity
classes, keyed by multiplicity vectors.  :func:`verify` re-enumerates
the full nonzero support from scratch and reads each row's value from
it, so a green report certifies both the values and the completeness
of the table.  The file is guarded by a checksum: a silent edit of the
reference values should fail loudly, not produce a quietly different
baseline.  Its lines are read by the same strict reader as a record
file (``records.read_lines`` and ``records.parse_fields``); only the
row checks of :func:`_parse_row` are its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .engine import InsertionKey, Reconstructor
from .records import RecordError, parse_fields, read_lines
# The table's orders and row counts and the multiplicity-vector converters
# are defined in ring, which the CLI's parser needs anyway, and re-exported
# here beside the rows they describe.
from .ring import (
    ROW_COUNTS,
    TABLE_ORDERS,
    ZERO,
    TargetData,
    build_p1b,
    insertions_from_mults,
    mults_from_insertions,
)

_DATA_NAME = "p1b_tables.dat"
_DATA_SHA256 = "0ba2a34964544be2e83518459645a57a3af16b4bd4533e2ddb4379af45b1433c"


class GoldenRow(NamedTuple):
    """One reference value: N_d(k_1, ..., k_{b-1}) = value."""

    b: int
    d: int
    mults: tuple[int, ...]
    value: Fraction

    @property
    def n(self) -> int:
        return sum(self.mults)

    def insertions(self) -> tuple[int, ...]:
        return insertions_from_mults(self.mults)

    def key(self) -> InsertionKey:
        return InsertionKey(self.d, self.insertions())

    def label(self) -> str:
        return f"N_{self.d}({','.join(str(k) for k in self.mults)})"


def _parse_row(payload: str, targets: dict[int, TargetData]) -> GoldenRow:
    """Parse one row; ``targets`` keeps the P(1,b) that checks its degree."""
    b, d, mults, value = parse_fields(payload)
    if b < 2:
        raise RecordError(f"table rows need b >= 2, got {b}")
    if len(mults) != b - 1:
        raise RecordError(f"multiplicity vector for b={b} needs {b - 1} slots")
    if not value:
        raise RecordError("zero values do not belong in the table")
    row = GoldenRow(b, d, mults, value)
    if row.n <= 3:
        raise RecordError(f"row {row.label()} has too few insertions")
    td = targets.get(b)
    if td is None:
        td = targets[b] = build_p1b(b)
    if td.grading.forced(row.insertions()) != d:
        raise RecordError(f"row {row.label()} violates the degree axiom")
    return row


@lru_cache(maxsize=1)
def _load_tables() -> dict[int, tuple[GoldenRow, ...]]:
    # Here, not at the top, so importing gwstack skips them; on Python 3.12+
    # importlib.resources alone loads inspect, pathlib and tempfile.
    import hashlib
    from importlib import resources

    blob = resources.files("gwstack.data").joinpath(_DATA_NAME).read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != _DATA_SHA256:
        raise RecordError(
            f"golden data checksum mismatch ({digest}); the reference table "
            "was modified without updating golden._DATA_SHA256"
        )
    grouped: dict[int, list[GoldenRow]] = {}
    seen = set()
    targets: dict[int, TargetData] = {}
    for lineno, row in read_lines(_DATA_NAME, blob.decode("ascii"), lambda p: _parse_row(p, targets)):
        if (row.b, row.mults) in seen:
            raise RecordError(f"{_DATA_NAME}:{lineno}: duplicate row {row.label()}")
        seen.add((row.b, row.mults))
        grouped.setdefault(row.b, []).append(row)
    for b, count in ROW_COUNTS.items():
        if len(grouped.get(b, [])) != count:
            raise RecordError(
                f"{_DATA_NAME}: expected {count} rows for b={b}, "
                f"found {len(grouped.get(b, []))}"
            )
    return {b: tuple(rows) for b, rows in grouped.items()}


def golden_rows(b: int) -> tuple[GoldenRow, ...]:
    """The reference rows for one target order, in file order."""
    tables = _load_tables()
    if b not in tables:
        raise ValueError(
            f"no golden table for b={b}; available: {sorted(tables)}"
        )
    return tables[b]


class RowResult(NamedTuple):
    row: GoldenRow
    computed: Fraction

    @property
    def ok(self) -> bool:
        return self.computed == self.row.value


class VerifyReport(NamedTuple):
    b: int
    results: tuple[RowResult, ...]
    extra: tuple[tuple[InsertionKey, Fraction], ...]

    @property
    def matched(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        return self.matched == self.total and not self.extra

    def render(self) -> str:
        lines = [f"P(1,{self.b}): {self.matched}/{self.total} rows match"]
        for r in self.results:
            if not r.ok:
                lines.append(f"  {r.row.label()}: table {r.row.value!s}, engine {r.computed!s}")
        for key, value in self.extra:
            lines.append(
                f"  enumeration found an untabulated nonzero invariant "
                f"{key.insertions} at degree {key.d} = {value!s}"
            )
        return "\n".join(lines)


def verify(b: int, reconstructor: Optional[Reconstructor] = None) -> VerifyReport:
    """Recompute one golden table and re-derive its support.

    The nonzero support is enumerated from the 3-point constants once.
    Each row takes its value from there, and a mismatch reports the row
    with the table's value and the engine's.  No golden value is 0, so a
    row the enumeration never produced is a mismatch that reads "engine
    0"; what the rows leave of the support is ``extra``.  The engine's
    values are checked independently of its reduction rule by the
    WDVV-stratum oracle in the tests, which solves each stratum of
    insertion counts as a linear system.
    """
    rows = golden_rows(b)
    rec = reconstructor if reconstructor is not None else Reconstructor(build_p1b(b))
    found = dict(rec.enumerate_nonzero())
    results = tuple(RowResult(row, found.pop(row.key(), ZERO)) for row in rows)
    return VerifyReport(b=b, results=results, extra=tuple(sorted(found.items())))
