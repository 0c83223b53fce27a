"""Line-oriented record formats shared by the golden tables and cache files.

Every value travelling through a file is an exact rational written as
``p`` or ``p/q`` in lowest terms with ``q > 0``.  The parser is strict:
a reducible fraction, a zero or negative denominator, a leading ``+``,
or padded digits all reject the line.  Strictness keeps the formats
canonical, so byte-level comparison of two files is a semantic
comparison of their contents.
"""

from __future__ import annotations

import os
import re
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

_RATIONAL = re.compile(r"^(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?$")


class RecordError(ValueError):
    """A malformed record line or rational literal."""


def parse_rational(text: str) -> Fraction:
    """Parse a canonical ``p`` or ``p/q`` literal.

    Rejects anything that ``str`` of a ``Fraction`` would not produce.
    """
    m = _RATIONAL.match(text)
    if m is None:
        raise RecordError(f"malformed rational {text!r}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError as exc:  # more digits than int() converts
        raise RecordError(f"rational of {len(text)} characters: {exc}") from None
    if gcd(abs(num), den) != 1:
        raise RecordError(f"rational {text!r} is not in lowest terms")
    return Fraction(num, den)


@dataclass(frozen=True)
class GWRecord:
    """One computed invariant: target order b, curve degree, insertions, value.

    ``insertions`` is the sorted tuple of basis exponents (0 is the
    identity class, b the untwisted divisor class).
    """

    b: int
    d: int
    insertions: tuple[int, ...]
    value: Fraction

    def __post_init__(self) -> None:
        if self.b < 1:
            raise RecordError(f"b must be positive, got {self.b}")
        if self.d < 0:
            raise RecordError(f"degree must be nonnegative, got {self.d}")
        if len(self.insertions) < 2:
            raise RecordError("a record needs at least two insertions")
        if any(k < 0 or k > self.b for k in self.insertions):
            raise RecordError(
                f"insertion exponents must lie in [0, {self.b}]: {self.insertions}"
            )
        object.__setattr__(self, "insertions", tuple(sorted(self.insertions)))

    def render(self) -> str:
        ks = ",".join(str(k) for k in self.insertions)
        return f"{self.b} {self.d} {ks} {self.value!s}"

    @classmethod
    def parse(cls, line: str) -> "GWRecord":
        fields = line.split()
        if len(fields) != 4:
            raise RecordError(f"expected 4 fields, got {len(fields)}: {line!r}")
        try:
            b = int(fields[0])
            d = int(fields[1])
            ins = tuple(int(k) for k in fields[2].split(","))
        except ValueError as exc:
            raise RecordError(f"malformed record {line!r}: {exc}") from None
        return cls(b, d, ins, parse_rational(fields[3]))


def iter_record_lines(text: str):
    """Yield ``(lineno, payload)`` for non-comment, non-blank lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        payload = raw.split("#", 1)[0].strip()
        if payload:
            yield lineno, payload


def load_records(path: str) -> list[tuple[int, GWRecord]]:
    """Read a record file, returning ``(lineno, record)`` pairs.

    Raises :class:`RecordError` with the offending line number on any
    syntactic problem.  Semantic checks (degree consistency against a
    target) are the caller's job.
    """
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise RecordError(f"cannot read {path}: {exc}") from None
    out = []
    for lineno, payload in iter_record_lines(text):
        try:
            out.append((lineno, GWRecord.parse(payload)))
        except RecordError as exc:
            raise RecordError(f"{path}:{lineno}: {exc}") from None
    return out


def render_records(records) -> str:
    """Records one per line, ordered by (b, d, n, insertions)."""
    ordered = sorted(records, key=lambda r: (r.b, r.d, len(r.insertions), r.insertions))
    return "".join(rec.render() + "\n" for rec in ordered)


def save_records(path: str, records) -> None:
    """Write ``render_records(records)`` to ``path``.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one step, so a failed write leaves the old file
    as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as handle:
            handle.write(render_records(records))
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            os.remove(tmp)
        raise RecordError(f"cannot write {path}: {exc}") from None
