"""Line-oriented record format shared by the golden tables and cache files.

Both files hold ``b d k1,k2,... value`` lines, and both are read here:
:func:`read_lines` numbers the lines and :func:`parse_fields` reads the
four fields of each.  Every value travelling through a file is an exact
rational written as ``p`` or ``p/q`` in lowest terms with ``q > 0``, and
each integer field is written as ``p`` is.  The reader is strict:
a reducible fraction, a zero or negative denominator, a leading ``+``,
or padded digits all reject the line.  Strictness keeps the formats
canonical, so byte-level comparison of two files is a semantic
comparison of their contents.  Only the syntax is checked here; the CLI
and ``Reconstructor.preload`` check what a cache record means.
"""

from __future__ import annotations

import os
import re
from contextlib import suppress
from fractions import Fraction
from math import gcd
from typing import NamedTuple

_INTEGER = re.compile(r"0|-?[1-9][0-9]*")
_RATIONAL = re.compile(rf"^({_INTEGER.pattern})(?:/([1-9][0-9]*))?$")


class RecordError(ValueError):
    """A malformed record line or rational literal."""


def _shown(text: str) -> str:
    """``text`` quoted for an error message, cut to its first 40
    characters and its length if it is longer."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse a canonical ``p`` or ``p/q`` literal.

    Rejects anything that ``str`` of a ``Fraction`` would not produce.
    """
    m = _RATIONAL.match(text)
    if m is None:
        raise RecordError(f"malformed rational {_shown(text)}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError as exc:  # more digits than int() converts
        raise RecordError(f"rational of {len(text)} characters: {exc}") from None
    if gcd(abs(num), den) != 1:
        raise RecordError(f"rational {_shown(text)} is not in lowest terms")
    return Fraction(num, den)


class GWRecord(NamedTuple):
    """One record line: target order b, curve degree, insertions, value.

    A plain row; the CLI and ``Reconstructor.preload`` check its meaning.
    """

    b: int
    d: int
    insertions: tuple[int, ...]
    value: Fraction

    def render(self) -> str:
        ks = ",".join(str(k) for k in self.insertions)
        return f"{self.b} {self.d} {ks} {self.value!s}"


def parse_fields(line: str) -> tuple[int, int, tuple[int, ...], Fraction]:
    """The ``(b, d, ints, value)`` of a ``b d k1,k2,... value`` line."""
    fields = line.split()
    if len(fields) != 4:
        raise RecordError(f"expected 4 fields, got {len(fields)}: {_shown(line)}")
    ints = [fields[0], fields[1], *fields[2].split(",")]
    for text in ints:
        if not _INTEGER.fullmatch(text):
            raise RecordError(f"malformed integer {_shown(text)} in record {_shown(line)}")
    try:
        b, d, *ks = map(int, ints)
    except ValueError:  # more digits than int() converts
        raise RecordError(f"integer of {len(max(ints, key=len))} characters") from None
    return b, d, tuple(ks), parse_rational(fields[3])


def read_lines(name: str, text: str, parse) -> list:
    """``(lineno, parse(payload))`` per non-comment, non-blank line; a
    ``ValueError`` from ``parse`` becomes a ``RecordError`` at ``name:lineno``."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        payload = raw.split("#", 1)[0].strip()
        if payload:
            try:
                out.append((lineno, parse(payload)))
            except ValueError as exc:
                raise RecordError(f"{name}:{lineno}: {exc}") from None
    return out


def load_records(path: str) -> list[tuple[int, GWRecord]]:
    """Read a record file, returning ``(lineno, record)`` pairs.

    Raises :class:`RecordError` with the offending line number on any
    syntactic problem.  Each record's insertions are sorted; semantic
    checks are the caller's job.
    """
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise RecordError(f"cannot read {path}: {exc}") from None
    return read_lines(path, text, _parse_record)


def _parse_record(line: str) -> GWRecord:
    b, d, ks, value = parse_fields(line)
    return GWRecord(b, d, tuple(sorted(ks)), value)


def render_records(records) -> str:
    """One line per ``(b, insertions)`` key, the last record given for it,
    ordered by (b, d, n, insertions)."""
    last = {(r.b, r.insertions): r for r in records}
    ordered = sorted(last.values(), key=lambda r: (r.b, r.d, len(r.insertions), r.insertions))
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
