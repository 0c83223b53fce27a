"""References the benchmark checks outputs against.

Nothing here imports gwstack: every expected value comes from a pinned
file, a classical recursion or a closed form, so a defect in the code
under test cannot hide by agreeing with itself.

* :func:`load_support` -- the P(1,b) tables for b = 2..9, pinned under a
  SHA-256 (the golden rows for b <= 6 and the seed-commit enumeration
  for b = 7..9);
* :func:`kontsevich` -- the Kontsevich-Manin recursion for the P^2
  counts N_d (arXiv:hep-th/9402147);
* :func:`p1b_product` and :func:`x_power` -- the closed forms of the
  quantum product of P(1,b), a^i a^j = (q/b)^s a^r with i + j = s(b+1) + r;
* the renderers that spell out what each CLI subcommand must print.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference" / "p1b_support.txt"
REFERENCE_SHA256 = "456cd52fab3725afb12008731c0d446895c51eb3e3fbed152ecf3cde32213ffb"
ROW_COUNTS = {2: 1, 3: 3, 4: 9, 5: 22, 6: 46, 7: 90, 8: 166, 9: 293}

Support = dict[int, dict[tuple[int, ...], tuple[int, Fraction]]]


def load_support() -> tuple[Support, dict[tuple[int, tuple[int, ...]], int]]:
    """The pinned tables, checksum-verified.

    Returns ``{b: {sorted insertions: (d, value)}}`` for b = 2..9 and
    ``{(b, insertions): work}``, the memo entries a cold evaluation made
    when the tables were pinned: a cost measure for ordering keys.
    """
    blob = REFERENCE.read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != REFERENCE_SHA256:
        raise RuntimeError(f"{REFERENCE} checksum mismatch ({digest})")
    table: Support = {}
    work = {}
    for line in blob.decode("ascii").splitlines():
        if line.startswith("#"):
            continue
        b, d, ins, value, cost = line.split()
        key = tuple(int(k) for k in ins.split(","))
        table.setdefault(int(b), {})[key] = (int(d), Fraction(value))
        work[int(b), key] = int(cost)
    counts = {b: len(rows) for b, rows in table.items()}
    if counts != ROW_COUNTS:
        raise RuntimeError(f"{REFERENCE} row counts {counts} != {ROW_COUNTS}")
    return table, work


def p1b_degree(b: int, insertions) -> int | None:
    """The curve degree the degree axiom forces on P(1,b), or None.

    Exponent k has orbifold degree 2k/b, so sum(k) = d(b+1) + b(n-2).
    """
    d, r = divmod(sum(insertions) - b * (len(insertions) - 2), b + 1)
    return None if r or d < 0 else d


def p1b_value(support: Support, b: int, insertions) -> Fraction:
    """The invariant of P(1,b) at its forced degree, for b <= 9 and n >= 4.

    Zero without a forced degree, with an identity insertion, or with a
    divisor insertion at degree 0 (the divisor axiom's factor d).  The
    pinned tables hold the complete twisted support, so any other
    twisted key is zero too.  Divisor keys of positive degree are
    outside what the tables cover.
    """
    ins = tuple(sorted(insertions))
    d = p1b_degree(b, ins)
    if d is None or 0 in ins or (b in ins and d == 0):
        return Fraction(0)
    if b in ins:
        raise ValueError("divisor insertions at positive degree have no reference")
    return support[b].get(ins, (0, Fraction(0)))[1]


def kontsevich(dmax: int) -> list[int]:
    """N_0..N_dmax, the number of rational plane curves of degree d
    through 3d - 1 general points (N_0 = 0 is a placeholder)."""
    n = [0, 1]
    for d in range(2, dmax + 1):
        total = 0
        for d1 in range(1, d):
            d2 = d - d1
            total += (
                n[d1] * n[d2] * d1 * d1 * d2
                * (d2 * comb(3 * d - 4, 3 * d1 - 2) - d1 * comb(3 * d - 4, 3 * d1 - 1))
            )
        n.append(total)
    return n[: dmax + 1]


def p2_value(counts: list[int], a: int, d: int) -> Fraction:
    """<h^a (h^2)^(3d-1)>_d = d^a N_d by the divisor axiom."""
    return Fraction(d**a * counts[d])


def p1b_product(b: int, lam: Fraction, i: int, j: int) -> tuple[int, Fraction]:
    """a^i a^j at q = lam as ``(r, coefficient)``: (lam/b)^s a^r."""
    s, r = divmod(i + j, b + 1)
    return r, (lam / b) ** s


def x_power(b: int, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """x^k = a^(kb) over Q[q], as QRingElem coefficient polynomials."""
    s, r = divmod(k * b, b + 1)
    coeffs = [()] * (b + 1)
    coeffs[r] = (Fraction(0),) * s + (Fraction(1, b**s),)
    return tuple(coeffs)


def specialized_table(b: int, lam: Fraction):
    """The full multiplication table of P(1,b) at q = lam, as vectors."""
    zero = Fraction(0)
    table = []
    for i in range(b + 1):
        row = []
        for j in range(b + 1):
            r, c = p1b_product(b, lam, i, j)
            vec = [zero] * (b + 1)
            vec[r] = c
            row.append(tuple(vec))
        table.append(tuple(row))
    return tuple(table)


# -- what the CLI must print ---------------------------------------------------


def mults(b: int, insertions) -> tuple[int, ...]:
    """Multiplicity vector (k_1, ..., k_{b-1}) of twisted exponents."""
    counts = [0] * (b - 1)
    for k in insertions:
        counts[k - 1] += 1
    return tuple(counts)


def table_output(support: Support, b: int, fmt: str) -> str:
    rows = support[b]
    if fmt == "jsonl":
        ordered = sorted(rows.items(), key=lambda kv: (kv[1][0], kv[0]))
        lines = [
            json.dumps(
                {"b": b, "d": d, "insertions": list(ins), "value": str(v)},
                separators=(",", ":"),
            )
            for ins, (d, v) in ordered
        ]
    else:
        labelled = sorted(
            (d, mults(b, ins), v)
            for ins, (d, v) in rows.items()
        )
        lines = [f"{d}\t{','.join(map(str, m))}\t{v}" for d, m, v in labelled]
    return "".join(line + "\n" for line in lines)


def verify_output(orders) -> str:
    lines = [f"P(1,{b}): {ROW_COUNTS[b]}/{ROW_COUNTS[b]} rows match" for b in orders]
    if len(orders) > 1:
        total = sum(ROW_COUNTS[b] for b in orders)
        lines.append(f"total: {total}/{total} rows match")
    return "".join(line + "\n" for line in lines)


def ring_output(b: int, lam: Fraction) -> str:
    names = ["1"] + [f"a^{k}" for k in range(1, b)] + ["x"]
    lines = [f"ring P(1,{b}) at q = {lam}"]
    for i in range(b + 1):
        for j in range(i, b + 1):
            r, c = p1b_product(b, lam, i, j)
            term = str(c) if r == 0 else names[r] if c == 1 else f"{c} {names[r]}"
            lines.append(f"{names[i]} * {names[j]} = {term}")
    lines.append(f"generated: {'true' if lam else 'false'}")
    return "".join(line + "\n" for line in lines)


def cache_lines(snapshots) -> list[str]:
    """Record-file lines for ``{b: [(d, insertions, value), ...]}`` in the
    canonical order (b, d, n, insertions)."""
    ordered = sorted(
        (b, d, len(ins), ins, v) for b, rows in snapshots.items() for d, ins, v in rows
    )
    return [f"{b} {d} {','.join(map(str, ins))} {v}" for b, d, _, ins, v in ordered]
