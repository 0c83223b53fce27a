"""References shared by the test modules, free of the engine's shortcuts:
the degree axiom over the rationals, a plain WDVV side, and the closed
forms for P(1,b) that the ring and the engine are checked against."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional


def forced_degree(td, insertions) -> Optional[int]:
    """The degree axiom solved over the rationals, as a reference for
    ``TargetData.grading``.

    Returns ``None`` when no nonnegative integer degree satisfies
    sum(orbdeg) = 2 d c1 + 2 dim + 2(n - 3).
    """
    ins = tuple(insertions)
    if len(ins) < 2:
        raise ValueError("at least two insertions are required")
    total = sum((td.orbdeg[k] for k in ins), start=Fraction(0))
    d = (total - 2 * td.dim - 2 * (len(ins) - 3)) / (2 * td.c1_degree)
    if d.denominator == 1 and d >= 0:
        return int(d)
    return None


def wdvv_side(rec, x1, x2, y1, y2, deltas, beta3, skip_full=False) -> Fraction:
    """One side of the WDVV relation by the plain walk over all 2^m
    subsets of ``deltas`` and every degree split, each factor evaluated
    through ``rec.gw_at``: a reference for ``Reconstructor._walk``
    that needs no multiplicity weights and no degree filters.

    ``skip_full`` leaves out the subset holding every delta.
    """
    td = rec.td
    ginv = td.pairing_inverse
    total = Fraction(0)
    for on_left in itertools.product((False, True), repeat=len(deltas)):
        if skip_full and all(on_left):
            continue
        left = [k for k, side in zip(deltas, on_left) if side]
        right = [k for k, side in zip(deltas, on_left) if not side]
        for i in range(td.basis_size):
            for j in range(td.basis_size):
                if not ginv[i][j]:
                    continue
                for d1 in range(beta3 + 1):
                    total += (
                        ginv[i][j]
                        * rec.gw_at((x1, x2, *left, i), d1)
                        * rec.gw_at((y1, y2, *right, j), beta3 - d1)
                    )
    return total


def qreduce(b: int, k: int) -> tuple[int, int]:
    """Reduce a generator power: a^k = (q/b)^s a^r with k = s(b+1) + r.

    Returns ``(s, r)`` with 0 <= r <= b.  This is the normal form of the
    relation b a^(b+1) = q in Q[q][a].
    """
    if b < 1:
        raise ValueError(f"b must be positive, got {b}")
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    return divmod(k, b + 1)[0], k % (b + 1)


def e_cut(b: int, l: int) -> int:
    """1 when a twisted pair of exponent sum l pairs below the relation cutoff."""
    if b < 1:
        raise ValueError(f"b must be positive, got {b}")
    if l < 0:
        raise ValueError(f"exponent sum must be nonnegative, got {l}")
    return 0 if l > b else 1


def closed_4pt_deg0(b: int, k1: int, k2: int, k3: int, k4: int) -> Fraction:
    """Closed form for degree-0 4-point invariants of P(1,b).

    Requires 1 <= k_i <= b - 1 and k1 + k2 + k3 + k4 = 2b.  The sum
    runs over the six unordered index pairs.
    """
    ks = (k1, k2, k3, k4)
    if any(k < 1 or k > b - 1 for k in ks):
        raise ValueError(f"exponents must lie in [1, {b - 1}]: {ks}")
    if sum(ks) != 2 * b:
        raise ValueError(f"exponents must sum to {2 * b}: {ks}")
    acc = 0
    for i in range(4):
        for j in range(i + 1, 4):
            l = ks[i] + ks[j]
            acc += (b - l) * e_cut(b, l)
    return Fraction(acc - b, 2 * b * b)


def closed_4pt_deg1(b: int, k1: int, k2: int, k3: int, k4: int) -> Fraction:
    """Closed form for degree-1 4-point invariants of P(1,b): 1/b^3.

    Requires 1 <= k_i <= b and k1 + k2 + k3 + k4 = 3b + 1.
    """
    ks = (k1, k2, k3, k4)
    if any(k < 1 or k > b for k in ks):
        raise ValueError(f"exponents must lie in [1, {b}]: {ks}")
    if sum(ks) != 3 * b + 1:
        raise ValueError(f"exponents must sum to {3 * b + 1}: {ks}")
    return Fraction(1, b**3)
