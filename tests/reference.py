"""References shared by the test modules, free of the engine's shortcuts."""

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
    through ``rec.gw_at``: a reference for ``Reconstructor._wdvv_sum``
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
