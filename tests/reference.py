"""Engine-free references shared by the test modules."""

from __future__ import annotations

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
