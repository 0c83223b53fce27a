"""Exact small-quantum-ring arithmetic over a finite target datum.

An element of the small quantum ring over Q[q] is a :class:`QRingElem`,
and :func:`qmul` multiplies two by the target's product table.
:func:`specialize` sets q to a rational value, and
:func:`divisor_generation_check` tells whether the divisor classes
generate the ring there; the cohomology ring of P(1,b), at q = 0,
fails it for b >= 2.
The target datum itself lives in :mod:`gwstack.target`; of the CLI
commands only ``ring`` imports this module.  Every coefficient is a
``fractions.Fraction``, or an integer over a common denominator.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .target import ONE, ZERO, TargetData
# bench/workloads.py imports build_p1b and build_p2 from here; this line
# serves it alone, and goes when it imports them from target (ROADMAP item 14).
from .target import build_p1b, build_p2  # noqa: F401


class _QRingFields(NamedTuple):
    coeffs: tuple[tuple[Fraction, ...], ...]


class QRingElem(_QRingFields):
    """An element of the small quantum ring over Q[q].

    ``coeffs[r]`` is the coefficient of basis class r, stored as a
    polynomial in q with ascending powers and no trailing zeros, so that
    structural equality of tuples is equality in the ring.
    """

    __slots__ = ()

    def __new__(cls, coeffs: tuple[tuple[Fraction, ...], ...]) -> "QRingElem":
        trimmed = []
        for p in coeffs:
            while p and not p[-1]:  # only a polynomial ending in a zero is copied
                p = p[:-1]
            trimmed.append(tuple(p))
        return tuple.__new__(cls, (tuple(trimmed),))

    @classmethod
    def _make(cls, iterable) -> "QRingElem":
        # ``_replace`` builds through ``_make``; trim there too.
        return cls(*iterable)


class SpecializedRing(NamedTuple):
    """The quantum ring with q specialized to a fixed rational value.

    ``mult_table[i][j]`` is the coefficient vector of the product of
    basis classes i and j.  At ``lam == 0`` this is the orbifold
    cohomology ring; at nonzero ``lam`` a specialization of the small
    quantum ring.
    """

    lam: Fraction
    mult_table: tuple[tuple[tuple[Fraction, ...], ...], ...]


def basis_element(td: TargetData, index: int) -> QRingElem:
    size = td.basis_size
    if not 0 <= index < size:
        raise ValueError(f"basis index {index} out of range for size {size}")
    rows = [()] * size
    rows[index] = (ONE,)
    return QRingElem(tuple(rows))


def qmul(td: TargetData, u: QRingElem, v: QRingElem) -> QRingElem:
    """Product in the small quantum ring over Q[q].

    Each term c q^dq a_l of a_r * a_s adds q^dq c u_r v_s to a_l's list,
    one product per pair of nonzero coefficients of u_r and v_s.
    """
    size = td.basis_size
    if len(u.coeffs) != size or len(v.coeffs) != size:
        raise ValueError("basis-size mismatch")
    table = td.products
    acc: list[list[Fraction]] = [[] for _ in range(size)]
    v_terms = [(s, len(ps), [(f, bb) for f, bb in enumerate(ps) if bb])
               for s, ps in enumerate(v.coeffs) if ps]
    for r, pr in enumerate(u.coeffs):
        if not pr:
            continue
        u_terms = [(e, a) for e, a in enumerate(pr) if a]
        for s, ps_len, ps in v_terms:
            for dq, l, c in table[r][s]:
                out = acc[l]
                short = dq + len(pr) + ps_len - 1 - len(out)
                if short > 0:
                    out.extend([ZERO] * short)
                for e, a in u_terms:
                    ca = c * a
                    for f, bb in ps:
                        x = ca * bb
                        f += dq + e
                        out[f] = out[f] + x if out[f] else x
    return QRingElem(tuple(map(tuple, acc)))


def specialize(td: TargetData, lam) -> SpecializedRing:
    """The ring with q set to ``lam`` (0 gives orbifold cohomology).

    Equal cells of ``td.products`` are one object, and each distinct
    cell is specialized once, into one vector that exactly the entries
    of ``mult_table`` holding that cell share.  A term c q^dq a_l adds
    c lam^dq to slot l; that product is taken once per distinct (dq,
    coefficient object), and only when dq > 0.  A slot still holding
    ``ZERO`` takes its first term as it is.
    """
    lam = Fraction(lam)
    size = td.basis_size
    cells, index, _, _ = td._product_cells
    scaled: dict[tuple[int, int], Fraction] = {}  # (dq, id(c)) -> c lam^dq
    vecs: list[tuple[Fraction, ...]] = []
    for cell in cells:
        vec = [ZERO] * size
        for dq, l, c in cell:
            if dq:
                x = scaled.get((dq, id(c)))
                if x is None:
                    x = scaled[dq, id(c)] = c * lam**dq
                c = x
            vec[l] = c if vec[l] is ZERO else vec[l] + c
        vecs.append(tuple(vec))
    mult = tuple(tuple(map(vecs.__getitem__, row)) for row in index)
    return SpecializedRing(lam=lam, mult_table=mult)


def divisor_generation_check(td: TargetData, lam) -> bool:
    """Whether the divisor classes generate the ring at q = lam.

    Saturates the span of the identity under multiplication by the
    divisor classes and reports whether it fills the whole ring, free of
    fractions: at lam = p/q each divisor's operator is scaled by den q^top
    (top the top q-degree, den that of ``td.products``' integer terms),
    which leaves the span as it is.  From the identity on, a vector
    independent of the kept rows is kept, with a positive pivot, and its
    products with the divisors are queued, each over its entries' gcd.
    """
    lam = Fraction(lam)
    _, index, ints, _ = td._product_cells
    top = max((cell[-1][0] for cell in ints if cell), default=0)
    scale = [lam.numerator**d * lam.denominator ** (top - d) for d in range(1 + top)]
    columns = [[[(l, c * scale[d]) for d, l, c in ints[row[div]] if scale[d]] for row in index]
               for div in td.divisor_degree]  # each divisor's operator times den q^top
    rows: list[tuple[int, int, dict]] = []  # (pivot column, pivot entry, row's nonzero entries)
    queue = deque([{td.fundamental_index: 1}])
    while queue:
        w = queue.popleft()
        for piv, a, row in rows:
            c = w.get(piv)
            if c:  # w <- (a w - c row) / gcd(a, c) clears column piv
                g = gcd(a, c)
                if a != g:
                    w = {k: x * (a // g) for k, x in w.items()}
                for k, r in row.items():
                    w[k] = w.get(k, 0) - c // g * r
        w = {k: x for k, x in w.items() if x}
        if not w:
            continue
        piv = min(w)
        g = gcd(*w.values()) if w[piv] > 0 else -gcd(*w.values())
        rows.append((piv, w[piv] // g, {k: x // g for k, x in w.items()}))
        if len(rows) == td.basis_size:
            return True
        for column in columns:
            out: dict[int, int] = {}
            for i, v in rows[-1][2].items():
                for l, c in column[i]:
                    out[l] = out.get(l, 0) + v * c
            g = gcd(*out.values()) or 1
            queue.append({l: x // g for l, x in out.items() if x})
    return False
