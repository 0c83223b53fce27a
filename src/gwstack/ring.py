"""Exact small-quantum-ring arithmetic over a finite target datum.

A target geometry enters this package as a :class:`TargetData`: a graded
basis of (orbifold) cohomology classes, the intersection pairing, the
divisor classes with their degrees, and the 2- and 3-point genus-zero
structure constants at each curve degree.  Everything else is derived
from these, including the divisor factorization of each basis class
that is neither the identity nor a divisor, which the reconstruction
engine pivots on.  Two constructors are built in,

* :func:`build_p1b` -- the weighted projective line P(1,b), whose
  orbifold cohomology has basis 1, a, a^2, ..., a^(b-1), x where a
  generates the twisted sectors and x = a^b is the untwisted divisor
  class (hyperplane of degree 1/b).  The small quantum ring is
  Q[q][a] / (b a^(b+1) - q).
* :func:`build_p2` -- the projective plane with basis 1, h, h^2, whose
  small quantum ring is Q[q][h] / (h^3 - q).

Everything downstream (the quantum product, specializations at a chosen
value of q, the reconstruction engine) is driven by the datum alone.
All coefficients are ``fractions.Fraction``, apart from the integer
form of the datum that the engine runs on (:class:`Gauge`); no floating
point number appears anywhere in this package.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, NamedTuple, Optional

ZERO = Fraction(0)
ONE = Fraction(1)

Matrix = tuple[tuple[Fraction, ...], ...]


class DivisorStep(NamedTuple):
    """A single-term divisor factorization of one basis class.

    Records that a_partner * a_divisor = coeff q^shift a_target in the
    small quantum ring, i.e. the product table entry
    ``products[partner][divisor]`` is the single term
    ``(shift, target, coeff)``.  The reconstruction engine pivots on
    these records; :attr:`TargetData.divisor_factorization` finds them.
    """

    partner: int
    divisor: int
    shift: int
    coeff: Fraction


class Grading(NamedTuple):
    """The degree axiom of one target in integer arithmetic.

    A nonzero n-point invariant at degree d has insertion degrees with
    sum(orbdeg) = 2 d c1 + 2 dim + 2(n - 3).  With ``scale`` clearing
    every denominator, ``weights[k]`` is orbdeg_k * scale / 2, ``c1``
    and ``dim`` are the scaled c1 degree and dimension, and the axiom
    reads sum(weights) = c1 d + dim + scale (n - 3).  A grading equals
    the plain tuple ``(weights, scale, c1, dim)``.
    """

    weights: tuple[int, ...]
    scale: int
    c1: int
    dim: int

    def degree(self, wsum: int, n: int) -> Optional[int]:
        """The degree forced on n insertions of total weight ``wsum``.

        ``None`` when no nonnegative integer degree satisfies the axiom.
        """
        d, r = divmod(wsum - self.dim - self.scale * (n - 3), self.c1)
        if r or d < 0:
            return None
        return d

    def forced(self, insertions) -> Optional[int]:
        """The unique curve degree allowed for these insertions, if any."""
        ins = tuple(insertions)
        if len(ins) < 2:
            raise ValueError("at least two insertions are required")
        return self.degree(sum(self.weights[k] for k in ins), len(ins))


class Gauge(NamedTuple):
    """The integer form of one target's invariants (``TargetData.gauge``).

    An n-point invariant at degree d is N = alpha r^d T / s^(n - 2 + d):
    s scales the classes, r scales q and alpha the potential, and none
    of them changes WDVV.  The fields hold the gauged 2- and 3-point
    constants (keyed as in ``TargetData``), inverse-pairing entries
    (alpha g / s) and divisor factors (degree times s), all integers,
    and each pivot class's sign coeff s^shift / r^shift, 1 or -1.  A
    reduction only adds and multiplies these, so every gauged value T
    is an integer.
    """

    s: int
    r: Fraction
    alpha: int
    base3: Mapping[tuple[int, int, int, int], int]
    base2: Mapping[tuple[int, int, int], int]
    pairing_inverse_entries: tuple[tuple[int, int, int], ...]
    divisor_factor: Mapping[int, int]
    sign: Mapping[int, int]

    def unscale(self, value: int, n: int, d: int) -> Fraction:
        """The invariant whose gauged value on n insertions at degree d is ``value``."""
        r = self.r
        return Fraction(
            self.alpha * r.numerator**d * value, self.s ** (n - 2 + d) * r.denominator**d
        )

    def gauged(self, value: Fraction, n: int, d: int) -> Optional[int]:
        """The gauged value of the invariant ``value`` on n insertions at
        degree d, or ``None`` if it is not an integer, which no
        invariant of the target has."""
        r = self.r
        t, rest = divmod(
            value.numerator * self.s ** (n - 2 + d) * r.denominator**d,
            value.denominator * self.alpha * r.numerator**d,
        )
        return None if rest else t


class _TargetFields(NamedTuple):
    id: str
    orbdeg: tuple[Fraction, ...]
    dim: Fraction
    c1_degree: Fraction
    fundamental_index: int
    divisor_degree: Mapping[int, Fraction]
    pairing: Matrix
    base3: Mapping[tuple[int, int, int, int], Fraction]
    base2: Mapping[tuple[int, int, int], Fraction]
    basis_names: tuple[str, ...]
    power_basis: Optional[int] = None


class TargetData(_TargetFields):
    """Finite description of one target geometry.

    The fields are immutable: assigning one raises ``AttributeError``,
    and the mapping fields are never mutated after construction.
    Instances compare and hash by identity, since the mapping fields are
    not hashable.  ``_replace`` gives a new instance with some fields
    changed.  The data derived from the fields (``grading``,
    ``pairing_inverse``, ``pairing_inverse_entries``, ``products``,
    ``divisor_factorization``, ``gauge``) is computed on first use and
    cached per instance, so a replaced instance computes its own.
    ``divisor_degree`` maps each divisor class to its degree; every
    consumer takes the divisors in its key order.

    ``power_basis`` is set to b for targets whose basis class k is the
    k-th power of a single degree-lowest generator subject to the
    relation b * a^(b+1) = q; it unlocks enumeration over exponents and
    the multiplicity-vector file formats.  ``None`` otherwise.
    """

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def basis_size(self) -> int:
        return len(self.orbdeg)

    @cached_property
    def grading(self) -> Grading:
        """The degree axiom in integer form."""
        scale = 1
        for f in self.orbdeg:
            scale = lcm(scale, (f / 2).denominator)
        scale = lcm(scale, self.c1_degree.denominator, self.dim.denominator)
        return Grading(
            weights=tuple(int(f * scale / 2) for f in self.orbdeg),
            scale=scale,
            c1=int(self.c1_degree * scale),
            dim=int(self.dim * scale),
        )

    @cached_property
    def pairing_inverse(self) -> Matrix:
        """Inverse of the intersection pairing."""
        return _invert(self.pairing)

    @cached_property
    def pairing_inverse_entries(self) -> tuple[tuple[int, int, Fraction], ...]:
        """The nonzero entries of ``pairing_inverse`` as ``(i, j, g)``, row by row."""
        return tuple(
            (i, j, g) for i, row in enumerate(self.pairing_inverse) for j, g in enumerate(row) if g
        )

    @cached_property
    def products(self) -> tuple:
        """Basis product table by pairing contraction.

        ``products[i][j]`` holds the nonzero terms of a_i * a_j as
        ``(q_degree, basis_index, coeff)`` triples sorted by degree,
        then index, computed from the 3-point constants alone:
        a_i * a_j = sum_d q^d sum_{k,l} <a_i, a_j, a_k>_d g^{kl} a_l.
        One pass over the stored constants: for each distinct k of an
        entry, val * g^{kl} is computed once per nonzero g^{kl} and
        added to the product of the other two indices, which serves
        both orders.  A cell's first term is stored, later ones added.
        """
        size = self.basis_size
        ginv_rows = [[] for _ in range(size)]
        for k, l, g in self.pairing_inverse_entries:
            ginv_rows[k].append((l, g))
        cells: dict[tuple[int, int], dict] = {}
        for (i, j, k, d), val in self.base3.items():
            for m, x, y in {(k, i, j), (j, i, k), (i, j, k)}:
                acc = cells.setdefault((x, y) if x <= y else (y, x), {})
                for l, g in ginv_rows[m]:
                    c = val * g
                    acc[d, l] = acc[d, l] + c if (d, l) in acc else c
        table = [[()] * size for _ in range(size)]
        for (x, y), acc in cells.items():
            table[x][y] = table[y][x] = tuple([(*dl, c) for dl, c in sorted(acc.items()) if c])
        return tuple(map(tuple, table))

    @cached_property
    def divisor_factorization(self) -> dict[int, DivisorStep]:
        """The divisor factorization of each class that is neither the
        identity nor a divisor.

        Class t gets the first (divisor, partner) pair, divisors in
        ``divisor_degree`` order and partners by index, whose product
        ``products[partner][divisor]`` is a single term on t.  A class
        with no such pair means the divisors do not generate the ring
        in this way, and the First Reconstruction Theorem's hypothesis
        fails; ``ValueError`` names the class.
        """
        steps: dict[int, DivisorStep] = {}
        for div in self.divisor_degree:
            for partner, terms in enumerate(self.products):
                if len(terms[div]) == 1:
                    shift, t, coeff = terms[div][0]
                    steps.setdefault(t, DivisorStep(partner, div, shift, coeff))
        out = {}
        for t in range(self.basis_size):
            if t == self.fundamental_index or t in self.divisor_degree:
                continue
            if t not in steps:
                raise ValueError(
                    f"basis class {t} is not a single-term product of a divisor "
                    f"and a basis class, so the divisors do not generate the "
                    f"ring; see divisor_generation_check"
                )
            out[t] = steps[t]
        return out

    @cached_property
    def gauge(self) -> Gauge:
        """The :class:`Gauge`; s = b and r = alpha = 1 on P(1,b).

        s is the lcm of the divisor degrees' denominators, alpha that of
        g / s over the nonzero inverse-pairing entries g, and r is
        |coeff| s of the lowest class whose pivot has q-shift 1, else 1.
        ``ValueError`` names the first pivot sign that is not +-1, or the
        first 2- or 3-point constant whose gauged value is not an
        integer: the engine does not run on such a target.
        """
        s = lcm(*(delta.denominator for delta in self.divisor_degree.values()))
        alpha = lcm(*((g / s).denominator for _, _, g in self.pairing_inverse_entries))
        steps = self.divisor_factorization
        r = next((abs(step.coeff) * s for step in steps.values() if step.shift == 1), ONE)
        sign = {}
        for t, step in steps.items():
            c = step.coeff * Fraction(s, r) ** step.shift
            if c not in (1, -1):
                raise ValueError(
                    f"{self.id}: the pivot of class {t} has sign coeff s^shift / "
                    f"r^shift = {c} with s = {s}, r = {r}, not +-1"
                )
            sign[t] = int(c)
        gauge = Gauge(s, r, alpha, {}, {}, (), {}, sign)

        def integer(key: tuple, value: Fraction) -> int:
            n = len(key) - 1  # key is the sorted insertions, then d
            t = gauge.gauged(value, n, key[-1])
            if t is None:
                raise ValueError(
                    f"{self.id}: the {n}-point constant {key} = {value} has no "
                    f"integer gauged value with s = {s}, r = {r}, alpha = {alpha}"
                )
            return t

        return gauge._replace(
            base3={key: integer(key, v) for key, v in self.base3.items()},
            base2={key: integer(key, v) for key, v in self.base2.items()},
            pairing_inverse_entries=tuple(
                (i, j, int(alpha * g / s)) for i, j, g in self.pairing_inverse_entries
            ),
            divisor_factor={k: int(delta * s) for k, delta in self.divisor_degree.items()},
        )


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
        for p in map(list, coeffs):
            while p and not p[-1]:
                p.pop()
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


# -- target constructors -----------------------------------------------------


def build_p1b(b: int) -> TargetData:
    """Target datum for the weighted projective line P(1,b).

    Basis class k (0 <= k <= b) is a^k of orbifold degree 2k/b; class 0
    is the identity and class b the untwisted divisor x of degree 1/b.
    The nonzero structure constants are

        <a^i, a^j, a^k>_0 = 1/b    when i + j + k = b,
        <a^i, a^j, a^k>_1 = 1/b^2  when i + j + k = 2b + 1,
        <a^i, a^j>_1      = 1/b    when i + j = b + 1,

    and the pairing is eta(a^i, a^j) = 1/b when i + j = b.  Every
    twisted class a^t with 1 <= t <= b - 1 factors through the divisor:
    a^(t+1) * x = (q/b) a^t.
    """
    if not isinstance(b, int) or isinstance(b, bool):
        raise TypeError(f"b must be an int, got {b!r}")
    if b < 1:
        raise ValueError(f"b must be positive, got {b}")
    size = b + 1
    inv_b = Fraction(1, b)
    orbdeg = tuple(Fraction(2 * k, b) for k in range(size))
    pairing = tuple(tuple(inv_b if i + j == b else ZERO for j in range(size)) for i in range(size))
    inv_b2 = inv_b * inv_b
    base3: dict[tuple[int, int, int, int], Fraction] = {}
    for i in range(size):
        for j in range(i, size):
            # At most one of k = b - i - j and k = 2b + 1 - i - j is in [j, b].
            if j <= b - i - j:
                base3[(i, j, b - i - j, 0)] = inv_b
            elif j <= 2 * b + 1 - i - j <= b:
                base3[(i, j, 2 * b + 1 - i - j, 1)] = inv_b2
    base2 = {(i, b + 1 - i, 1): inv_b for i in range(1, (b + 1) // 2 + 1)}
    names = ("1",) + tuple(f"a^{k}" for k in range(1, b)) + ("x",)
    td = TargetData(
        id=f"P(1,{b})",
        orbdeg=orbdeg,
        dim=Fraction(1),
        c1_degree=Fraction(b + 1, b),
        fundamental_index=0,
        divisor_degree={b: inv_b},
        pairing=pairing,
        base3=base3,
        base2=base2,
        basis_names=names,
        power_basis=b,
    )
    validate_target(td)
    return td


def build_p2() -> TargetData:
    """Target datum for the projective plane.

    Basis 1, h, h^2 with h the hyperplane class; the only quantum
    corrections below the reconstruction threshold are
    <h^2, h^2, h>_1 = 1 and <h^2, h^2>_1 = 1 (one line through two
    points), and h^2 factors as h * h = h^2.
    """
    orbdeg = (Fraction(0), Fraction(2), Fraction(4))
    pairing = tuple(
        tuple(ONE if i + j == 2 else ZERO for j in range(3)) for i in range(3)
    )
    base3 = {
        (0, 0, 2, 0): ONE,
        (0, 1, 1, 0): ONE,
        (1, 2, 2, 1): ONE,
    }
    base2 = {(2, 2, 1): ONE}
    td = TargetData(
        id="P2",
        orbdeg=orbdeg,
        dim=Fraction(2),
        c1_degree=Fraction(3),
        fundamental_index=0,
        divisor_degree={1: ONE},
        pairing=pairing,
        base3=base3,
        base2=base2,
        basis_names=("1", "h", "h^2"),
        power_basis=None,
    )
    validate_target(td)
    return td


# -- pairing inversion and structure constants -------------------------------


def _invert(matrix: Matrix) -> Matrix:
    n = len(matrix)
    # Each row of [matrix | identity] keeps only its nonzero entries, so
    # pivot search, division and elimination never touch a zero.
    aug = [{k: a for k, a in enumerate(row) if a} for row in matrix]
    for i, row in enumerate(aug):
        row[n + i] = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if col in aug[r]), None)
        if piv is None:
            raise ValueError("pairing matrix is singular")
        aug[piv], aug[col] = aug[col], {k: a / aug[piv][col] for k, a in aug[piv].items()}
        for r, target in enumerate(aug):
            c = target.get(col)
            if c is not None and r != col:
                for k, a in aug[col].items():
                    v = target.get(k, ZERO) - c * a
                    if v:
                        target[k] = v
                    else:
                        del target[k]
    return tuple(tuple(row.get(n + j, ZERO) for j in range(n)) for row in aug)


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


def _lam_powers(td: TargetData, lam: Fraction) -> list[Fraction]:
    """lam**e for e up to the top q-degree of ``td.products``."""
    return [lam**e for e in range(1 + max((key[3] for key in td.base3), default=0))]


def specialize(td: TargetData, lam) -> SpecializedRing:
    """The ring with q set to ``lam`` (0 gives orbifold cohomology).

    A term c q^dq a_l adds c lam^dq to slot l, multiplied only when
    dq > 0; the first term is stored, later ones added.  The table is
    symmetric, so each unordered pair is specialized once.
    """
    lam = Fraction(lam)
    powers = _lam_powers(td, lam)
    size = td.basis_size
    mult = [[None] * size for _ in range(size)]
    for i, row in enumerate(td.products):
        for j in range(i, size):
            vec = [ZERO] * size
            for dq, l, c in row[j]:
                if dq:
                    c = c * powers[dq]
                vec[l] = vec[l] + c if vec[l] else c
            mult[i][j] = mult[j][i] = tuple(vec)
    return SpecializedRing(lam=lam, mult_table=tuple(map(tuple, mult)))


def divisor_generation_check(td: TargetData, lam) -> bool:
    """Whether the divisor classes generate the ring at q = lam.

    Saturates the span of the identity under multiplication by the
    divisor classes, over exact rationals, and reports whether it fills
    the whole ring.  A breadth-first queue starts at the identity; a
    vector independent of the kept rows is kept as a unit-pivot row of
    its nonzero entries, and its products with the divisors are queued.
    """
    lam = Fraction(lam)
    powers = _lam_powers(td, lam)
    size = td.basis_size
    columns = [
        [[(l, c * powers[dq] if dq else c) for dq, l, c in row[div]] for row in td.products]
        for div in td.divisor_degree
    ]
    rows: list[tuple[int, list]] = []  # (pivot column, unit-pivot row's nonzero (index, entry))
    start = [ZERO] * size
    start[td.fundamental_index] = ONE
    queue = deque([start])
    while queue:
        vec = queue.popleft()
        w = list(vec)
        for piv, row in rows:
            c = w[piv]
            if c:
                for k, r in row:
                    w[k] -= c * r
        piv = next((k for k, a in enumerate(w) if a), None)
        if piv is None:
            continue
        a = w[piv]
        rows.append((piv, [(k, x / a) for k, x in enumerate(w) if x]))
        if len(rows) == size:
            return True
        for column in columns:
            out = [ZERO] * size
            for i, v in enumerate(vec):
                if v:
                    for l, c in column[i]:
                        x = v * c
                        out[l] = out[l] + x if out[l] else x
            queue.append(out)
    return False


# -- construction-time validation --------------------------------------------


def validate_target(td: TargetData) -> None:
    """Check the internal consistency of a target datum.

    Raises ``ValueError`` on the first violation.  Everything here is a
    structural axiom the reconstruction engine relies on: degree
    homogeneity of every stored constant, the identity acting through
    the pairing at degree 0 only (at any basis index), divisor constants
    matching the 2-point data, and a divisor factorization for every
    class that is neither the identity nor a divisor (see
    :attr:`TargetData.divisor_factorization`).
    """
    size = td.basis_size
    fund = td.fundamental_index
    if not 0 <= fund < size:
        raise ValueError("fundamental index out of range")
    if td.orbdeg[fund] != 0:
        raise ValueError("the identity class must sit in degree 0")
    if td.c1_degree <= 0:
        raise ValueError("c1 degree must be positive")
    if len(td.pairing) != size or any(len(row) != size for row in td.pairing):
        raise ValueError("pairing matrix has the wrong shape")
    if tuple(map(tuple, td.pairing)) != tuple(zip(*td.pairing)):
        raise ValueError("pairing matrix is not symmetric")
    td.pairing_inverse  # raises if singular
    for div in td.divisor_degree:
        if div == fund or not 0 <= div < size:
            raise ValueError(f"bad divisor index {div}")
        if td.divisor_degree[div] <= 0:
            raise ValueError(f"divisor {div} needs a positive degree")

    # Degree homogeneity: every stored constant sits at its forced degree.
    degree, weights = td.grading.degree, td.grading.weights
    on_identity = {}
    for (i, j, k, d), val in td.base3.items():
        if not val:
            raise ValueError("zero entries must be omitted from base3")
        if d < 0 or not (0 <= i <= j <= k < size):
            raise ValueError(f"bad base3 key {(i, j, k, d)}")
        if degree(weights[i] + weights[j] + weights[k], 3) != d:
            raise ValueError(f"base3 entry {(i, j, k, d)} violates the degree axiom")
        if fund in (i, j, k):
            on_identity[i, j, k, d] = val
    for (i, j, d), val in td.base2.items():
        if not val:
            raise ValueError("zero entries must be omitted from base2")
        if d < 1 or not (0 <= i <= j < size):
            raise ValueError(f"bad base2 key {(i, j, d)}")
        if degree(weights[i] + weights[j], 2) != d:
            raise ValueError(f"base2 entry {(i, j, d)} violates the degree axiom")

    # The identity pairs classes at degree 0 and does nothing else: the
    # constants on it are exactly <1, a_i, a_j>_0 = eta_ij, eta_ij != 0.
    for key in on_identity:
        if key[3]:
            raise ValueError(f"base3 entry {key} breaks the identity axiom")
    eta = {
        (*sorted((fund, i, j)), 0): g for i, row in enumerate(td.pairing) for j, g in enumerate(row) if g
    }
    if on_identity != eta:
        raise ValueError("identity does not reproduce the pairing at degree 0")

    # Divisor insertions at positive degree reduce to 2-point data.
    for div in td.divisor_degree:
        weight = td.divisor_degree[div]
        for (i, j, k, d), val in td.base3.items():
            if d < 1 or div not in (i, j, k):
                continue
            rest = [i, j, k]
            rest.remove(div)
            if val != d * weight * td.base2.get((*rest, d), ZERO):
                raise ValueError(
                    f"base3 entry {(i, j, k, d)} disagrees with the divisor axiom"
                )
        for (i, j, d), val in td.base2.items():
            key = tuple(sorted((i, j, div))) + (d,)
            if td.base3.get(key, ZERO) != d * weight * val:
                raise ValueError(
                    f"base2 entry {(i, j, d)} disagrees with the divisor axiom"
                )

    td.divisor_factorization  # raises if a class has no divisor factorization
