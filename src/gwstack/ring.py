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

from fractions import Fraction
from functools import cached_property
from itertools import permutations
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


class Grading:
    """The degree axiom of one target in integer arithmetic.

    A nonzero n-point invariant at degree d has insertion degrees with
    sum(orbdeg) = 2 d c1 + 2 dim + 2(n - 3).  With ``scale`` clearing
    every denominator, ``weights[k]`` is orbdeg_k * scale / 2, ``c1``
    and ``dim`` are the scaled c1 degree and dimension, and the axiom
    reads sum(weights) = c1 d + dim + scale (n - 3).

    The engine reads these fields on every WDVV walk, so they are slots,
    which read faster than ``NamedTuple`` fields; they are immutable and
    compare by value.
    """

    __slots__ = ("weights", "scale", "c1", "dim")

    weights: tuple[int, ...]
    scale: int
    c1: int
    dim: int

    def __init__(self, weights: tuple[int, ...], scale: int, c1: int, dim: int) -> None:
        for name, value in zip(self.__slots__, (weights, scale, c1, dim)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Grading")

    def _values(self) -> tuple:
        return (self.weights, self.scale, self.c1, self.dim)

    def __eq__(self, other):
        if type(other) is not Grading:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "Grading(weights=%r, scale=%r, c1=%r, dim=%r)" % self._values()

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
        One pass over the stored constants: each entry contributes to
        the product of every ordered pair it contains, through the
        nonzero entries of one row of the inverse pairing.
        """
        size = self.basis_size
        ginv_rows = [[] for _ in range(size)]
        for k, l, g in self.pairing_inverse_entries:
            ginv_rows[k].append((l, g))
        terms = [[{} for _ in range(size)] for _ in range(size)]
        for key, val in self.base3.items():
            d = key[3]
            for i, j, k in set(permutations(key[:3])):
                acc = terms[i][j]
                for l, g in ginv_rows[k]:
                    acc[d, l] = acc.get((d, l), ZERO) + val * g
        return tuple(
            tuple(tuple((d, l, c) for (d, l), c in sorted(acc.items()) if c) for acc in row)
            for row in terms
        )

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
    if b < 1:
        raise ValueError(f"b must be positive, got {b}")
    size = b + 1
    inv_b = Fraction(1, b)
    orbdeg = tuple(Fraction(2 * k, b) for k in range(size))
    pairing = tuple(
        tuple(inv_b if i + j == b else ZERO for j in range(size))
        for i in range(size)
    )
    base3: dict[tuple[int, int, int, int], Fraction] = {}
    for i in range(size):
        for j in range(i, size):
            for k in range(j, size):
                if i + j + k == b:
                    base3[(i, j, k, 0)] = inv_b
                elif i + j + k == 2 * b + 1:
                    base3[(i, j, k, 1)] = inv_b * inv_b
    base2 = {
        (i, j, 1): inv_b
        for i in range(size)
        for j in range(i, size)
        if i + j == b + 1
    }
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
    aug = [
        list(row) + [ONE if i == j else ZERO for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("pairing matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        row = aug[col]
        scale = row[col]
        # Only the pivot row's nonzero entries are divided and eliminated.
        nonzero = [(k, a / scale) for k, a in enumerate(row) if a]
        for k, a in nonzero:
            row[k] = a
        for r in range(n):
            c = aug[r][col]
            if r != col and c:
                target = aug[r]
                for k, a in nonzero:
                    target[k] -= c * a
    return tuple(tuple(row[n:]) for row in aug)


def basis_element(td: TargetData, index: int) -> QRingElem:
    size = td.basis_size
    if not 0 <= index < size:
        raise ValueError(f"basis index {index} out of range for size {size}")
    rows = [()] * size
    rows[index] = (ONE,)
    return QRingElem(tuple(rows))


def qmul(td: TargetData, u: QRingElem, v: QRingElem) -> QRingElem:
    """Product in the small quantum ring over Q[q].

    Each term c q^dq a_l of a_r * a_s adds q^dq c u_r v_s to a_l's list.
    """
    size = td.basis_size
    if len(u.coeffs) != size or len(v.coeffs) != size:
        raise ValueError("basis-size mismatch")
    table = td.products
    acc: list[list[Fraction]] = [[] for _ in range(size)]
    for r, pr in enumerate(u.coeffs):
        if not pr:
            continue
        for s, ps in enumerate(v.coeffs):
            if not ps:
                continue
            for dq, l, c in table[r][s]:
                out = acc[l]
                short = dq + len(pr) + len(ps) - 1 - len(out)
                if short > 0:
                    out.extend([ZERO] * short)
                for e, a in enumerate(pr, dq):
                    if a:
                        ca = c * a
                        for f, bb in enumerate(ps, e):
                            out[f] += ca * bb
    return QRingElem(tuple(map(tuple, acc)))


def specialize(td: TargetData, lam) -> SpecializedRing:
    """The ring with q set to ``lam`` (0 gives orbifold cohomology)."""
    lam = Fraction(lam)
    table = td.products
    size = td.basis_size
    mult = []
    for i in range(size):
        row = []
        for j in range(size):
            vec = [ZERO] * size
            for dq, l, c in table[i][j]:
                vec[l] += c * lam**dq
            row.append(tuple(vec))
        mult.append(tuple(row))
    return SpecializedRing(lam=lam, mult_table=tuple(mult))


def divisor_generation_check(td: TargetData, lam) -> bool:
    """Whether the divisor classes generate the ring at q = lam.

    Saturates the span of the identity under multiplication by the
    divisor classes, over exact rationals, and reports whether it fills
    the whole ring.
    """
    lam = Fraction(lam)
    table = td.products
    size = td.basis_size

    def times(vec: list[Fraction], div: int) -> list[Fraction]:
        out = [ZERO] * size
        for i, a in enumerate(vec):
            if a:
                for dq, l, c in table[i][div]:
                    out[l] += a * c * lam**dq
        return out

    rows: list[tuple[int, list[Fraction]]] = []  # (pivot column, unit-pivot row)

    def add(vec: list[Fraction]) -> bool:
        w = list(vec)
        for piv, row in rows:
            c = w[piv]
            if c:
                w = [a - c * r for a, r in zip(w, row)]
        for idx, a in enumerate(w):
            if a:
                rows.append((idx, [x / a for x in w]))
                return True
        return False

    start = [ZERO] * size
    start[td.fundamental_index] = ONE
    add(start)
    frontier = [start]
    while frontier and len(rows) < size:
        fresh = []
        for vec in frontier:
            for div in td.divisor_degree:
                prod = times(vec, div)
                if add(prod):
                    fresh.append(prod)
        frontier = fresh
    return len(rows) == size


# -- construction-time validation --------------------------------------------


def validate_target(td: TargetData) -> None:
    """Check the internal consistency of a target datum.

    Raises ``ValueError`` on the first violation.  Everything here is a
    structural axiom the reconstruction engine relies on: degree
    homogeneity of every stored constant, the identity acting through
    the pairing, divisor constants matching the 2-point data, and a
    divisor factorization for every class that is neither the identity
    nor a divisor (see :attr:`TargetData.divisor_factorization`).
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
    for i in range(size):
        for j in range(size):
            if td.pairing[i][j] != td.pairing[j][i]:
                raise ValueError("pairing matrix is not symmetric")
    td.pairing_inverse  # raises if singular
    for div in td.divisor_degree:
        if div == fund or not 0 <= div < size:
            raise ValueError(f"bad divisor index {div}")
        if td.divisor_degree[div] <= 0:
            raise ValueError(f"divisor {div} needs a positive degree")

    # Degree homogeneity: every stored constant sits at its forced degree.
    for (i, j, k, d), val in td.base3.items():
        if not val:
            raise ValueError("zero entries must be omitted from base3")
        if d < 0 or not (0 <= i <= j <= k < size):
            raise ValueError(f"bad base3 key {(i, j, k, d)}")
        if td.grading.forced((i, j, k)) != d:
            raise ValueError(f"base3 entry {(i, j, k, d)} violates the degree axiom")
    for (i, j, d), val in td.base2.items():
        if not val:
            raise ValueError("zero entries must be omitted from base2")
        if d < 1 or not (0 <= i <= j < size):
            raise ValueError(f"bad base2 key {(i, j, d)}")
        if td.grading.forced((i, j)) != d:
            raise ValueError(f"base2 entry {(i, j, d)} violates the degree axiom")

    # The identity pairs classes at degree 0 and does nothing else.
    for (i, j, k, d), val in td.base3.items():
        if i == fund and (d != 0 or val != td.pairing[j][k]):
            raise ValueError(f"base3 entry {(i, j, k, d)} breaks the identity axiom")
    for i in range(size):
        for j in range(size):
            key = tuple(sorted((fund, i, j))) + (0,)
            if td.base3.get(key, ZERO) != td.pairing[i][j]:
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
