"""Reconstruction of genus-zero invariants from the 3-point constants.

The engine evaluates an n-point genus-zero invariant by a recursion in
which WDVV associativity is the only nontrivial step:

* two and three insertions read the stored structure constants;
* an identity insertion kills the invariant (n >= 4);
* a divisor insertion comes out as a factor of d times its degree;
* otherwise the insertion of largest orbifold degree is replaced
  through its divisor factorization, and the WDVV relation for the
  4-tuple (third, donor, partner, divisor) is solved for the target
  invariant.  Every other term of the relation has either fewer
  insertions or a larger maximal exponent, so on a power-basis target
  the lexicographic measure (n, b - max exponent) strictly decreases
  along every recursion path.

Degrees are never searched: an n-point invariant vanishes unless the
insertion degrees force sum(orbdeg) = 2 d c1 + 2 dim + 2(n - 3) for a
nonnegative integer d, and that unique d travels with each key.  The
memo is keyed on the sorted insertion tuple alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .ring import TargetData, ZERO

_DONOR_POLICIES = ("next_largest", "smallest")


@dataclass(frozen=True)
class InsertionKey:
    """A fully specified invariant: target id, curve degree, insertions."""

    target: str
    d: int
    insertions: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError(f"degree must be nonnegative, got {self.d}")
        if len(self.insertions) < 2:
            raise ValueError("at least two insertions are required")
        object.__setattr__(self, "insertions", tuple(sorted(self.insertions)))

    @property
    def n(self) -> int:
        return len(self.insertions)


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


class Reconstructor:
    """Evaluates genus-zero invariants of one target, memoized.

    ``donor_policy`` picks the second WDVV slot when a pivot is
    reduced: ``"next_largest"`` (default) takes the insertion of
    second-largest orbifold degree, ``"smallest"`` the smallest one.
    Any valid policy yields the same values; running both is a useful
    consistency check.
    """

    def __init__(self, td: TargetData, donor_policy: str = "next_largest") -> None:
        if donor_policy not in _DONOR_POLICIES:
            raise ValueError(f"unknown donor policy {donor_policy!r}")
        self.td = td
        self.donor_policy = donor_policy
        self.cache: dict[tuple[int, ...], Fraction] = {}
        ginv = td.pairing_inverse
        size = td.basis_size
        self._pairs = tuple(
            (i, j, ginv[i][j])
            for i in range(size)
            for j in range(size)
            if ginv[i][j]
        )
        self._degree = td.grading.degree  # bound once: _wdvv_sum's inner loop

    # -- public evaluation ---------------------------------------------------

    def gw(self, insertions) -> Fraction:
        """The invariant at the degree forced by the insertions (else 0)."""
        ins = self._normalize(insertions)
        d = self.td.grading.forced(ins)
        if d is None:
            return ZERO
        return self._eval(ins, d)

    def gw_at(self, insertions, d: int) -> Fraction:
        """The invariant at an explicit degree; 0 unless d is forced."""
        ins = self._normalize(insertions)
        if d != self.td.grading.forced(ins):
            return ZERO
        return self._eval(ins, d)

    def wdvv_residual(
        self, g1: int, g2: int, g3: int, g4: int, deltas=(), beta3: int = 0
    ) -> Fraction:
        """Difference of the two WDVV contractions; always 0 in a
        consistent theory.

        Both sides sum over splittings of ``deltas`` and over curve
        degrees adding up to ``beta3``, contracted through the inverse
        pairing; the second side swaps g2 and g3.
        """
        if beta3 < 0:
            raise ValueError(f"total degree must be nonnegative, got {beta3}")
        fixed = (g1, g2, g3, g4)
        deltas = tuple(deltas)
        self._check_indices(fixed + deltas)
        return self._wdvv_sum(g1, g2, g3, g4, deltas, beta3) - self._wdvv_sum(
            g1, g3, g2, g4, deltas, beta3
        )

    def enumerate_nonzero(
        self,
        max_n: Optional[int] = None,
        max_d: Optional[int] = None,
        include_divisor: bool = False,
    ) -> Iterator[tuple[InsertionKey, Fraction]]:
        """All nonzero invariants with more than three insertions.

        Only non-identity insertions are considered: by the identity
        axiom every invariant with n >= 4 and an identity insertion is
        0.  Without ``include_divisor`` only the twisted classes
        (exponents 1..b-1) are used; the support is then finite and
        fully enumerated even with no caps.  Allowing divisor insertions
        makes the search space infinite, so both ``max_n`` and ``max_d``
        become mandatory.
        """
        td = self.td
        b = td.power_basis
        if b is None:
            raise ValueError(f"{td.id} has no power basis to enumerate over")
        if include_divisor and (max_n is None or max_d is None):
            raise ValueError(
                "max_n and max_d are required when divisor insertions are included"
            )
        hi = b if include_divisor else b - 1
        if hi < 1:
            return
        grading = td.grading
        d = 0
        while True:
            if max_d is not None and d > max_d:
                return
            if include_divisor:
                n_cap = max_n
            else:
                n_cap = 2 * b - d * (b + 1)
                if n_cap < 4:
                    return
                if max_n is not None:
                    n_cap = min(n_cap, max_n)
            for n in range(4, n_cap + 1):
                # On a power basis weights[k] == k, so this is the
                # exponent sum the degree axiom forces.
                total = grading.c1 * d + grading.dim + grading.scale * (n - 3)
                for key in _bounded_multisets(n, 1, hi, total):
                    value = self._eval(key, d)
                    if value:
                        yield InsertionKey(td.id, d, key), value
            d += 1

    # -- cache persistence ---------------------------------------------------

    def preload(self, entries: Iterable[tuple[int, tuple[int, ...], Fraction]]):
        """Seed the memo from ``(d, insertions, value)`` triples.

        Every entry is validated: the degree must be the forced one,
        2- or 3-point entries must agree with the built-in structure
        constants (they are checked, not stored), and a key already in
        the memo must not be re-bound to a different value.
        """
        for d, insertions, value in entries:
            ins = self._normalize(insertions)
            if self.td.grading.forced(ins) != d:
                raise ValueError(
                    f"degree {d} is not forced by insertions {ins} on {self.td.id}"
                )
            if len(ins) == 2:
                known = self.td.base2.get(ins + (d,), ZERO) if d else None
            elif len(ins) == 3:
                known = self.td.base3.get(ins + (d,), ZERO)
            else:
                old = self.cache.setdefault(ins, value)
                if old != value:
                    raise ValueError(
                        f"key {ins} already holds {old}, refusing to store {value}"
                    )
                continue
            if known != value:
                raise ValueError(
                    f"entry {ins} at degree {d} conflicts with the structure "
                    f"constants of {self.td.id}"
                )

    def snapshot(self) -> list[tuple[int, tuple[int, ...], Fraction]]:
        """The memo contents as sorted ``(d, insertions, value)`` triples."""
        out = []
        for ins, value in self.cache.items():
            d = self.td.grading.forced(ins)
            assert d is not None  # only forced keys are ever stored
            out.append((d, ins, value))
        out.sort(key=lambda t: (t[0], len(t[1]), t[1]))
        return out

    # -- internals -----------------------------------------------------------

    def _normalize(self, insertions) -> tuple[int, ...]:
        ins = tuple(sorted(insertions))
        if len(ins) < 2:
            raise ValueError("at least two insertions are required")
        self._check_indices(ins)
        return ins

    def _check_indices(self, indices) -> None:
        size = self.td.basis_size
        for k in indices:
            if not 0 <= k < size:
                raise ValueError(
                    f"basis index {k} out of range for {self.td.id}"
                )

    def _eval(self, ins: tuple[int, ...], d: int) -> Fraction:
        n = len(ins)
        if n == 2:
            if d == 0:
                raise ValueError(
                    "the 2-point invariant at degree 0 is degenerate"
                )
            return self.td.base2.get(ins + (d,), ZERO)
        if n == 3:
            return self.td.base3.get(ins + (d,), ZERO)
        value = self.cache.get(ins)
        if value is None:
            value = self._reduce(ins, d)
            self.cache[ins] = value
        return value

    def _rank(self, k: int):
        return (self.td.orbdeg[k], k)

    def _reduce(self, ins: tuple[int, ...], d: int) -> Fraction:
        td = self.td
        if td.fundamental_index in ins:
            return ZERO
        for div in td.divisor_indices:
            if div in ins:
                rest = list(ins)
                rest.remove(div)
                if d == 0:
                    return ZERO
                return d * td.divisor_degree[div] * self._eval(tuple(rest), d)
        ranked = sorted(ins, key=self._rank, reverse=True)
        pivot = ranked[0]
        step = td.divisor_factorization[pivot]
        rest = ranked[1:]
        donor = rest.pop(-1 if self.donor_policy == "smallest" else 0)
        third = rest.pop(0)
        deltas = tuple(rest)
        beta3 = d + step.shift
        # WDVV for (third, donor, partner, divisor) and total degree
        # beta3: the full split of the donor side is coeff times the
        # target invariant, everything else is strictly smaller in the
        # (n, b - max exponent) measure.
        swapped = self._wdvv_sum(
            third, step.partner, donor, step.divisor, deltas, beta3
        )
        partial = self._wdvv_sum(
            third, donor, step.partner, step.divisor, deltas, beta3, skip_full=True
        )
        return (swapped - partial) / step.coeff

    def _wdvv_sum(
        self,
        x1: int,
        x2: int,
        y1: int,
        y2: int,
        deltas: tuple[int, ...],
        beta3: int,
        skip_full: bool = False,
    ) -> Fraction:
        """One side of the WDVV relation: sum over splits of ``deltas``
        into a left part A (joining x1, x2) and right part B (joining
        y1, y2), contracted through the inverse pairing, over all
        degree splits d1 + d2 = beta3.

        Each factor vanishes unless its degree is the forced one, so
        at most one degree split survives per (A, i, j); the integer
        filters reject everything else before any invariant is
        evaluated.  ``skip_full`` omits the A = deltas split, which is
        the term the pivot reduction solves for.
        """
        w = self.td.grading.weights
        degree = self._degree
        total = ZERO
        m = len(deltas)
        full = (1 << m) - 1
        base_left = w[x1] + w[x2]
        base_right = w[y1] + w[y2]
        for bits in range(full + 1):
            if skip_full and bits == full:
                continue
            left_extra = [deltas[p] for p in range(m) if bits >> p & 1]
            right_extra = [deltas[p] for p in range(m) if not bits >> p & 1]
            lw = base_left + sum(w[k] for k in left_extra)
            rw = base_right + sum(w[k] for k in right_extra)
            nl = 3 + len(left_extra)
            nr = 3 + len(right_extra)
            for i, j, g in self._pairs:
                d1 = degree(lw + w[i], nl)
                if d1 is None or d1 > beta3:
                    continue
                if degree(rw + w[j], nr) != beta3 - d1:
                    continue
                left = self._eval(tuple(sorted((x1, x2, *left_extra, i))), d1)
                if not left:
                    continue
                right = self._eval(
                    tuple(sorted((y1, *right_extra, y2, j))), beta3 - d1
                )
                if not right:
                    continue
                total += g * left * right
        return total


def _bounded_multisets(
    n: int, lo: int, hi: int, total: int
) -> Iterator[tuple[int, ...]]:
    """Nondecreasing n-tuples with entries in [lo, hi] summing to total."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for v in range(lo, hi + 1):
        rest = total - v
        if rest < (n - 1) * v:
            break
        if rest > (n - 1) * hi:
            continue
        for tail in _bounded_multisets(n - 1, v, hi, rest):
            yield (v,) + tail

