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

A WDVV side splits the remaining insertions between its two factors.
Insertions repeat (P^2's N_d has 3d - 1 copies of the point class), so
the splits are walked as multisets: a count a_k of the m_k copies of
each class goes left, and the term is weighted by prod C(m_k, a_k),
which gives prod (m_k + 1) splits instead of 2^m subsets.  The nonzero
inverse-pairing entries (i, j) are bucketed by the weight of i modulo
the scaled c1, so each split visits only the entries whose left factor
has an integer degree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod
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
        grading = td.grading
        ginv = td.pairing_inverse
        size = td.basis_size
        # Nonzero inverse-pairing entries (i, j, g), bucketed by
        # weights[i] mod c1: a left factor has an integer degree only
        # for the i of one bucket.
        self._buckets: dict[int, list[tuple[int, int, Fraction]]] = {}
        for i in range(size):
            for j in range(size):
                if ginv[i][j]:
                    residue = grading.weights[i] % grading.c1
                    self._buckets.setdefault(residue, []).append((i, j, ginv[i][j]))
        self._degree = grading.degree  # bound once: _wdvv_sum's inner loop

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
        # Divisor axiom, one divisor per pass of a loop rather than per
        # recursion level, so a long run of divisors costs no stack.  The
        # strip stops at three insertions or at a memoized key; every key
        # passed on the way is then memoized, innermost first.
        stripped = []
        key = ins
        while True:
            div = next((v for v in td.divisor_indices if v in key), None)
            if div is None:
                break
            if d == 0:
                return ZERO
            stripped.append((key, d * td.divisor_degree[div]))
            rest = list(key)
            rest.remove(div)
            key = tuple(rest)
            if len(key) == 3 or key in self.cache:
                break
        if stripped:
            value = self._eval(key, d)
            for outer, factor in reversed(stripped):
                value = factor * value
                self.cache[outer] = value
            return value
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

        Splits that differ only in which copy of a repeated insertion
        goes left give the same term, so the walk is over multisets:
        with m_k copies of class k in ``deltas``, a split is a count
        vector a (0 <= a_k <= m_k copies of k on the left), and its term
        carries the weight prod C(m_k, a_k), the number of subsets of
        ``deltas`` it stands for.  That is prod (m_k + 1) splits rather
        than 2^m.

        Each factor vanishes unless its degree is the forced one, so
        at most one degree split survives per (A, i, j).  Per split only
        the inverse-pairing bucket whose ``i`` gives the left factor an
        integer degree is visited; the remaining integer filters reject
        everything else before any invariant is evaluated.
        ``skip_full`` omits the split a = m (A = deltas), which is the
        term the pivot reduction solves for.
        """
        grading = self.td.grading
        w = grading.weights
        degree = self._degree
        counts = Counter(deltas)
        kinds = tuple(counts)
        mults = tuple(counts.values())
        base_left = w[x1] + w[x2]
        base_right = w[y1] + w[y2] + sum(w[k] for k in deltas)
        total = ZERO
        for split in product(*(range(mk + 1) for mk in mults)):
            if skip_full and split == mults:
                continue
            multiplicity = prod(map(comb, mults, split))
            left_extra = [k for k, ak in zip(kinds, split) for _ in range(ak)]
            right_extra = [
                k for k, mk, ak in zip(kinds, mults, split) for _ in range(mk - ak)
            ]
            left_weight = sum(w[k] for k in left_extra)
            lw = base_left + left_weight
            rw = base_right - left_weight
            nl = 3 + len(left_extra)
            nr = 3 + len(right_extra)
            # Only w[i] == dim + scale (nl - 3) - lw (mod c1) gives the
            # left factor an integer degree.
            bucket = self._buckets.get(
                (grading.dim + grading.scale * (nl - 3) - lw) % grading.c1, ()
            )
            for i, j, g in bucket:
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
                total += multiplicity * g * left * right
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

