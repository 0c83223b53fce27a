"""Reconstruction of genus-zero invariants from the 3-point constants.

The engine evaluates an n-point genus-zero invariant by a recursion in
which WDVV associativity is the only nontrivial step:

* two and three insertions read the structure constants, which the
  memo holds from the start next to the memoized n >= 4 values;
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
memo is therefore keyed on the insertion multiset alone, packed into
one int: class k's count sits in the FIELD-bit field at bit FIELD * k,
so adding or removing an insertion is an integer add.  A key holds at
most 2^FIELD - 1 insertions, which rules out carries between fields;
longer inputs are rejected.  Sorted insertion tuples appear only where
keys enter or leave: ``gw``/``gw_at``/``preload`` input,
``enumerate_nonzero`` rows and ``snapshot()``.  The pivot choice on a
memo miss sorts nothing: it reads the count vector in a class order
fixed when the engine is built (orbifold degree descending, then index
descending), so the insertions come out ranked.

A WDVV side splits the remaining insertions between its two factors.
Insertions repeat (P^2's N_d has 3d - 1 copies of the point class), so
the splits are walked as multisets: a count a_k of the m_k copies of
each class goes left, and the term is weighted by prod C(m_k, a_k),
which gives prod (m_k + 1) splits instead of 2^m subsets.  Each
split's packed key, excess (weight sum minus scale times size), size
and multiplicity are folded from per-class options once per
reduction: both sides of a relation split the same insertions, so
they walk one list, and a factor's key is one integer add away from
the split's.  Degrees stay integers: the excess turns the degree axiom
of each factor into c1 d = base +- excess + weight of its pairing
index, with a base fixed per side, so no degree is solved per split.
The nonzero inverse-pairing entries (i, j) are bucketed by the weight
sum of i and j, which one side's total degree pins, and then by the
weight of i modulo the scaled c1, so each split visits only the
entries that give both factors integer degrees adding up to the total.

The recursion runs on integers.  WDVV is unchanged when the classes, q
or the whole potential are rescaled, and the target's gauge (see
``TargetData.gauge``) picks the rescaling N = alpha r^d T / s^(n-2+d)
that makes the 2- and 3-point constants, the inverse pairing and the
divisor factors integers and each pivot coefficient a sign.  The memo
holds the gauged values T, a WDVV side is one integer sum, a reduction
multiplies by the pivot's sign and a divisor strip by d times the
gauged divisor factor, so nothing divides.  Values become ``Fraction``
only where they leave the engine: ``gw``, ``gw_at``, ``wdvv_residual``,
``enumerate_nonzero`` and ``snapshot()``; ``preload`` gauges what comes
in and rejects a value whose T is not an integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional

from .ring import TargetData, ZERO

_DONOR_POLICIES = ("next_largest", "smallest")

_FIELD = 16  # bits per class in a packed key
_MASK = (1 << _FIELD) - 1
_MAX_INSERTIONS = _MASK  # one field's largest count


def _pack(insertions) -> int:
    """The count vector of ``insertions`` as one int, class k's count in
    bits [FIELD k, FIELD (k + 1))."""
    code = 0
    for k in insertions:
        code += 1 << (_FIELD * k)
    return code


def _unpack(code: int) -> tuple[int, ...]:
    """The sorted insertion tuple whose count vector ``code`` packs."""
    out: list[int] = []
    k = 0
    while code:
        out += [k] * (code & _MASK)
        code >>= _FIELD
        k += 1
    return tuple(out)


class InsertionKey(NamedTuple):
    """A fully specified invariant: curve degree and sorted insertions."""

    d: int
    insertions: tuple[int, ...]


class Reconstructor:
    """Evaluates genus-zero invariants of one target, memoized.

    ``donor_policy`` picks the second WDVV slot when a pivot is
    reduced: ``"next_largest"`` (default) takes the insertion of
    second-largest orbifold degree, ``"smallest"`` the smallest one.
    Any valid policy yields the same values; running both is a useful
    consistency check.

    ``cache``, keyed by packed count vectors (see the module docstring),
    holds the 2- and 3-point constants plus the memoized n >= 4
    invariants, zeros included, as gauged ints: the invariant of a key
    with n insertions at degree d is ``td.gauge.unscale(value, n, d)``.
    ``snapshot()`` gives the n >= 4 values as ``Fraction`` with sorted
    insertion tuples.  Building an engine reads ``td.gauge``, which
    raises ``ValueError`` for a target without an integer form.
    """

    def __init__(self, td: TargetData, donor_policy: str = "next_largest") -> None:
        if donor_policy not in _DONOR_POLICIES:
            raise ValueError(f"unknown donor policy {donor_policy!r}")
        self.td = td
        self.donor_policy = donor_policy
        self.cache: dict[int, int] = {}
        gauge = self._gauge = td.gauge
        # Read on every reduction and WDVV walk, so kept on the engine.
        grading = self._grading = td.grading
        self._fund_shift = _FIELD * td.fundamental_index
        w, c1, degree = grading.weights, grading.c1, grading.degree
        size = td.basis_size
        unit = self._unit = tuple(1 << (_FIELD * k) for k in range(size))
        # The memo starts with the 2- and 3-point constants.  Only those at
        # their forced degree (d > 0 for two points) are read: keys omit d.
        cache = self.cache
        for (i, j, k, d), value in gauge.base3.items():
            if degree(w[i] + w[j] + w[k], 3) == d:
                cache[unit[i] + unit[j] + unit[k]] = value
        for (i, j, d), value in gauge.base2.items():
            if d and degree(w[i] + w[j], 2) == d:
                cache[unit[i] + unit[j]] = value
        # Gauged nonzero inverse-pairing entries (unit[i], unit[j], w[i], g),
        # by w[i] + w[j], which one WDVV side's total degree pins, then by
        # w[i] mod c1, which per split makes d1 an integer.
        buckets = self._buckets = {}
        for i, j, g in gauge.pairing_inverse_entries:
            entry = (unit[i], unit[j], w[i], g)
            by_residue = buckets.setdefault(w[i] + w[j], {})
            by_residue.setdefault(w[i] % c1, []).append(entry)
        # Pivot order: weight (so orbifold degree) descending, then index
        # descending.
        self._order = sorted(range(size), key=lambda k: (w[k], k), reverse=True)
        self._divisors = tuple(gauge.divisor_factor.items())
        self._pivots = {
            t: (step.partner, step.divisor, step.shift, gauge.sign[t])
            for t, step in td.divisor_factorization.items()
        }

    # -- public evaluation ---------------------------------------------------

    def gw(self, insertions) -> Fraction:
        """The invariant at the degree forced by the insertions (else 0)."""
        ins = self._normalize(insertions)
        d = self._grading.forced(ins)
        if d is None:
            return ZERO
        return self._gauge.unscale(self._eval(_pack(ins), len(ins), d), len(ins), d)

    def gw_at(self, insertions, d: int) -> Fraction:
        """The invariant at an explicit degree; 0 unless d is forced."""
        ins = self._normalize(insertions)
        if d != self._grading.forced(ins):
            return ZERO
        return self._gauge.unscale(self._eval(_pack(ins), len(ins), d), len(ins), d)

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
        splits = self._splits(_pack(deltas))
        difference = self._walk(g1, g2, g3, g4, splits, beta3) - self._walk(
            g1, g3, g2, g4, splits, beta3
        )
        return self._gauge.unscale(difference, len(deltas) + 3, beta3)

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
        if max_n is not None and max_n > _MAX_INSERTIONS:
            raise ValueError(f"max_n must be at most {_MAX_INSERTIONS}, got {max_n}")
        hi = b if include_divisor else b - 1
        if hi < 1:
            return
        _, scale, c1, dim = self._grading
        unscale = self._gauge.unscale
        d = 0
        while max_d is None or d <= max_d:
            # On a power basis weights[k] == k; the exponent sum c1 d + dim
            # + scale (n - 3) is at most n hi, so n (scale - hi) <= slack.
            # As hi <= scale, n = 4 is the loosest case; once it fails, stop.
            slack = 3 * scale - c1 * d - dim
            if slack < 4 * (scale - hi):
                return
            n_cap = slack // (scale - hi) if hi < scale else max_n
            if max_n is not None:
                n_cap = min(n_cap, max_n)
            for n in range(4, n_cap + 1):
                total = c1 * d + dim + scale * (n - 3)
                for key in _bounded_multisets(n, 1, hi, total):
                    value = self._eval(_pack(key), n, d)
                    if value:
                        yield InsertionKey(d, key), unscale(value, n, d)
            d += 1

    # -- cache persistence ---------------------------------------------------

    def preload(self, entries: Iterable[tuple[int, tuple[int, ...], Fraction]]):
        """Seed the memo from ``(d, insertions, value)`` triples.

        Every entry is validated: the degree must be the forced one,
        2- or 3-point entries must agree with the structure constants
        (a degree-0 2-point entry is degenerate), a key already in the
        memo must not be re-bound to a different value, and a new value
        must have an integer gauged value (see ``TargetData.gauge``).
        """
        gauge = self._gauge
        for d, insertions, value in entries:
            ins = self._normalize(insertions)
            n = len(ins)
            if self._grading.forced(ins) != d:
                raise ValueError(
                    f"degree {d} is not forced by insertions {ins} on {self.td.id}"
                )
            code = _pack(ins)
            if n > 3:
                old = self.cache.get(code)
                if old is not None:
                    old = gauge.unscale(old, n, d)
                    if old != value:
                        raise ValueError(
                            f"key {ins} already holds {old}, refusing to store {value}"
                        )
                    continue
                gauged = gauge.gauged(value, n, d)
                if gauged is None:
                    raise ValueError(
                        f"{value} is not a value of {self.td.id} at {ins}: its "
                        f"gauged value is not an integer"
                    )
                self.cache[code] = gauged
            elif gauge.unscale(self._eval(code, n, d), n, d) != value:
                raise ValueError(
                    f"entry {ins} at degree {d} conflicts with the structure "
                    f"constants of {self.td.id}"
                )

    def snapshot(self) -> list[tuple[int, tuple[int, ...], Fraction]]:
        """The n >= 4 memo values as sorted ``(d, insertions, value)`` triples."""
        unscale = self._gauge.unscale
        out = []
        for code, value in self.cache.items():
            ins = _unpack(code)
            if len(ins) <= 3:
                continue
            d = self._grading.forced(ins)
            assert d is not None  # only forced keys are ever stored
            out.append((d, ins, unscale(value, len(ins), d)))
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
        if len(indices) > _MAX_INSERTIONS:
            raise ValueError(
                f"at most {_MAX_INSERTIONS} insertions are supported, got {len(indices)}"
            )
        size = len(self._unit)
        for k in indices:
            if not 0 <= k < size:
                raise ValueError(
                    f"basis index {k} out of range for {self.td.id}"
                )

    def _eval(self, code: int, n: int, d: int) -> int:
        value = self.cache.get(code)
        if value is not None:
            return value
        if n > 3:
            value = self.cache[code] = self._reduce(code, n, d)
            return value
        if n == 2 and d == 0:
            raise ValueError("the 2-point invariant at degree 0 is degenerate")
        return 0

    def _reduce(self, code: int, n: int, d: int) -> int:
        if (code >> self._fund_shift) & _MASK:
            return 0
        # Divisor axiom, one divisor per pass of a loop rather than per
        # recursion level, so a long run of divisors costs no stack.  The
        # strip stops at three insertions or at a memoized key; every key
        # passed on the way is then memoized, innermost first.
        stripped = []
        key = code
        while True:
            div, factor = next(
                ((v, f) for v, f in self._divisors if (key >> (_FIELD * v)) & _MASK),
                (None, 0),
            )
            if div is None:
                break
            if d == 0:
                return 0
            stripped.append((key, d * factor))
            key -= self._unit[div]
            n -= 1
            if n == 3 or key in self.cache:
                break
        if stripped:
            value = self._eval(key, n, d)
            for outer, factor in reversed(stripped):
                value = factor * value
                self.cache[outer] = value
            return value
        # The insertions, largest orbifold degree first.
        ranked = [k for k in self._order for _ in range((code >> (_FIELD * k)) & _MASK)]
        pivot = ranked[0]
        if self.donor_policy == "smallest":
            donor, third = ranked[-1], ranked[1]
        else:
            donor, third = ranked[1], ranked[2]
        partner, divisor, shift, sign = self._pivots[pivot]
        unit = self._unit
        splits = self._splits(code - unit[pivot] - unit[donor] - unit[third])
        beta3 = d + shift
        # WDVV for (third, donor, partner, divisor) and total degree
        # beta3: the full split of the donor side is coeff times the
        # target invariant, everything else is strictly smaller in the
        # (n, b - max exponent) measure.  In the gauge coeff is the sign.
        swapped = self._walk(third, partner, donor, divisor, splits, beta3)
        partial = self._walk(third, donor, partner, divisor, splits, beta3, skip_full=True)
        return (swapped - partial) * sign

    def _splits(self, code: int) -> list[tuple[int, int, int, int]]:
        """(code, excess, size, multiplicity) of every multiset split of
        the packed insertions ``code``, folded from the per-class options
        a_k = 0..m_k in ``itertools.product`` order over the classes in
        pivot order; the last one is a = m."""
        w, scale, _, _ = self._grading
        unit = self._unit
        splits = [(0, 0, 0, 1)]
        for k in self._order:
            mk = (code >> (_FIELD * k)) & _MASK
            if mk:
                options = [
                    (a * unit[k], a * (w[k] - scale), a, comb(mk, a))
                    for a in range(mk + 1)
                ]
                splits = [
                    (scode + ocode, excess + oexcess, size + osize, mult * omult)
                    for scode, excess, size, mult in splits
                    for ocode, oexcess, osize, omult in options
                ]
        return splits

    def _walk(
        self,
        x1: int,
        x2: int,
        y1: int,
        y2: int,
        splits: list[tuple[int, int, int, int]],
        beta3: int,
        skip_full: bool = False,
    ) -> int:
        """One side of the WDVV relation: sum over ``splits`` of the
        insertions ``deltas`` (built by ``_splits``) into a left part A
        (joining x1, x2) and right part B (joining y1, y2), contracted
        through the inverse pairing, over all degree splits d1 + d2 =
        beta3.

        Splits that differ only in which copy of a repeated insertion
        goes left give the same term, so the walk is over multisets:
        with m_k copies of class k in ``deltas``, a split is a count
        vector a (0 <= a_k <= m_k copies of k on the left), and its term
        carries the weight prod C(m_k, a_k), the number of subsets of
        ``deltas`` it stands for.  That is prod (m_k + 1) splits rather
        than 2^m.  The split list depends on ``deltas`` alone, so
        ``_reduce`` and ``wdvv_residual`` build it once and walk it for
        both sides of their relation.

        Degrees are integers throughout.  A split carries its excess
        e = weight(A) - scale |A|, so with left_base = w[x1] + w[x2] -
        dim and right_base = w[y1] + w[y2] + e(deltas) - dim the degree
        axiom reads c1 d1 = left_base + e + w[i] and c1 d2 = right_base
        - e + w[j].  Their sum, c1 beta3 = left_base + right_base + w[i]
        + w[j], does not involve the split, so the side visits only the
        inverse-pairing entries with that w[i] + w[j], and per split
        only those whose w[i] makes d1 an integer; d1 is then an exact
        division and d2 = beta3 - d1 needs no check.  At most one degree
        split survives per (A, i, j).
        The factors and g are gauged integers, so the side is one
        integer sum of left * right * g * mult, with a split's
        multiplicity applied once to its partial sum; a zero left factor
        skips the right factor's lookup.  On m deltas the side is a
        gauged value on m + 3 insertions at degree beta3.
        ``skip_full`` omits the split a = m (A = deltas), which is the
        term the pivot reduction solves for.
        """
        w, _, c1, dim = self._grading
        unit = self._unit
        full_code, full_excess, m, _ = splits[-1]
        left_base = w[x1] + w[x2] - dim
        right_base = w[y1] + w[y2] + full_excess - dim
        buckets = self._buckets.get(c1 * beta3 - left_base - right_base)
        if buckets is None:
            return 0
        if skip_full:
            splits = splits[:-1]
        left_code = unit[x1] + unit[x2]
        right_code = unit[y1] + unit[y2] + full_code
        top = c1 * beta3
        cache = self.cache
        total = 0
        for code, excess, size, mult in splits:
            base = left_base + excess
            bucket = buckets.get(-base % c1)
            if bucket is None:
                continue
            nl = 3 + size
            nr = 3 + m - size
            lcode = left_code + code
            rcode = right_code - code
            part = 0
            for ui, uj, wi, g in bucket:
                t = base + wi  # c1 d1
                if t < 0 or t > top:
                    continue
                d1 = t // c1
                key = lcode + ui
                left = cache.get(key)
                if left is None:
                    left = self._eval(key, nl, d1)
                if not left:
                    continue
                key = rcode + uj
                right = cache.get(key)
                if right is None:
                    right = self._eval(key, nr, beta3 - d1)
                if right:
                    part += left * right * g
            if part:
                total += part * mult
        return total


def _bounded_multisets(
    n: int, lo: int, hi: int, total: int
) -> Iterator[tuple[int, ...]]:
    """Nondecreasing n-tuples with entries in [lo, hi] (lo <= hi) summing
    to total, in lexicographic order.  Each level takes c copies of lo,
    most first, for every c that leaves n - c entries in [lo + 1, hi]
    a sum they can reach, so the recursion is hi - lo deep for any n."""
    if lo == hi:
        if n * lo == total:
            yield (lo,) * n
        return
    top = min(n, (n * hi - total) // (hi - lo))
    for c in range(top, max(0, n * (lo + 1) - total) - 1, -1):
        for tail in _bounded_multisets(n - c, lo + 1, hi, total - c * lo):
            yield (lo,) * c + tail
