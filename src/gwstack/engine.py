"""Reconstruction of genus-zero invariants from the 3-point constants.

The engine evaluates an n-point genus-zero invariant by a recursion in
which WDVV associativity is the only nontrivial step:

* two and three insertions read the structure constants, which the
  memo holds from the start next to the memoized n >= 4 values;
* an identity insertion kills the invariant (n >= 4);
* divisors are stripped in one step to the twisted part or to three
  insertions, each copy a factor of d times its degree;
* otherwise an insertion of lowest pivot rank (see
  ``TargetData.pivot_rank``) is replaced through its divisor
  factorization partner * divisor = coeff q^shift pivot, and the WDVV
  relation for the 4-tuple (third, donor, partner, divisor) is solved
  for the target invariant.

Termination.  Measure a key by (n, r), lexicographically, with r the
lowest pivot rank among its insertions.  A key with r = 0 holds the
identity (value 0) or divisors, stripped in one step to the twisted
part or to three insertions.  A key with r > 0 is reduced, and every
other term of its relation has fewer than n insertions once divisors
are stripped, except the full split of the contraction that joins the
partner to the third slot: there the pivot gives way to its partner,
of rank r - 1.  So (n, r) strictly decreases along every recursion
path on any target whose partner chains end, whichever two insertions
fill the donor and third slots; ``pivot_rank`` refuses a target with a
chain that cycles.  The rank is b - t for a^t on P(1,b), and k - 1 for
h^k on P^n, whose partner h^(k-1) lies below it.

Degrees are never searched: an n-point invariant vanishes unless the
insertion degrees force sum(orbdeg) = 2 d c1 + 2 dim + 2(n - 3) for a
nonnegative integer d, and that unique d travels with each key.  The
memo is therefore keyed on the insertion multiset alone, packed into
one int: class k's count sits in the FIELD-bit field at bit FIELD * k,
so adding or removing an insertion is an integer add.  A key holds at
most 2^FIELD - 1 insertions, which rules out carries between fields;
longer inputs are rejected.  Sorted insertion tuples appear only where
keys enter or leave: ``gw``/``gw_at``/``preload`` input,
``enumerate_nonzero`` rows and ``snapshot()``.  The slot choice on a
memo miss sorts nothing: it reads the count vector once in a class
order fixed when the engine is built (pivot rank ascending, then
orbifold degree descending, then index descending).

A WDVV relation is the difference of two contractions, each of which
splits the remaining insertions between its two factors; the second
swaps two of the four fixed insertions.  Insertions repeat (P^2's N_d
has 3d - 1 copies of the point class), so the splits are walked as
multisets: a count a_k of the m_k copies of each class goes left, and
the term is weighted by prod C(m_k, a_k), which gives prod (m_k + 1)
splits instead of 2^m subsets.  Each split's packed key, excess (weight
sum minus scale times size), size and multiplicity are folded from
per-class options once per relation, and both contractions are
evaluated in one pass over that list; a factor's key is one integer add
away from the split's.  Degrees stay integers: the excess turns the
degree axiom of each factor into c1 d = base +- excess + weight of its
pairing index, with a base fixed per contraction, so no degree is
solved per split.  The nonzero inverse-pairing entries (i, j) are
bucketed by the weight sum of i and j, which the relation's total
degree pins for both contractions alike, and then by the weight of i
modulo the scaled c1, so each split visits only the entries that give
both factors integer degrees adding up to the total.  A term whose
factor has more than three insertions and holds the identity, or a
divisor at that factor's degree 0, is 0 by the axioms and is skipped
before either factor is looked up, so a relation stores no such key.

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

    The pivot of a reduction is always its first class in pivot order
    (see the module docstring).  The donor comes from the class with the
    fewest copies left once the pivot is removed, and the third WDVV
    slot from the class with the fewest copies left once the donor is
    also removed, ties to the class first in pivot order.  A WDVV
    relation walks prod (m_k + 1) splits of the remaining insertions, so
    removing a copy from the rarest class cuts it the most.  The values
    do not depend on this choice; ``tests/reference.py`` solves each
    WDVV stratum as a linear system, with no reduction rule at all, to
    check them.

    ``cache``, keyed by packed count vectors (see the module docstring),
    holds the 2- and 3-point constants plus each evaluated n >= 4 key,
    and no intermediate strip rows, as gauged ints: the invariant of a
    key with n insertions at degree d is ``td.gauge.unscale(value, n,
    d)``.  Its n >= 4 zeros are the values a WDVV relation or divisor
    strip gave 0, and the identity or divisor-at-degree-0 keys that
    ``gw``, ``gw_at``, ``enumerate_nonzero`` or ``preload`` were given;
    a relation skips such a factor without storing it.  ``snapshot()``
    gives the n >= 4 values as ``Fraction`` with sorted insertion
    tuples.  Building an engine reads ``td.gauge``, which raises
    ``ValueError`` for a target without an integer form or whose quantum
    product is not associative.
    """

    def __init__(self, td: TargetData) -> None:
        self.td = td
        self.cache: dict[int, int] = {}
        gauge = self._gauge = td.gauge
        # Read on every reduction and WDVV walk, so kept on the engine.
        grading = self._grading = td.grading
        w, c1, degree = grading.weights, grading.c1, grading.degree
        size = td.basis_size
        unit = self._unit = tuple(1 << (_FIELD * k) for k in range(size))
        # The count fields of the identity and of the divisors: an n >= 4
        # key with an identity, or a divisor at degree 0, is 0 by that axiom.
        self._identity_field = _MASK * unit[td.fundamental_index]
        self._divisor_fields = sum(_MASK * unit[v] for v in td.divisor_degree)
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
        # by w[i] + w[j], which a relation's total degree pins, then in a
        # list indexed by -w[i] mod c1: a split whose c1 d1 is base + w[i]
        # reads index base mod c1, where every entry makes d1 an integer.
        buckets = self._buckets = {}
        for i, j, g in gauge.pairing_inverse_entries:
            by_residue = buckets.setdefault(w[i] + w[j], [()] * c1)
            by_residue[-w[i] % c1] += ((unit[i], unit[j], w[i], g),)
        # Pivot order: pivot rank ascending, then weight (so orbifold
        # degree) descending, then index descending.
        rank = td.pivot_rank
        self._order = sorted(range(size), key=lambda k: (rank[k], -w[k], -k))
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
        first, second = self._relation(g1, g2, g3, g4, splits, beta3)
        return self._gauge.unscale(first - second, len(deltas) + 3, beta3)

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
            divisors = code & self._divisor_fields
            if code & self._identity_field or divisors and not d:
                value = 0
            elif divisors:
                # Divisor axiom: s copies of divisor v come out as (d f_v)^s,
                # down to the twisted part or to three insertions.
                key, value = code, 1
                for v, factor in self._divisors:
                    s = min((code >> (_FIELD * v)) & _MASK, n - 3)
                    key -= s * self._unit[v]
                    n -= s
                    value *= (d * factor) ** s
                value *= self._eval(key, n, d)
            else:
                value = self._reduce(code, n, d)
            self.cache[code] = value
            return value
        if n == 2 and d == 0:
            raise ValueError("the 2-point invariant at degree 0 is degenerate")
        return 0

    def _reduce(self, code: int, n: int, d: int) -> int:
        pivot, donor, third = self._fewest_copies_slots(code)
        partner, divisor, shift, sign = self._pivots[pivot]
        unit = self._unit
        splits = self._splits(code - unit[pivot] - unit[donor] - unit[third])
        beta3 = d + shift
        # WDVV for (third, partner, donor, divisor) and total degree
        # beta3: the full split of the swapped contraction, which joins
        # third and donor, is coeff times the target invariant, and
        # everything else is strictly smaller in the (n, lowest rank)
        # measure.  In the gauge coeff is the sign.
        first, second = self._relation(
            third, partner, donor, divisor, splits, beta3, skip_full=True
        )
        return (first - second) * sign

    def _fewest_copies_slots(self, code: int) -> tuple[int, int, int]:
        """(pivot, donor, third) of a reduction, in one pass over the
        pivot order: the pivot is the first class present, the donor the
        first with the fewest copies once the pivot is removed, and the
        third the donor's class again if it had at least 2 copies, else
        the first of the other classes with the fewest."""
        pivot = donor = third = -1
        fewest = second = _MAX_INSERTIONS + 1
        for k in self._order:
            c = (code >> (_FIELD * k)) & _MASK
            if not c:
                continue
            if pivot < 0:
                pivot = k
                c -= 1
                if not c:
                    continue
            if c < fewest:
                third, second = donor, fewest
                donor, fewest = k, c
            elif c < second:
                third, second = k, c
        return pivot, donor, (third if fewest == 1 else donor)

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

    def _relation(
        self,
        g1: int,
        g2: int,
        g3: int,
        g4: int,
        splits: list[tuple[int, int, int, int]],
        beta3: int,
        skip_full: bool = False,
    ) -> tuple[int, int]:
        """Both contractions of the WDVV relation for (g1, g2, g3, g4) in
        one pass over ``splits`` (built by ``_splits``) of the insertions
        ``deltas``: ``(first, second)``, where ``first`` joins a left part
        A to g1, g2 and the rest B to g3, g4, ``second`` swaps g2 and g3,
        and each sums over the splits, the inverse pairing and the degree
        splits d1 + d2 = beta3.  ``skip_full`` leaves the split a = m (A =
        deltas) out of ``second``: it is the term the pivot reduction
        solves for.

        Splits that differ only in which copy of a repeated insertion
        goes left give the same term, so the walk is over multisets:
        with m_k copies of class k in ``deltas``, a split is a count
        vector a (0 <= a_k <= m_k copies of k on the left), and its term
        carries the weight prod C(m_k, a_k), the number of subsets of
        ``deltas`` it stands for.  That is prod (m_k + 1) splits rather
        than 2^m.

        Degrees are integers throughout.  A split carries its excess
        e = weight(A) - scale |A|, so with left_base = w of the two left
        slots - dim and right_base = w of the two right slots +
        e(deltas) - dim the degree axiom reads c1 d1 = left_base + e +
        w[i] and c1 d2 = right_base - e + w[j].  Their sum, c1 beta3 =
        left_base + right_base + w[i] + w[j], involves neither the split
        nor the contraction, so the relation reads one inverse-pairing
        bucket, and per split and contraction only the entries whose
        w[i] makes d1 an integer; d1 is then an exact division and d2 =
        beta3 - d1 needs no check.  At most one degree split survives
        per (A, i, j).

        A term is skipped before any lookup when a factor with more than
        three insertions holds the identity, or a divisor at its degree
        0: the axioms make it 0.  The right factor is tested first, and
        a zero left factor skips the right one's lookup.  Three-point
        factors, the left one of a = 0 and the right one of a = m, are
        never skipped.  The factors and g are gauged integers, so each
        contraction is one integer sum; on m deltas it is a gauged value
        on m + 3 insertions at degree beta3.
        """
        w, _, c1, dim = self._grading
        unit = self._unit
        full_code, full_excess, m, _ = splits[-1]
        top = c1 * beta3
        buckets = self._buckets.get(top - w[g1] - w[g2] - w[g3] - w[g4] - full_excess + 2 * dim)
        if buckets is None:
            return 0, 0
        # (left code, right code, left_base, slot) of each contraction.
        sides = (
            (unit[g1] + unit[g2], unit[g3] + unit[g4] + full_code, w[g1] + w[g2] - dim, 0),
            (unit[g1] + unit[g3], unit[g2] + unit[g4] + full_code, w[g1] + w[g3] - dim, 1),
        )
        ident = self._identity_field
        divs = self._divisor_fields
        cache = self.cache
        totals = [0, 0]
        # The axiom masks of each factor: a key that meets its identity
        # mask, or its divisor mask at degree 0, is 0.  Both are 0 while
        # the factor has three insertions.
        lid = ldiv = 0
        rid, rdiv = ident, divs
        for code, excess, size, mult in splits:
            if size == m:
                rid = rdiv = 0
                if skip_full:
                    sides = sides[:1]
            for left_code, right_code, left_base, slot in sides:
                base = left_base + excess
                for ui, uj, wi, g in buckets[base % c1]:
                    t = base + wi  # c1 d1
                    if t < 0 or t > top:
                        continue
                    rkey = right_code - code + uj
                    if rkey & rid or t == top and rkey & rdiv:
                        continue
                    lkey = left_code + code + ui
                    if lkey & lid or not t and lkey & ldiv:
                        continue
                    left = cache.get(lkey)
                    if left is None:
                        left = self._eval(lkey, 3 + size, t // c1)
                    if not left:
                        continue
                    right = cache.get(rkey)
                    if right is None:
                        right = self._eval(rkey, 3 + m - size, beta3 - t // c1)
                    if right:
                        totals[slot] += left * right * g * mult
            lid, ldiv = ident, divs
        return totals[0], totals[1]


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
