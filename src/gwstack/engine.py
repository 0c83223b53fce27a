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
  relation for the 4-tuple (third, partner, donor, divisor) is solved
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
keys enter or leave: ``gw`` and ``preload`` input, ``enumerate_nonzero``
rows and ``snapshot()``.  ``enumerate_nonzero`` never packs a tuple: it
builds the keys of one (n, d) as one list, each with its code, which
grows by one add of c copies of a class as that class's count is
chosen, and the last two classes' counts come in closed form (see
``_bounded_multisets``).  A reduction sorts nothing: ``Plan.counts``
reads the whole count vector in one call, as the code's little-endian
bytes unpacked one FIELD-bit field per class, and one pass over it in
pivot order (pivot rank ascending, then orbifold degree descending,
then index descending) gives its present classes, its slots and its
split list.

A WDVV relation is the difference of two contractions, each of which
splits the remaining insertions between its two factors; the second
swaps two of the four fixed insertions.  Insertions repeat (P^2's N_d
has 3d - 1 copies of the point class), so the splits are walked as
multisets: a count a_k of the m_k copies of each class goes left, and
the term is weighted by prod C(m_k, a_k), which gives prod (m_k + 1)
splits instead of 2^m subsets.  Each split's packed key, excess (weight
sum minus scale times size), size and multiplicity are folded from
per-class options, built once per class and count, and each
contraction is one pass over that list: a factor's key is one integer
add away from the split's, and the excess gives its degree by one exact
division (see ``Reconstructor._relation``).  A factor with more than
three insertions that holds the identity, or a divisor at its degree 0,
is 0 by the axioms.  A relation tests for one only where the memo lacks
the key, and never evaluates or stores it; one in the memo holds 0, as
``gw`` and ``preload`` store it.  Whole contractions drop their
interior splits, where both factors have more than three insertions, at
total degree 0, at total degree 1 when the left slots hold a divisor,
and when any insertion is the identity; the other interior splits read
buckets without the identity.

The recursion runs on integers.  WDVV is unchanged when the classes, q
or the whole potential are rescaled, and the target's gauge (see
:class:`Plan`) picks the rescaling N = alpha r^d T / s^(n-2+d) that
makes the 2- and 3-point constants, the inverse pairing and the
divisor factors integers and each pivot coefficient a sign.  The memo
holds the gauged values T, a WDVV side is one integer sum, a reduction
multiplies by the pivot's sign and a divisor strip by d times the
gauged divisor factor, so nothing divides.  Values become ``Fraction``
only where they leave the engine: ``gw``, ``enumerate_nonzero`` and
``snapshot()``; ``preload`` gauges what comes in and rejects a value
whose T is not an integer.

Everything the engine derives from the target alone, the gauge too,
is one :class:`Plan` (``td.plan``), built once per ``TargetData``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
from math import comb, lcm
from struct import Struct
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .target import ONE, TargetData, ZERO, _noncommuting_triple, validate_target

_FIELD = 16  # bits per class in a packed key
_MASK = (1 << _FIELD) - 1
# The struct code of one field; a width with no code is a KeyError here.
_FIELD_CODE = {8: "B", 16: "H", 32: "I", 64: "Q"}[_FIELD]
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


def _shown_insertions(insertions) -> str:
    """``insertions`` for an error message, cut to 40 characters and their count."""
    text = str(insertions)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(insertions)} insertions)"


class InsertionKey(NamedTuple):
    """A fully specified invariant: curve degree and sorted insertions."""

    d: int
    insertions: tuple[int, ...]


class Plan:
    """The engine's tables for one target (``td.plan``), built once per
    ``TargetData`` that ``validate_target`` accepts and shared by every
    engine on it.  No engine changes them; ``options`` only gains the
    split options of a (class, count) on first use.

    The gauge N = alpha r^d T / s^(n - 2 + d) of the module docstring
    has s the lcm of the divisor degrees' denominators, alpha that of
    g / s over the nonzero inverse-pairing entries g, and r = |coeff| s
    of the lowest class whose pivot has q-shift 1, else 1 (s = b and
    r = alpha = 1 on P(1,b)); :meth:`unscale` and :meth:`gauged` convert
    one value.

    ``unit[k]`` is one copy of class k as a packed key; an n >= 4 key
    that meets ``identity_field``, or ``divisor_fields`` at degree 0,
    is 0 by that axiom.  ``constants`` holds every gauged 2- and 3-point
    constant by packed key (``validate_target`` puts each at its forced
    degree, d > 0 for two points), ``buckets`` the gauged nonzero
    inverse-pairing entries (unit[i], unit[j], w[i], alpha g / s) by
    -w[i] mod c1 (see ``Reconstructor._relation``), ``inner`` the same
    without the entries where i or j is the identity,
    ``divisor_factor`` each divisor's degree times s, ``order`` the pivot
    classes, the only ones a reduced key holds, in pivot order, and
    ``pivots`` each one's (partner, divisor, q-shift, sign coeff s^shift
    / r^shift).  :meth:`counts` reads a key's whole count vector, one
    ``struct`` field per class, which :meth:`scan` walks in ``order``.

    Every inverse-pairing entry has w[i] + w[j] = dim: ``validate_target``
    makes the identity the unit, so the pairing is <1, a_i, a_j>_0, and
    puts that constant at its forced degree.
    """

    __slots__ = (
        "s", "r", "alpha", "grading", "unit", "identity_field", "divisor_fields",
        "constants", "buckets", "inner", "divisor_factor", "order", "pivots", "options",
        "_read", "_width",
    )

    def __init__(self, td: TargetData) -> None:
        """Raises as ``validate_target`` does, then ``ValueError`` naming the
        first pivot sign that is not +-1, then the first 2- or 3-point
        constant with no integer gauged value, then a triple of
        ``target._noncommuting_triple`` (not associative)."""
        validate_target(td)
        steps = td.divisor_factorization
        s = self.s = lcm(*(delta.denominator for delta in td.divisor_degree.values()))
        alpha = self.alpha = lcm(*((g / s).denominator for _, _, g in td.pairing_inverse_entries))
        r = self.r = next((abs(step.coeff) * s for step in steps.values() if step.shift == 1), ONE)
        pivots = self.pivots = {}
        for t, step in steps.items():
            c = step.coeff * Fraction(s, r) ** step.shift
            if c not in (1, -1):
                raise ValueError(
                    f"{td.id}: the pivot of class {t} has sign coeff s^shift / "
                    f"r^shift = {c} with s = {s}, r = {r}, not +-1"
                )
            pivots[t] = (step.partner, step.divisor, step.shift, int(c))
        w, _, c1, _ = self.grading = td.grading
        unit = self.unit = tuple(1 << (_FIELD * k) for k in range(td.basis_size))
        self.identity_field = _MASK * unit[td.fundamental_index]
        self.divisor_fields = sum(_MASK * unit[v] for v in td.divisor_degree)
        constants = self.constants = {}
        for key, value in chain(td.base3.items(), td.base2.items()):
            *ins, d = key
            n = len(ins)
            t = self.gauged(value, n, d)
            if t is None:
                raise ValueError(
                    f"{td.id}: the {n}-point constant {key} = {value} has no "
                    f"integer gauged value with s = {s}, r = {r}, alpha = {alpha}"
                )
            constants[sum(unit[k] for k in ins)] = t
        buckets, inner = self.buckets, self.inner = [()] * c1, [()] * c1
        one = td.fundamental_index
        for i, j, g in td.pairing_inverse_entries:
            entry = ((unit[i], unit[j], w[i], int(alpha * g / s)),)
            buckets[-w[i] % c1] += entry
            if one not in (i, j):
                inner[-w[i] % c1] += entry
        self.divisor_factor = {k: int(delta * s) for k, delta in td.divisor_degree.items()}
        triple = _noncommuting_triple(td)
        if triple is not None:
            raise ValueError(
                f"{td.id}: the quantum product is not associative: (x a_i) a_k != "
                f"(a_i a_k) x at (x, i, k) = {triple}"
            )
        rank = td.pivot_rank
        self.order = tuple(sorted(steps, key=lambda k: (rank[k], -w[k], -k)))
        self.options = {}
        fields = Struct(f"<{td.basis_size}{_FIELD_CODE}")
        self._read, self._width = fields.unpack, fields.size

    def gauge(self, n: int, d: int) -> tuple[int, int]:
        """(num, den) with alpha r^d / s^(n - 2 + d) = num / den: the
        invariant on n insertions at degree d is num T / den."""
        r = self.r
        return self.alpha * r.numerator**d, self.s ** (n - 2 + d) * r.denominator**d

    def unscale(self, value: int, n: int, d: int) -> Fraction:
        """The invariant whose gauged value on n insertions at degree d is ``value``."""
        num, den = self.gauge(n, d)
        return Fraction(num * value, den)

    def gauged(self, value: Fraction, n: int, d: int) -> Optional[int]:
        """The gauged value of the invariant ``value`` on n insertions at
        degree d, or ``None`` if it is not an integer, which no
        invariant of the target has."""
        num, den = self.gauge(n, d)
        t, rest = divmod(value.numerator * den, value.denominator * num)
        return None if rest else t

    def counts(self, code: int) -> tuple[int, ...]:
        """The count vector that ``code`` packs, class k's count at index k,
        read in one call."""
        return self._read(code.to_bytes(self._width, "little"))

    def scan(self, code: int) -> tuple[int, int, int, Sequence[tuple]]:
        """(pivot, donor, third, splits) of the reduction of the packed
        insertions ``code``, from one read of its count vector in pivot
        order.  The pivot is the first class present, the donor the first
        with the fewest copies once the pivot is removed, and the third
        the donor's class again if it had at least 2 copies, else the
        first of the other classes with the fewest.  ``splits`` is
        :meth:`fold` of what is left once the three are removed."""
        classes, counts = [], []
        donor = third = -1  # positions in classes
        fewest = second = _MAX_INSERTIONS + 1
        present = self.counts(code)
        for k in self.order:
            c = present[k]
            if not c:
                continue
            if not counts:
                c -= 1
            classes.append(k)
            counts.append(c)
            if 0 < c < fewest:
                third, second = donor, fewest
                donor, fewest = len(counts) - 1, c
            elif 0 < c < second:
                third, second = len(counts) - 1, c
        third = third if fewest == 1 else donor
        counts[donor] -= 1
        counts[third] -= 1
        return classes[0], classes[donor], classes[third], self.fold(zip(classes, counts))

    def fold(self, counts: Iterable[tuple[int, int]]) -> Sequence[tuple]:
        """(code, excess, size, multiplicity) of every multiset split of m
        copies of each class k, for the ``(k, m)`` in ``counts``: a = 0..m
        copies of each go left, in ``itertools.product`` order over
        ``counts``, so the first split is a = 0 and the last a = m.  The
        options of one class, (a unit[k], a (w[k] - scale), a, C(m, a)),
        are built once per (k, m) and target."""
        splits = None
        for k, m in counts:
            if not m:
                continue
            options = self.options.get((k, m))
            if options is None:
                u, e = self.unit[k], self.grading.weights[k] - self.grading.scale
                options = tuple((a * u, a * e, a, comb(m, a)) for a in range(m + 1))
                self.options[k, m] = options
            splits = options if splits is None else [
                (scode + ocode, excess + oexcess, size + osize, mult * omult)
                for scode, excess, size, mult in splits
                for ocode, oexcess, osize, omult in options
            ]
        return splits or [(0, 0, 0, 1)]  # the one split of nothing


class Reconstructor:
    """Evaluates genus-zero invariants of one target, memoized.

    The slots of a reduction follow one rule (:meth:`Plan.scan`): a
    WDVV relation walks prod (m_k + 1) splits of the remaining
    insertions, so the donor and third come from the rarest classes.
    The values do not depend on this choice; ``tests/reference.py``
    solves each WDVV stratum as a linear system, with no reduction rule
    at all, to check them.

    ``cache``, keyed by packed count vectors (see the module docstring),
    holds the 2- and 3-point constants plus each evaluated n >= 4 key,
    and no intermediate strip rows, as gauged ints: the invariant of a
    key with n insertions at degree d is ``td.plan.unscale(value, n,
    d)``.  Its n >= 4 zeros are the values a WDVV relation or divisor
    strip gave 0, and the identity or divisor-at-degree-0 keys that
    ``gw`` or ``preload`` were given; a relation skips such a factor
    without storing it.  ``snapshot()`` gives the n >= 4 values as
    ``Fraction`` with sorted insertion tuples.  A new engine copies the
    constants of ``td.plan``, built once per target, which raises
    ``ValueError`` as ``validate_target`` does and for a target with no
    integer form or no associative product.
    """

    def __init__(self, td: TargetData) -> None:
        self.td = td
        plan = self._plan = td.plan
        self.cache: dict[int, int] = dict(plan.constants)

    # -- public evaluation ---------------------------------------------------

    def gw(self, insertions, d: Optional[int] = None) -> Fraction:
        """The invariant at the degree forced by the insertions: 0 if they
        force none, or if ``d`` is given and they force another."""
        ins, forced = self._normalize(insertions)
        if forced is None or d not in (None, forced):
            return ZERO
        return self._plan.unscale(self._eval(_pack(ins), len(ins), forced), len(ins), forced)

    def enumerate_nonzero(
        self, max_n: Optional[int] = None
    ) -> Iterator[tuple[InsertionKey, Fraction]]:
        """All nonzero invariants with more than three insertions, each
        twisted (exponent 1..b-1): by the identity axiom an n >= 4 key with
        the identity is 0, and by the divisor axiom one with a divisor is
        (d deg x)^s times a twisted value or a 3-point constant, which
        ``gw`` serves.  The support is finite, so no cap is needed.  Under
        ``max_n`` the memo gains no key of more insertions, as a reduction's
        factors have fewer.  Raises ``ValueError`` on a target with no
        ``power_basis``, or a negative ``max_n`` or one above what one
        packed key holds.
        """
        td = self.td
        b = td.power_basis
        if b is None:
            raise ValueError(f"{td.id} has no power basis to enumerate over")
        if max_n is not None and max_n < 0:
            raise ValueError(f"max_n must be nonnegative, got {max_n}")
        if max_n is not None and max_n > _MAX_INSERTIONS:
            raise ValueError(f"max_n must be at most {_MAX_INSERTIONS}, got {max_n}")
        hi = b - 1
        if hi < 1:
            return
        plan = self._plan
        _, scale, c1, dim = plan.grading
        unit, cache, reduce = plan.unit, self.cache, self._reduce
        for d in count():
            # On a power basis weights[k] == k; the exponent sum c1 d + dim
            # + scale (n - 3) is at most n hi, so n (scale - hi) <= slack.
            # As hi < b <= scale (``power_basis`` holds b <= scale), n = 4
            # is the loosest case; once it fails, stop.
            slack = 3 * scale - c1 * d - dim
            if slack < 4 * (scale - hi):
                return
            n_cap = slack // (scale - hi)
            if max_n is not None:
                n_cap = min(n_cap, max_n)
            for n in range(4, n_cap + 1):
                total = c1 * d + dim + scale * (n - 3)
                num, den = plan.gauge(n, d)
                # Exponents 1..b-1 hold neither the identity (0) nor the
                # divisor (b), and n >= 4: a memo miss is a reduction.
                for key, code in _bounded_multisets(n, 1, hi, total, unit):
                    value = cache.get(code)
                    if value is None:
                        value = cache[code] = reduce(code, n, d)
                    if value:
                        yield InsertionKey(d, key), Fraction(num * value, den)

    # -- cache persistence ---------------------------------------------------

    def preload(self, entries: Iterable[tuple[int, tuple[int, ...], Fraction]]):
        """Seed the memo from ``(d, insertions, value)`` triples.

        Every entry is validated: the degree must be the forced one, an
        entry that ``_eval`` decides without WDVV (2 or 3 points, an
        identity or a divisor; a degree-0 2-point entry is degenerate) or
        finds in the memo must agree with it, and only a new twisted
        value is stored, if its gauged value is an integer (see
        :class:`Plan`).
        """
        plan = self._plan
        for d, insertions, value in entries:
            ins, forced = self._normalize(insertions)
            n = len(ins)
            if forced != d:
                raise ValueError(
                    f"degree {d} is not forced by insertions {_shown_insertions(ins)} "
                    f"on {self.td.id}"
                )
            code = _pack(ins)
            twisted = n > 3 and not code & (plan.identity_field | plan.divisor_fields)
            if twisted and code not in self.cache:
                gauged = plan.gauged(value, n, d)
                if gauged is None:
                    raise ValueError(
                        f"{value} is not a value of {self.td.id} at "
                        f"{_shown_insertions(ins)}: its gauged value is not an integer"
                    )
                self.cache[code] = gauged
                continue
            want = plan.unscale(self._eval(code, n, d), n, d)
            if want == value:
                continue
            if twisted:
                raise ValueError(
                    f"key {_shown_insertions(ins)} already holds {want}, refusing to store {value}"
                )
            if n <= 3:
                source = f"the structure constants of {self.td.id}"
            elif code & plan.identity_field:
                source = "the identity axiom"
            else:
                source = "the divisor axiom"
            raise ValueError(
                f"entry {_shown_insertions(ins)} at degree {d} conflicts with {source}: "
                f"{want}, not {value}"
            )

    def snapshot(self) -> list[tuple[int, tuple[int, ...], Fraction]]:
        """The n >= 4 memo values as sorted ``(d, insertions, value)`` triples."""
        unscale = self._plan.unscale
        out = []
        for code, value in self.cache.items():
            ins = _unpack(code)
            if len(ins) <= 3:
                continue
            d = self._plan.grading.forced(ins)
            assert d is not None  # only forced keys are ever stored
            out.append((d, ins, unscale(value, len(ins), d)))
        out.sort(key=lambda t: (t[0], len(t[1]), t[1]))
        return out

    # -- internals -----------------------------------------------------------

    def _normalize(self, insertions) -> tuple[tuple[int, ...], Optional[int]]:
        """The sorted insertions and the degree they force (``Grading.forced``,
        which also refuses fewer than two)."""
        ins = tuple(sorted(insertions))
        if len(ins) > _MAX_INSERTIONS:
            raise ValueError(
                f"at most {_MAX_INSERTIONS} insertions are supported, got {len(ins)}"
            )
        for k in (ins[0], ins[-1]) if ins else ():
            if not 0 <= k < len(self._plan.unit):
                raise ValueError(f"basis index {k} out of range for {self.td.id}")
        return ins, self._plan.grading.forced(ins)

    def _eval(self, code: int, n: int, d: int) -> int:
        value = self.cache.get(code)
        if value is not None:
            return value
        if n > 3:
            plan = self._plan
            divisors = code & plan.divisor_fields
            if code & plan.identity_field or divisors and not d:
                value = 0
            elif divisors:
                # Divisor axiom: s copies of divisor v come out as (d f_v)^s,
                # down to the twisted part or to three insertions.
                key, value = code, 1
                for v, factor in plan.divisor_factor.items():
                    s = min((code >> (_FIELD * v)) & _MASK, n - 3)
                    key -= s * plan.unit[v]
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
        pivot, donor, third, splits = self._plan.scan(code)
        partner, divisor, shift, sign = self._plan.pivots[pivot]
        # The swapped contraction's full split is sign times the target.
        first, second = self._relation(third, partner, donor, divisor, splits, d + shift)
        return (first - second) * sign

    def _relation(
        self, third: int, partner: int, donor: int, divisor: int, splits: Sequence[tuple], beta3: int
    ) -> tuple[int, int]:
        """Both contractions of the WDVV relation that ``_reduce`` solves,
        for (g1, g2, g3, g4) = (third, partner, donor, divisor), each one
        pass over ``splits`` (built by :meth:`Plan.fold`) of the other
        insertions ``deltas``: ``(first, second)``, where ``first`` joins
        a left part A to g1, g2 and the rest B to g3, g4, ``second`` swaps
        g2 and g3 but leaves out the split a = m (A = deltas), the term the
        reduction solves for, and each sums over the splits, the inverse
        pairing and the degree splits d1 + d2 = beta3.

        beta3 must be the degree at which the relation's weights add up,
        w(g1 .. g4) + w(deltas) = c1 beta3 + dim + scale m, as ``_reduce``
        passes it.  A split carries its excess e = weight(A) - scale |A|,
        and c1 d1 = w of the two left slots - dim + e + w[i]; as w[i] +
        w[j] = dim (see :class:`Plan`), d2 = beta3 - d1 for every entry.
        So per split and contraction only the ``Plan.buckets`` entries
        whose w[i] makes d1 an integer are read; d1 is an exact division.

        A factor with more than three insertions is 0 if it holds the
        identity, or a divisor at its degree 0; the right one holds g4, the
        reduction's divisor, so it is 0 at every d2 = 0.  Such a factor is
        tested for only where the memo lacks its key, and is then skipped,
        never evaluated or stored; one in the memo holds 0, as ``gw`` and
        ``preload`` store it, and adds nothing.  Where they can be, such
        terms are decided once per relation.  On an interior split, 0 < a
        < m, both factors have more than three insertions, so a
        contraction has no interior term at beta3 = 0, or at beta3 = 1 if
        its left slots hold a divisor, or if a slot or a delta is the
        identity; else its interior splits read ``Plan.inner`` and test
        only d1 = 0 and d2 = 0.  The split a = 0 (a three-point left
        factor) and a = m (first contraction only, a three-point right
        factor) read the full bucket and test each entry.  A zero left
        factor skips the right one's lookup.  The factors and g are gauged
        integers, so each contraction is one integer sum; on m deltas it
        is a gauged value on m + 3 insertions at degree beta3.
        """
        plan = self._plan
        w, _, c1, dim = plan.grading
        unit, buckets, inner_buckets = plan.unit, plan.buckets, plan.inner
        full_code, full_excess, m, _ = splits[-1]
        top = c1 * beta3
        cache, ev = self.cache, self._eval
        ident, divs = plan.identity_field, plan.divisor_fields
        rest = unit[divisor] + full_code
        # (left code, right code, left_base) of each contraction.
        sides = (
            (unit[third] + unit[partner], unit[donor] + rest, w[third] + w[partner] - dim),
            (unit[third] + unit[donor], unit[partner] + rest, w[third] + w[donor] - dim),
        )
        # a = m, first contraction only: the right factor has three
        # insertions, the left one 3 + m.
        lcode, rcode, lbase = sides[0]
        base = lbase + full_excess
        first = 0
        for ui, uj, wi, g in buckets[base % c1]:
            t = base + wi  # c1 d1
            if t < 0 or t > top:
                continue
            lkey = lcode + full_code + ui
            left = cache.get(lkey)
            if left is None:
                if lkey & ident or not t and lkey & divs:
                    continue
                left = ev(lkey, 3 + m, t // c1)
            if left:
                first += left * cache.get(rcode - full_code + uj, 0) * g
        if not m:
            return first, 0
        totals = []
        # Interior splits: none at beta3 = 0 or with the identity in a slot
        # or a delta, and none at beta3 = 1 for a side whose left slots
        # hold a divisor; their buckets hold no identity entry.
        inner = splits[1:-1] if beta3 and not (sides[1][0] + sides[1][1]) & ident else ()
        for lcode, rcode, lbase in sides:
            total = 0
            # a = 0: the left factor has three insertions, the right one 3 + m.
            for ui, uj, wi, g in buckets[lbase % c1]:
                t = lbase + wi
                if t < 0 or t >= top:
                    continue
                left = cache.get(lcode + ui)
                if left:
                    rkey = rcode + uj
                    right = cache.get(rkey)
                    if right is None:
                        if rkey & ident:
                            continue
                        right = ev(rkey, 3 + m, beta3 - t // c1)
                    total += left * right * g
            for code, excess, size, mult in inner if beta3 > 1 or not lcode & divs else ():
                base = lbase + excess
                for ui, uj, wi, g in inner_buckets[base % c1]:
                    t = base + wi
                    if t < 0 or t >= top:
                        continue
                    lkey = lcode + code + ui
                    left = cache.get(lkey)
                    if left is None:
                        if not t and lkey & divs:
                            continue
                        left = ev(lkey, 3 + size, t // c1)
                    if left:
                        rkey = rcode - code + uj
                        right = cache.get(rkey)
                        if right is None:
                            right = ev(rkey, 3 + m - size, beta3 - t // c1)
                        total += left * right * g * mult
            totals.append(total)
        return first + totals[0], totals[1]


def _bounded_multisets(
    n: int, lo: int, hi: int, total: int, unit: Sequence[int]
) -> list[tuple[tuple[int, ...], int]]:
    """``(key, code)`` for every nondecreasing n-tuple ``key`` with entries
    in [lo, hi] (lo <= hi) summing to total, in lexicographic order, with
    ``code`` its packed count vector (``unit[k]`` is one copy of class k).

    One list, built a class at a time: a partial key takes c copies of
    class k, most first, for each c that leaves its other m - c entries
    in [k + 1, hi] a sum they can reach, and its code gains c unit[k].
    The last two classes are solved in closed form: hi - 1 takes
    c = m hi - rest copies if 0 <= c <= m, and hi the other m - c."""
    if lo == hi:
        return [((lo,) * n, n * unit[lo])] if n * lo == total else []
    partial = [((), 0, n, total)]  # (prefix, code, entries left, their sum)
    for k in range(lo, hi - 1):
        u = unit[k]
        partial = [
            (prefix + (k,) * c, code + c * u, m - c, rest - c * k)
            for prefix, code, m, rest in partial
            for c in range(min(m, (m * hi - rest) // (hi - k)), max(0, m * (k + 1) - rest) - 1, -1)
        ]
    u, v = unit[hi - 1], unit[hi]
    return [
        (prefix + (hi - 1,) * c + (hi,) * (m - c), code + c * u + (m - c) * v)
        for prefix, code, m, rest in partial
        for c in (m * hi - rest,)
        if 0 <= c <= m
    ]
