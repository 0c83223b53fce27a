from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gwstack import Reconstructor, build_p1b, build_p2, validate_target
from gwstack.engine import (
    _FIELD,
    _bounded_multisets,
    _pack,
    _unpack,
)
from gwstack.target import Grading
from reference import (
    _multiset_splits,
    build_pn,
    closed_4pt_deg0,
    closed_4pt_deg1,
    e_cut,
    forced_degree,
    pairing_inverse,
    rescaled as _rescaled,
    wdvv_residual,
    wdvv_side,
)
from test_ring import KERNEL_TARGETS

F = Fraction


class TestMemoCache:
    def test_zero_values_are_cached(self):
        rec = Reconstructor(build_p1b(3))
        assert rec.gw((0, 2, 2, 2)) == 0  # forced degree 0, killed by the identity
        assert (0, (0, 2, 2, 2), 0) in rec.snapshot()

    def test_axiom_zeros_are_stored_without_a_reduction(self):
        # An n >= 4 key with the identity, or with the divisor at degree
        # 0, is 0 by that axiom.  A WDVV relation skips such a factor
        # that the memo lacks, so the full support of P(1,5), whose
        # relations pass many of them, neither stores nor reduces one;
        # a direct ``gw`` on one stores 0 and reduces nothing.
        b = 5
        reduced = []

        class Recording(Reconstructor):
            def _reduce(self, code, n, d):
                reduced.append((d, _unpack(code)))
                return super()._reduce(code, n, d)

        rec = Recording(build_p1b(b))
        for _ in rec.enumerate_nonzero():
            pass

        def by_axiom(d, ins):
            return 0 in ins or (d == 0 and b in ins)

        snapshot = rec.snapshot()
        assert len(snapshot) > 20
        assert not [(d, ins) for d, ins, _ in snapshot if by_axiom(d, ins)]
        assert reduced and not any(by_axiom(d, ins) for d, ins in reduced)

        reduced.clear()
        rec = Recording(build_p1b(b))
        keys = [(0, 2, 4, 4), (0, 3, 4, 4, 4), (1, 2, 2, 5)]  # all at forced degree 0
        assert [rec.gw(ins) for ins in keys] == [0, 0, 0]
        assert {(d, ins) for d, ins, _ in rec.snapshot()} == {(0, ins) for ins in keys}
        assert not reduced

    @pytest.mark.parametrize(
        "make", [*(lambda b=b: build_p1b(b) for b in (3, 4, 5)), build_p2], ids=["3", "4", "5", "P2"]
    )
    def test_relations_evaluate_no_axiom_zero(self, make):
        # Every WDVV relation of a reduction's slot shape, (third, partner,
        # donor, divisor) with (partner, divisor) of a pivot and any other
        # class as third and donor, on 0 to 3 deltas of any class and at
        # the one beta3 where its weights add up, if that is 0..3, over
        # the memo of the full support where there is one.  A factor with
        # more than three insertions that holds the identity, or a divisor
        # at degree 0, is tested for only on a memo miss, and must then be
        # neither evaluated nor stored.  Without any one of the three tests
        # (a = m, a = 0, interior) some target here evaluates such a factor.
        td = make()
        plan, one, w = td.plan, td.fundamental_index, td.grading.weights
        ident, divs = plan.identity_field, plan.divisor_fields
        zeros = []

        class Recording(Reconstructor):
            def _eval(self, code, n, d):
                if n > 3 and (code & ident or not d and code & divs):
                    zeros.append((d, _unpack(code)))
                return super()._eval(code, n, d)

        rec = Recording(td)
        if td.power_basis is not None:
            assert list(rec.enumerate_nonzero())
        before = set(rec.cache)
        others = [k for k in range(td.basis_size) if k != one]
        for partner, divisor, _, _ in plan.pivots.values():
            for third, donor in itertools.product(others, repeat=2):
                for m in range(4):
                    for deltas in itertools.combinations_with_replacement(range(td.basis_size), m):
                        slots = (third, partner, donor, divisor) + deltas
                        beta3 = td.grading.degree(sum(w[k] for k in slots), m + 3)
                        if beta3 is not None and beta3 <= 3:
                            rec._relation(*slots[:4], _fold(plan, deltas), beta3)
        assert not zeros, zeros[:5]
        for code in rec.cache.keys() - before:
            ins = _unpack(code)
            zero = code & ident or code & divs and td.grading.forced(ins) == 0
            assert len(ins) <= 3 or not zero, ins

    def test_stored_identity_keys_leave_rows_unchanged(self):
        # Axiom-zero keys that ``gw`` stored first are memo hits that hold
        # 0, so the relations that meet them add nothing: the full
        # support is the same as on a fresh engine.  The relations do
        # read them: the same keys holding 1 change the rows.
        td = build_p1b(5)
        keys = [
            ins
            for n in range(4, 7)
            for ins in itertools.combinations_with_replacement(range(6), n)
            if 0 in ins and td.grading.forced(ins) is not None
            or 5 in ins and td.grading.forced(ins) == 0
        ]
        rows = list(Reconstructor(td).enumerate_nonzero())
        stored = Reconstructor(td)
        assert [stored.gw(ins) for ins in keys] == [0] * len(keys)
        assert list(stored.enumerate_nonzero()) == rows
        poisoned = Reconstructor(td)
        poisoned.cache.update((_pack(ins), 1) for ins in keys)
        assert list(poisoned.enumerate_nonzero()) != rows

    def test_contents_are_pinned(self):
        # The memo rows after the full support of P(1,2..10) and after
        # N_1..N_25 of P^2 on one engine: the zeros that WDVV gave, and
        # none that an axiom gives (see the test above).
        digest = hashlib.sha256()
        rows = 0
        engines = []
        for b in range(2, 11):
            rec = Reconstructor(build_p1b(b))
            for _ in rec.enumerate_nonzero():
                pass
            engines.append((b, rec))
        rec = Reconstructor(build_p2())
        for d in range(1, 26):
            rec.gw((2,) * (3 * d - 1))
        engines.append(("P2", rec))
        for label, rec in engines:
            for d, ins, value in rec.snapshot():
                digest.update(f"{label} {d} {','.join(map(str, ins))} {value}\n".encode())
                rows += 1
        assert rows == 1423
        assert digest.hexdigest() == (
            "8c9ab69aa80b5eb891a24a1d80909b227c29b96789ad91d4dec8ef70564d2aa2"
        )

    def test_work_is_pinned(self):
        # The n >= 4 memo entries that the full support of P(1,12) stores.
        rec = Reconstructor(build_p1b(12))
        for _ in rec.enumerate_nonzero():
            pass
        assert len(rec.snapshot()) == 1457

    def test_rows_past_the_memo_pin_are_pinned(self):
        # The enumerated rows of P(1,11..14), whose gauged values carry
        # the largest powers of b, and N_1..N_25 of P^2.
        digest = hashlib.sha256()
        rows = 0
        for b in range(11, 15):
            for key, value in Reconstructor(build_p1b(b)).enumerate_nonzero():
                digest.update(
                    f"{b} {key.d} {','.join(map(str, key.insertions))} {value}\n".encode()
                )
                rows += 1
        rec = Reconstructor(build_p2())
        for d in range(1, 26):
            digest.update(f"P2 {d} {rec.gw((2,) * (3 * d - 1))}\n".encode())
            rows += 1
        assert rows == 7562
        assert digest.hexdigest() == (
            "3823803671e3c74201a197520e5553530aa83784409e527931b2dc4c9b071dce"
        )

    def test_rows_of_the_largest_full_tables_are_pinned(self):
        # The enumerated rows of P(1,15) and P(1,16), the largest orders
        # whose full support the CLI tabulates: 12,574 WDVV relations, 260
        # of them at beta3 = 2 and the rest at beta3 = 1.
        digest = hashlib.sha256()
        rows = 0
        for b in (15, 16):
            for key, value in Reconstructor(build_p1b(b)).enumerate_nonzero():
                digest.update(
                    f"{b} {key.d} {','.join(map(str, key.insertions))} {value}\n".encode()
                )
                rows += 1
        assert rows == 12574
        assert digest.hexdigest() == (
            "4c53006ad5fc193c8df5325f7e0bdfe8af27f6509da93fd90dd55ed0e831cf47"
        )


class TestValueType:
    def test_values_are_fractions(self):
        # An int zero in the memo would print like a Fraction zero, so the
        # pinned digests above cannot tell them apart.
        engines = []
        for b in range(2, 7):
            rec = Reconstructor(build_p1b(b))
            for key, value in rec.enumerate_nonzero():
                assert type(value) is Fraction
                assert type(rec.gw(key.insertions)) is Fraction
            engines.append(rec)
        rec = Reconstructor(build_p2())
        for d in range(1, 9):
            assert type(rec.gw((2,) * (3 * d - 1))) is Fraction
        engines.append(rec)
        for rec in engines:
            for _, ins, value in rec.snapshot():
                assert type(value) is Fraction, (rec.td.id, ins, value)


class TestIntegrality:
    @pytest.mark.parametrize("b", range(2, 13))
    def test_p1b_values_times_a_power_of_b_are_integers(self, engines, b):
        # b^(n - 2 + d) v is an integer for every memo row, and the
        # exponent is attained: one power less leaves a fraction.
        rec = engines.p1b(b)
        for _ in rec.enumerate_nonzero():
            pass
        attained = False
        for d, ins, value in rec.snapshot():
            assert (value * b ** (len(ins) - 2 + d)).denominator == 1, (d, ins, value)
            attained = attained or (value * b ** (len(ins) - 3 + d)).denominator != 1
        assert attained

    def test_p2_counts_are_integers(self, engines):
        rec = engines.p2()
        for d in range(1, 26):
            assert rec.gw((2,) * (3 * d - 1)).denominator == 1, d


class TestForcedDegree:
    def test_examples(self):
        td5 = build_p1b(5)
        assert td5.grading == Grading(weights=(0, 1, 2, 3, 4, 5), scale=5, c1=6, dim=5)
        assert td5.grading.forced((4, 4, 4, 4)) == 1
        assert td5.grading.forced((4,) * 10) == 0
        assert td5.grading.forced((2, 4)) == 1
        assert td5.grading.forced((1, 1)) is None
        p2 = build_p2()
        assert p2.grading == Grading(weights=(0, 1, 2), scale=1, c1=3, dim=2)
        assert p2.grading.forced((2,) * 5) == 2
        assert build_p1b(3).grading.forced((0, 0)) == 0

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            build_p1b(3).grading.forced((1,))

    @settings(max_examples=200)
    @given(
        st.one_of(st.none(), st.integers(1, 8)),
        st.lists(st.integers(0, 8), min_size=2, max_size=9),
    )
    def test_integer_path_matches_rational_path(self, b, raw):
        # b = None draws P^2, whose basis is not a power basis.
        td = build_p2() if b is None else build_p1b(b)
        ins = tuple(k % td.basis_size for k in raw)
        assert td.grading.forced(ins) == forced_degree(td, ins)


class TestClosedForms:
    def test_e_cut(self):
        assert e_cut(5, 5) == 1
        assert e_cut(5, 6) == 0
        assert e_cut(5, 0) == 1
        with pytest.raises(ValueError):
            e_cut(0, 1)
        with pytest.raises(ValueError):
            e_cut(3, -1)

    def test_degree_zero_examples(self):
        assert closed_4pt_deg0(2, 1, 1, 1, 1) == F(-1, 4)
        assert closed_4pt_deg0(3, 1, 1, 2, 2) == F(-1, 9)
        assert closed_4pt_deg0(4, 2, 2, 2, 2) == F(-1, 8)
        assert closed_4pt_deg0(5, 2, 2, 3, 3) == F(-2, 25)
        assert closed_4pt_deg0(6, 3, 3, 3, 3) == F(-1, 12)

    def test_degree_one_examples(self):
        assert closed_4pt_deg1(5, 4, 4, 4, 4) == F(1, 125)
        assert closed_4pt_deg1(2, 1, 2, 2, 2) == F(1, 8)
        assert closed_4pt_deg1(1, 1, 1, 1, 1) == 1

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            closed_4pt_deg0(3, 1, 1, 1, 1)  # wrong sum
        with pytest.raises(ValueError):
            closed_4pt_deg0(3, 0, 2, 2, 2)  # identity exponent
        with pytest.raises(ValueError):
            closed_4pt_deg0(3, 3, 1, 1, 1)  # divisor exponent
        with pytest.raises(ValueError):
            closed_4pt_deg1(3, 1, 2, 3, 3)  # wrong sum


class TestGw:
    def test_known_values(self, engines):
        assert engines.p1b(2).gw((1, 1, 1, 1)) == F(-1, 4)
        assert engines.p1b(3).gw((1, 1, 2, 2)) == F(-1, 9)
        assert engines.p1b(4).gw((2, 2, 2, 2)) == F(-1, 8)
        assert engines.p1b(4).gw((3,) * 8) == F(-5, 512)
        assert engines.p1b(5).gw((4,) * 10) == F(-49, 15625)
        assert engines.p1b(6).gw((5,) * 12) == F(-5663, 5038848)

    def test_divisor_insertion(self, engines):
        # <a^1, x, x, x> at degree 1 peels to a 3-point constant.
        assert engines.p1b(2).gw((1, 2, 2, 2)) == F(1, 8)
        key = (4, 4, 4, 4)
        rec = engines.p1b(5)
        assert rec.gw(key + (5,)) == F(1, 5) * rec.gw(key)

    def test_long_divisor_runs(self):
        # Each divisor x of P(1,2) comes out as d deg(x) = 1/2 at d = 1,
        # down to the 3-point constant <a^1, x, x>_1.  3000 divisors are
        # far past the interpreter's recursion limit; each key is stripped
        # in one step, so the memo holds the two keys asked for and no
        # key in between.
        td = build_p1b(2)
        rec = Reconstructor(td)
        base = td.base3[(1, 2, 2, 1)]
        for n in (600, 3000):
            assert rec.gw((1,) + (2,) * n) == F(1, 2) ** (n - 2) * base
        assert len(rec.snapshot()) == 2
        for _, ins, value in rec.snapshot():
            assert value == F(1, 2) ** (len(ins) - 3) * base

    @pytest.mark.parametrize("b", [2, 3, 4, 5])
    def test_divisor_keys_follow_the_axiom(self, b):
        # Every key of 4 to 6 insertions with a divisor x = a^b at a
        # forced degree d <= 2 is (d/b)^s times its twisted part, or times
        # the 3-point constant left once s divisors are stripped: a
        # structure constant, a 4-point closed form, else the WDVV value of
        # the twisted part.  As s >= 1, the factor makes it 0 at d = 0.
        td = build_p1b(b)
        rec = Reconstructor(td)
        closed_4pt = {0: closed_4pt_deg0, 1: closed_4pt_deg1}
        nonzero = Counter()
        for n in range(4, 7):
            for ins in itertools.combinations_with_replacement(range(1, b + 1), n):
                d = td.grading.forced(ins)
                if b not in ins or d is None or d > 2:
                    continue
                twisted = tuple(k for k in ins if k != b)
                stripped = twisted + (b,) * max(0, 3 - len(twisted))
                factor = F(d, b) ** (n - len(stripped))
                if len(stripped) == 3:
                    want = factor * td.base3.get((*stripped, d), 0)
                elif len(stripped) == 4:
                    want = factor * closed_4pt[d](b, *stripped)
                else:
                    want = factor * rec.gw(stripped)
                assert rec.gw(ins) == want, ins
                nonzero[len(stripped)] += want != 0
        # The nonzero keys sit at d = 1; a twisted part of 5 needs b >= 6 there.
        assert (nonzero[3], nonzero[4], nonzero[5]) == (3 * (b - 1), 2 * (b == 5), 0)

    def test_identity_insertion_kills(self, engines):
        assert engines.p1b(3).gw((0, 1, 1, 2)) == 0
        assert engines.p1b(5).gw((0, 4, 4, 4, 4)) == 0

    def test_unforced_degree_gives_zero(self, engines):
        assert engines.p1b(3).gw((1, 1, 1, 1)) == 0
        assert engines.p1b(3).gw((1, 1)) == 0

    def test_two_point_passthrough(self, engines):
        assert engines.p1b(5).gw((2, 4)) == F(1, 5)

    def test_degenerate_two_point_rejected(self):
        rec = Reconstructor(build_p1b(3))
        with pytest.raises(ValueError, match="degenerate"):
            rec.gw((0, 0))

    def test_input_validation(self):
        rec = Reconstructor(build_p1b(3))
        with pytest.raises(ValueError):
            rec.gw((1,))
        with pytest.raises(ValueError):
            rec.gw((1, 7))
        with pytest.raises(ValueError):
            rec.gw((-1, 1))

    def test_gw_at(self, engines):
        rec = engines.p1b(5)
        assert rec.gw((4, 4, 4, 4), 1) == F(1, 125)
        assert rec.gw((4, 4, 4, 4), 0) == 0
        assert rec.gw((4, 4, 4, 4), 2) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6),
        st.lists(st.integers(0, 6), min_size=3, max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, b, raw, rng):
        td = build_p1b(b)
        rec = Reconstructor(td)
        ins = [k % (b + 1) for k in raw]
        value = rec.gw(ins)
        shuffled = list(ins)
        rng.shuffle(shuffled)
        assert rec.gw(shuffled) == value


class TestKontsevichNumbers:
    def test_first_counts(self, engines):
        rec = engines.p2()
        assert rec.gw((2, 2)) == 1  # one line through two points
        assert rec.gw((2,) * 5) == 1  # one conic through five
        assert rec.gw((2,) * 8) == 12  # twelve rational cubics through eight

    def test_classical_part_counts_no_curves(self):
        # With only its degree-0 constants, P^2 keeps no 2- or 3-point
        # value at d > 0, so every curve count is 0; the cup product stays.
        td = build_p2()
        classical = td._replace(base3={k: v for k, v in td.base3.items() if k[3] == 0}, base2={})
        rec = Reconstructor(classical)
        assert rec.gw((2, 2)) == rec.gw((1, 2, 2)) == 0
        assert [rec.gw((2,) * (3 * d - 1)) for d in range(1, 5)] == [0, 0, 0, 0]
        assert rec.gw((0, 1, 1)) == 1


class TestWdvvResidual:
    """The engine's values in WDVV relations it never solves, summed by
    ``reference.wdvv_residual``."""

    def test_spot_instances(self, engines):
        assert wdvv_residual(engines.p1b(4), 3, 3, 2, 3, (), 1) == 0
        assert wdvv_residual(engines.p1b(6), 5, 5, 4, 5, (5,), 2) == 0
        assert wdvv_residual(engines.p2(), 2, 2, 2, 2, (2, 2), 2) == 0

    def test_randomized_sample(self, engines):
        rng = random.Random(7)
        for rec in (engines.p1b(2), engines.p1b(4), engines.p2()):
            size = rec.td.basis_size
            for _ in range(60):
                picks = [rng.randrange(size) for _ in range(4)]
                deltas = tuple(rng.randrange(size) for _ in range(rng.randrange(4)))
                beta3 = rng.randrange(3)
                assert wdvv_residual(rec, *picks, deltas, beta3) == 0


class TestWdvvSum:
    @pytest.mark.parametrize("b", [2, 3, 4, 5, 6, None], ids=lambda b: b or "P2")
    def test_matches_subset_walk(self, engines, b):
        # Each contraction of ``_relation`` against the plain subset walk,
        # the second one without its full split, which the reduction
        # solves for.  The fourth slot is a divisor, as in every
        # reduction.  Few distinct classes among up to eight deltas, so
        # most of the 2^m subsets collapse onto one multiset split.  A
        # relation is called only at the total degree beta3 with
        # sum(weights) = c1 beta3 + dim + scale m, as ``_reduce`` calls
        # it, so draws without an integer beta3 are skipped.
        # The identity class is drawn too, in the other fixed slots and
        # among the deltas, though rarely: it kills every factor with more
        # than three insertions.  It comes from a stream of its own, so
        # the other draws stay what they would be without it.  Draws with
        # 0 to 2 deltas come last, from a stream of their own and with the
        # identity more often: their three-point factors hold the
        # identity or a divisor at degree 0 and are not zero.  A relation
        # stores no key that is 0 by those axioms: each call adds no key
        # of more than three insertions that holds the identity, or a
        # divisor at its forced degree 0.  The plain walk runs on the
        # shared engine, as its lookups store such keys.
        shared = engines.p2() if b is None else engines.p1b(b)
        td = shared.td
        rec = Reconstructor(td)
        w = td.grading.weights
        one = td.fundamental_index
        ident, divs = td.plan.identity_field, td.plan.divisor_fields
        divisors = sorted(td.divisor_degree)
        rng = random.Random(20261018 + (b or 0))
        identity = random.Random(-20261018 - (b or 0))

        def draw(rng, p):
            k = rng.randrange(1, td.basis_size)
            return one if identity.random() < p else k

        def fixed_slots(rng, p):
            return tuple(draw(rng, p) for _ in range(3)) + (rng.choice(divisors),)

        def check(fixed, deltas):
            """The number of nonzero contractions at the forced degree."""
            n = len(deltas) + 3
            forced = td.grading.degree(sum(w[k] for k in fixed + deltas), n)
            if forced is None:
                return None
            g1, g2, g3, g4 = fixed
            before = set(rec.cache)
            pair = rec._relation(*fixed, _fold(td.plan, deltas), forced)
            where = (fixed, deltas, forced)
            assert [type(v) for v in pair] == [int, int]
            for code in rec.cache.keys() - before:
                ins = _unpack(code)
                zero = code & ident or code & divs and td.grading.forced(ins) == 0
                assert len(ins) <= 3 or not zero, (where, ins)
            first, second = (td.plan.unscale(v, n, forced) for v in pair)
            assert first == wdvv_side(shared, g1, g2, g3, g4, deltas, forced), where
            assert second == wdvv_side(
                shared, g1, g3, g2, g4, deltas, forced, skip_full=True
            ), where
            return (first != 0) + (second != 0)

        checked = nonzero = with_identity = 0
        while checked < 40:
            fixed = fixed_slots(rng, 0.1)
            pool = [draw(rng, 0.1) for _ in range(2)]
            deltas = tuple(rng.choice(pool) for _ in range(rng.randint(3, 8)))
            found = check(fixed, deltas)
            if found is None:
                continue
            checked += 1
            nonzero += found
            with_identity += one in fixed + deltas
        assert nonzero >= 10
        assert with_identity >= 2

        small = random.Random(20261019 + (b or 0))
        checked = kept = 0
        while checked < 48:
            fixed = fixed_slots(small, 0.3)
            deltas = tuple(draw(small, 0.3) for _ in range(small.randint(0, 2)))
            found = check(fixed, deltas)
            if found is None:
                continue
            checked += 1
            kept += found if one in fixed else 0
        assert kept >= 10

    @pytest.mark.parametrize("b", [3, 4, 5, 6, 7, 8, 9, None], ids=lambda b: b or "P2")
    def test_contractions_without_interior_terms(self, b):
        # The contractions that ``_relation`` walks without their interior
        # splits: at beta3 = 1 with a divisor in g1 or g2 (every interior
        # term has d1 = 0 with a divisor on the left, or d2 = 0 with g4 on
        # the right), and on P^2 at beta3 = 0.  At least 2 deltas, so that
        # there is an interior split to leave out, and 30 draws at the
        # forced degree per target.  P^2 reaches degree 0 only with
        # identity insertions, so its draws take the identity too, and all
        # its terms vanish: the skip must give exactly 0 there.
        rec = Reconstructor(build_p2() if b is None else build_p1b(b))
        td = rec.td
        w = td.grading.weights
        beta3 = 0 if b is None else 1
        divisors = sorted(td.divisor_degree)
        classes = [k for k in range(td.basis_size) if b is None or k != td.fundamental_index]
        rng = random.Random(20261020 + (b or 0))
        checked = nonzero = 0
        while checked < 30:
            g1, g2, g3 = (rng.choice(classes) for _ in range(3))
            g4 = rng.choice(divisors)
            if beta3 and rng.randrange(2):
                g1 = rng.choice(divisors)
            elif beta3:
                g2 = rng.choice(divisors)
            deltas = tuple(rng.choice(classes) for _ in range(rng.randint(2, 5)))
            n = len(deltas) + 3
            if td.grading.degree(sum(w[k] for k in (g1, g2, g3, g4) + deltas), n) != beta3:
                continue
            pair = rec._relation(g1, g2, g3, g4, _fold(td.plan, deltas), beta3)
            first, second = (td.plan.unscale(v, n, beta3) for v in pair)
            where = ((g1, g2, g3, g4), deltas)
            assert first == wdvv_side(rec, g1, g2, g3, g4, deltas, beta3), where
            assert second == wdvv_side(rec, g1, g3, g2, g4, deltas, beta3, skip_full=True), where
            checked += 1
            nonzero += (first != 0) + (second != 0)
        assert nonzero == 0 if b is None else nonzero >= 1


def _fold(plan, deltas):
    """``plan.fold`` of the multiset ``deltas``, classes in pivot order as
    a reduction folds them."""
    return plan.fold((k, deltas.count(k)) for k in sorted(set(deltas)))


def _slots_by_sorting(order, counts):
    """(pivot, donor, third) from the insertions ranked in pivot
    ``order``: a reference for the engine's one-pass choice."""
    ranked = [k for k in order for _ in range(counts[k])]
    position = {k: i for i, k in enumerate(order)}
    left = list(counts)
    slots = [ranked[0]]
    left[ranked[0]] -= 1
    for _ in range(2):
        k = min((k for k in order if left[k]), key=lambda k: (left[k], position[k]))
        slots.append(k)
        left[k] -= 1
    return tuple(slots)


def _scan_keys(td, seed, draws):
    """``draws`` count vectors of 4 to 13 insertions over the pivot
    classes of ``td``, the first class in pivot order three times as
    likely as each other one.  Every other draw holds exactly one copy of
    the last class in pivot order, so a scan that stops one class too
    soon misses it."""
    order = td.plan.order
    pool = sorted(order) + [order[0]] * 2
    rng = random.Random(seed)
    for i in range(draws):
        counts = [0] * td.basis_size
        for _ in range(rng.randrange(4, 14)):
            counts[rng.choice(pool)] += 1
        if i % 2 and len(order) > 1:
            counts[order[-1]] = 1
            while sum(counts) < 4:
                counts[order[0]] += 1
        yield counts


# P(1,7), whose pivot order runs down the class indices, and P^3 and
# P^5, whose pivot orders run up them.
_SCAN_TARGETS = (lambda: build_p1b(7), lambda: build_pn(3), lambda: build_pn(5))


class TestDonorPolicy:
    """The one rule that fills the donor and third WDVV slots."""

    def test_slots_match_sorting(self):
        for seed, make in enumerate(_SCAN_TARGETS, start=16):
            td = make()
            order = td.plan.order
            for counts in _scan_keys(td, seed, 2000):
                code = sum(c << (_FIELD * k) for k, c in enumerate(counts))
                got = td.plan.scan(code)[:3]
                assert got == _slots_by_sorting(order, counts), (td.id, counts)

    def test_fewest_copies_examples(self):
        # P(1,7), pivot order a^6, a^5, ..., a.
        scan = build_p1b(7).plan.scan
        # a^6 is the pivot; a^4 is the rarest, then a^3 and a^5 tie at 2.
        assert scan(_pack((6, 5, 5, 4, 3, 3)))[:3] == (6, 4, 5)
        # Every class keeps 2 copies: the donor's class fills the third slot.
        assert scan(_pack((6, 6, 6, 2, 2, 1, 1)))[:3] == (6, 6, 6)
        # The pivot's last copy is gone, so the donor is the first of the rest.
        assert scan(_pack((6, 5, 2, 1)))[:3] == (6, 5, 2)


class TestFold:
    """The split list of a reduction against the reference's plain
    multiset walk."""

    @staticmethod
    def _want(td, deltas):
        """(code, excess, size, multiplicity) of each split of ``deltas``
        by ``reference._multiset_splits``."""
        w, scale = td.grading.weights, td.grading.scale
        return Counter(
            (_pack(left), sum(w[k] - scale for k in left), len(left), mult)
            for left, _, mult in _multiset_splits(tuple(sorted(deltas)))
        )

    @pytest.mark.parametrize(
        "make",
        [*(lambda b=b: build_p1b(b) for b in range(3, 8)), build_p2],
        ids=[*(f"P(1,{b})" for b in range(3, 8)), "P2"],
    )
    def test_fold_matches_multiset_splits(self, make):
        # Each draw takes up to 7 deltas from a pool of 2 or 3 classes, so
        # most (class, count) pairs recur: each is built once per target
        # and then read by every later engine on it.
        td = make()
        rng = random.Random(20261019 + td.basis_size)
        pairs = Counter()
        for _ in range(150):
            plan = Reconstructor(td)._plan
            assert plan is td.plan
            pool = [rng.randrange(td.basis_size) for _ in range(rng.choice((2, 3)))]
            deltas = tuple(rng.choice(pool) for _ in range(rng.randrange(8)))
            splits = _fold(plan, deltas)
            assert Counter(splits) == self._want(td, deltas), deltas
            excess = sum(td.grading.weights[k] - td.grading.scale for k in deltas)
            assert splits[0] == (0, 0, 0, 1)
            assert splits[-1] == (_pack(deltas), excess, len(deltas), 1)  # a = m
            pairs.update((k, deltas.count(k)) for k in set(deltas))
        assert set(td.plan.options) == set(pairs)
        assert sum(pairs.values()) >= 3 * len(pairs)

    def test_scan_folds_what_the_slots_leave(self):
        # 500 keys of 4 to 13 insertions on each target of _SCAN_TARGETS:
        # the split list of a reduction is the fold of the key less its
        # three slots.
        for seed, make in enumerate(_SCAN_TARGETS, start=23):
            td = make()
            for counts in _scan_keys(td, seed, 500):
                key = [k for k, c in enumerate(counts) for _ in range(c)]
                pivot, donor, third, splits = td.plan.scan(_pack(key))
                for k in (pivot, donor, third):
                    key.remove(k)
                assert Counter(splits) == self._want(td, key), (td.id, key)
                assert splits[0] == (0, 0, 0, 1) and splits[-1][0] == _pack(key)


class TestSharedPlan:
    """Engines on one target share its ``Plan`` and no memo."""

    def test_engines_share_no_memo(self):
        td = build_p1b(7)
        first, second = Reconstructor(td), Reconstructor(td)
        constants = dict(td.plan.constants)
        assert len(list(first.enumerate_nonzero())) == 90
        assert len(first.snapshot()) >= 90
        assert second.snapshot() == []
        assert second.cache == td.plan.constants == constants
        assert Reconstructor(td).cache == constants

    def test_preload_stays_in_its_engine(self):
        td = build_p1b(3)
        seeded, clean = Reconstructor(td), Reconstructor(td)
        seeded.preload([(0, (1, 1, 2, 2), F(7))])
        assert seeded.gw((1, 1, 2, 2)) == 7
        assert clean.gw((1, 1, 2, 2)) == F(-1, 9)
        assert Reconstructor(td).snapshot() == []
        assert _pack((1, 1, 2, 2)) not in td.plan.constants

    @pytest.mark.parametrize("b", [3, 5])
    def test_replaced_target_has_its_own_plan(self, b):
        # The original's plan exists before the rescaled target is built.
        td = build_p1b(b)
        want = [
            (key.d, key.insertions, 2 * value)
            for key, value in Reconstructor(td).enumerate_nonzero()
        ]
        scaled = _rescaled(td, F(2))
        assert scaled.plan is not td.plan
        got = [
            (key.d, key.insertions, value)
            for key, value in Reconstructor(scaled).enumerate_nonzero()
        ]
        assert got == want


class TestRescaling:
    @pytest.mark.parametrize("b", [3, 5])
    def test_p1b_support_scales(self, b):
        td = build_p1b(b)
        scaled = _rescaled(td, F(2))
        assert pairing_inverse(scaled)[1][b - 1] == F(b, 2)
        want = [
            (key.d, key.insertions, 2 * value)
            for key, value in Reconstructor(td).enumerate_nonzero()
        ]
        got = [
            (key.d, key.insertions, value)
            for key, value in Reconstructor(scaled).enumerate_nonzero()
        ]
        assert got == want

    def test_p2_counts_scale(self):
        td = build_p2()
        scaled = _rescaled(td, F(2))
        assert pairing_inverse(scaled)[1][1] == F(1, 2)
        assert (scaled.plan.s, scaled.plan.r, scaled.plan.alpha) == (1, 1, 2)
        rec, rec2 = Reconstructor(td), Reconstructor(scaled)
        for d in range(1, 8):
            ins = (2,) * (3 * d - 1)
            assert rec2.gw(ins) == 2 * rec.gw(ins)

    @pytest.mark.parametrize("b", [3, 5])
    def test_q_rescaled_support_scales(self, b):
        # Doubling q doubles the degree-1 constants and the pivot
        # coefficients (to 2/b), which only a gauge that rescales q, by
        # r = 2, turns into signs.  The keys with a divisor, which ``gw``
        # strips, add degree 1 on P(1,3), whose twisted support sits at
        # degree 0.
        td = build_p1b(b)
        scaled = _rescaled(td, q=F(2))
        assert scaled.divisor_factorization[1].coeff == F(2, b)
        assert (scaled.plan.s, scaled.plan.r, scaled.plan.alpha) == (b, 2, 1)
        rec, rec2 = Reconstructor(td), Reconstructor(scaled)
        want = [(key, 2**key.d * value) for key, value in rec.enumerate_nonzero()]
        assert list(rec2.enumerate_nonzero()) == want
        degrees = {key.d for key, _ in want}
        for n in (4, 5):
            for ins in itertools.combinations_with_replacement(range(1, b + 1), n):
                d = td.grading.forced(ins)
                if b in ins and d is not None and d <= 1:
                    value = rec.gw(ins)
                    assert rec2.gw(ins) == 2**d * value, ins
                    if value:
                        degrees.add(d)
        assert degrees == {0, 1}

    def test_gauge_of_the_shipped_targets(self):
        def signs(plan):
            return {t: sign for t, (_, _, _, sign) in plan.pivots.items()}

        def pairing_entries(plan):
            return [g for bucket in plan.buckets for _, _, _, g in bucket]

        for b in (1, 2, 7):
            plan = build_p1b(b).plan
            assert (plan.s, plan.r, plan.alpha) == (b, 1, 1)
            assert set(plan.constants.values()) == {1}
            assert len(pairing_entries(plan)) == b + 1
            assert set(pairing_entries(plan)) == {1}
            assert plan.divisor_factor == {b: 1}
            assert set(signs(plan).values()) <= {1}
        plan = build_p2().plan
        assert (plan.s, plan.r, plan.alpha) == (1, 1, 1)
        assert signs(plan) == {2: 1}

    @pytest.mark.parametrize(
        "make",
        [lambda b=b: build_p1b(b) for b in range(2, 8)]
        + [
            build_p2,
            lambda: _rescaled(build_p1b(3), F(2)),
            lambda: _rescaled(build_p1b(5), q=F(2)),
            lambda: _rescaled(build_p1b(4), F(2), F(3)),
            lambda: _rescaled(build_p2(), F(2)),
        ],
        ids=[f"P(1,{b})" for b in range(2, 8)]
        + ["P2", "P(1,3)-lam2", "P(1,5)-q2", "P(1,4)-lam2-q3", "P2-lam2"],
    )
    def test_plan_unscales_every_constant(self, make):
        # Each forced 2- and 3-point constant is keyed once in the plan,
        # and its gauged value unscales to the stored Fraction.
        td = make()
        plan = td.plan
        forced = {**td.base3, **td.base2}
        for key, value in forced.items():
            *ins, d = key
            assert td.grading.forced(ins) == d
            t = plan.constants[_pack(ins)]
            assert type(t) is int
            assert plan.unscale(t, len(ins), d) == value, (td.id, key)
            assert plan.gauged(value, len(ins), d) == t
        assert len(plan.constants) == len(forced)

    # Each rejection branch of the plan's gauge, on a target that
    # ``validate_target`` accepts.  The gauged inverse pairing and divisor
    # factors are integers by the choice of alpha and s, so they have no
    # branch.

    def test_rejects_a_pivot_sign_other_than_one(self):
        # Doubling a^1 alone makes the pivot coefficients of a^1 and a^2
        # 1/6 and 1/3: r = 1/2 from a^1 leaves a^2 the sign 2.
        td = _rescaled(build_p1b(3), classes={1: F(2)})
        for _ in range(2):  # a refused plan is not cached, so it is refused again
            with pytest.raises(ValueError, match="pivot of class 2 has sign .* = 2 "):
                Reconstructor(td)

    def test_rejects_a_non_integer_three_point_constant(self):
        # <a, a, a>_0 at 1/6 instead of 1/3 has gauged value 3 / 6; no
        # axiom that validate_target checks ties it to another constant.
        # The original's plan exists first; the replaced target has its own.
        td = build_p1b(3)
        assert Reconstructor(td).gw((1, 1, 2, 2)) == F(-1, 9)
        td = td._replace(base3={**td.base3, (1, 1, 1, 0): F(1, 6)})
        validate_target(td)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"3-point constant \(1, 1, 1, 0\) = 1/6 has no integer"):
                Reconstructor(td)

    def test_rejects_a_non_integer_two_point_constant(self):
        # P^2 with h' = 2h (degree 2) and a point class 4h^2 keeps the
        # pivot h' h' = 4h^2 at sign 1, and gives alpha = 4.  With q
        # times 1/8 the line through two points has gauged value 1/2,
        # while the 3-point constants stay integers: the one with the
        # divisor is d times the divisor factor 2 times it.
        td = _rescaled(build_p2(), q=F(1, 8), classes={1: F(2), 2: F(4)})
        assert td.divisor_degree == {1: 2}
        for _ in range(2):
            with pytest.raises(ValueError, match=r"2-point constant \(2, 2, 1\) = 2 has no integer"):
                Reconstructor(td)


class _TracingReconstructor(Reconstructor):
    """Asserts the (n, b - max exponent) measure drops on every descent."""

    def __init__(self, td):
        super().__init__(td)
        self._stack = []

    def _measure(self, ins):
        return (len(ins), self.td.power_basis - max(ins))

    def _reduce(self, code, n, d):
        ins = _unpack(code)
        assert n == len(ins)
        measure = self._measure(ins)
        if self._stack:
            assert measure < self._stack[-1], (measure, self._stack)
        self._stack.append(measure)
        try:
            return super()._reduce(code, n, d)
        finally:
            self._stack.pop()


class _RankTracingReconstructor(_TracingReconstructor):
    """Asserts the (n, lowest pivot rank) measure of the engine docstring
    drops on every descent, on any target."""

    def _measure(self, ins):
        return (len(ins), min(self.td.pivot_rank[k] for k in ins))


class TestHomogeneousPairing:
    """``validate_target`` makes the identity the unit and puts every
    3-point constant at its forced degree, so each inverse-pairing entry
    has w[i] + w[j] = dim.  The plan files the entries in one list by
    residue, and ``_reduce`` calls every relation at the degree where
    its weights add up (``_relation``'s precondition)."""

    @staticmethod
    def _check(td) -> bool:
        """Assert the invariant on ``td``; whether its plan was built."""
        w, _, c1, dim = td.grading
        assert all(w[i] + w[j] == dim for i, j, _ in td.pairing_inverse_entries), td.id
        try:
            plan = td.plan
        except ValueError:  # no integer gauge: the plan is refused
            return False
        index = {u: k for k, u in enumerate(plan.unit)}
        assert len(plan.buckets) == len(plan.inner) == c1
        for buckets in (plan.buckets, plan.inner):
            for residue, bucket in enumerate(buckets):
                for ui, uj, wi, _ in bucket:
                    i, j = index[ui], index[uj]
                    assert (wi, w[i] + w[j], -w[i] % c1) == (w[i], dim, residue), td.id
        assert sum(map(len, plan.buckets)) == len(td.pairing_inverse_entries)
        one = plan.unit[td.fundamental_index]
        assert plan.inner == [tuple(e for e in bucket if one not in e[:2]) for bucket in plan.buckets]
        return True

    def test_shipped_and_projective_targets(self):
        targets = [build_p1b(b) for b in range(1, 31)] + [build_p2()]
        targets += [build_pn(n) for n in (3, 4, 5)]
        assert all(self._check(td) for td in targets)

    def test_kernel_and_rescaled_targets(self):
        # Two kernel targets break the degree axiom on purpose, and two
        # have no integer gauge; the rest build a plan.
        makes = [param.values[0] for param in KERNEL_TARGETS] + [
            lambda: _rescaled(build_p1b(3), F(2)),
            lambda: _rescaled(build_p1b(4), F(2), F(3)),
            lambda: _rescaled(build_p2(), F(2)),
        ]
        refused = built = 0
        for make in makes:
            td = make()
            try:
                validate_target(td)
            except ValueError as exc:
                assert "violates the degree axiom" in str(exc)
                refused += 1
                continue
            built += self._check(td)
        assert (refused, built) == (2, len(makes) - 4)

    def test_reductions_call_relations_at_their_degree(self):
        calls = []

        class Spying(Reconstructor):
            def _relation(self, third, partner, donor, divisor, splits, beta3):
                deltas = _unpack(splits[-1][0])
                w = self.td.grading.weights
                wsum = sum(w[k] for k in (third, partner, donor, divisor, *deltas))
                calls.append(self.td.grading.degree(wsum, len(deltas) + 3) == beta3)
                return super()._relation(third, partner, donor, divisor, splits, beta3)

        for b in range(2, 10):
            for _ in Spying(build_p1b(b)).enumerate_nonzero():
                pass
        rec = Spying(build_p2())
        assert [rec.gw((2,) * (3 * d - 1)) for d in range(1, 8)][-1] == 14616808192
        assert len(calls) > 500 and all(calls)


class TestTermination:
    @pytest.mark.parametrize("b,key", [(5, (4,) * 10), (6, (5,) * 12), (3, (1, 1, 2, 2))])
    def test_measure_strictly_decreases(self, b, key):
        rec = _TracingReconstructor(build_p1b(b))
        rec.gw(key)  # the tracer raises on any non-decreasing step
        assert not rec._stack

    @pytest.mark.parametrize(
        "make,key",
        [
            (lambda: build_p1b(6), (5,) * 12),
            (lambda: build_p1b(7), (3, 4, 5, 5, 6, 6, 6)),
            (build_p2, (2,) * 11),
            (lambda: build_pn(3), (2,) * 12),
            (lambda: build_pn(4), (2, 2, 3, 3, 3, 3, 4, 4)),
        ],
        ids=["P(1,6)", "P(1,7)", "P2", "P3", "P4"],
    )
    def test_rank_measure_strictly_decreases(self, make, key):
        rec = _RankTracingReconstructor(make())
        assert rec.gw(key)  # nonzero, so the recursion ran
        assert not rec._stack


class TestProjectiveSpace:
    """Classical counts on P^n, which the engine does not know: its pivot
    h^k = h^(k-1) * h has its partner below it."""

    def test_lines_meeting_codimension_two_planes(self):
        # The degree of the Grassmannian G(2, n + 1): Catalan numbers.
        counts = [Reconstructor(build_pn(n)).gw((2,) * (2 * (n - 1))) for n in range(3, 8)]
        assert counts == [2, 5, 14, 42, 132]

    def test_curves_in_p3(self):
        rec = Reconstructor(build_pn(3))
        assert rec.gw((2,) * 8) == 92  # conics meeting 8 lines
        assert rec.gw((3,) * 6) == 1  # twisted cubics through 6 points
        assert rec.gw((2,) * 12) == 80160  # twisted cubics meeting 12 lines

    def test_p2_is_build_pn_2(self):
        td, ref = build_p2(), build_pn(2)
        assert (ref.orbdeg, ref.pairing, ref.base3, ref.base2) == (
            td.orbdeg, td.pairing, td.base3, td.base2
        )
        assert ref.pivot_rank == td.pivot_rank == (0, 0, 1)


class TestEnumerate:
    def test_b3_support(self, engines):
        rows = list(engines.p1b(3).enumerate_nonzero())
        assert [(key.d, key.insertions) for key, _ in rows] == [
            (0, (1, 1, 2, 2)),
            (0, (1, 2, 2, 2, 2)),
            (0, (2, 2, 2, 2, 2, 2)),
        ]
        assert [value for _, value in rows] == [F(-1, 9), F(1, 27), F(-1, 27)]

    def test_caps(self, engines):
        rec = engines.p1b(5)
        assert len(list(rec.enumerate_nonzero())) == 22
        assert len(list(rec.enumerate_nonzero(max_d=0))) == 21
        # The walk stops at the last degree that fits, not at max_d.
        assert len(list(rec.enumerate_nonzero(max_d=10**9))) == 22
        four_point = list(rec.enumerate_nonzero(max_n=4))
        assert all(len(key.insertions) == 4 for key, _ in four_point)
        assert len(four_point) == 6

    def test_b1_is_empty(self, engines):
        assert list(engines.p1b(1).enumerate_nonzero()) == []

    @pytest.mark.parametrize("cap", ["max_n", "max_d"])
    def test_negative_caps_refused(self, engines, cap):
        with pytest.raises(ValueError, match=f"{cap} must be nonnegative, got -1"):
            next(iter(engines.p1b(3).enumerate_nonzero(**{cap: -1})))

    def test_max_n_fits_one_key(self, engines):
        most = (1 << _FIELD) - 1
        rec = engines.p1b(2)
        with pytest.raises(ValueError, match=f"max_n must be at most {most}"):
            next(iter(rec.enumerate_nonzero(max_n=most + 1, max_d=0)))
        assert len(list(rec.enumerate_nonzero(max_n=most))) == 1

    def test_needs_power_basis(self, engines):
        with pytest.raises(ValueError, match="power basis"):
            next(iter(engines.p2().enumerate_nonzero()))


class TestPreload:
    def test_cached_value_short_circuits(self):
        rec = Reconstructor(build_p1b(3))
        rec.preload([(0, (1, 1, 2, 2), F(7))])
        assert rec.gw((1, 1, 2, 2)) == 7

    def test_repeated_entry_is_idempotent(self):
        rec = Reconstructor(build_p1b(3))
        rec.preload([(0, (1, 1, 2, 2), F(-1, 9)), (0, (2, 1, 2, 1), F(-1, 9))])
        assert rec.snapshot() == [(0, (1, 1, 2, 2), F(-1, 9))]

    def test_conflicting_entries_raise(self):
        rec = Reconstructor(build_p1b(3))
        with pytest.raises(ValueError, match="refusing to store -1/8"):
            rec.preload([(0, (1, 1, 2, 2), F(-1, 9)), (0, (1, 1, 2, 2), F(-1, 8))])
        assert rec.snapshot() == [(0, (1, 1, 2, 2), F(-1, 9))]

    def test_value_with_a_non_integer_gauge_rejected(self):
        # 9 v must be an integer for a 4-point value v at degree 0 on P(1,3).
        rec = Reconstructor(build_p1b(3))
        with pytest.raises(ValueError, match=r"-1/8 is not a value of P\(1,3\)"):
            rec.preload([(0, (1, 1, 2, 2), F(-1, 8))])
        assert rec.snapshot() == []

    def test_axiom_zero_rows_still_preload(self):
        # Record files written while a WDVV relation still stored every
        # axiom-zero factor it met hold such rows: the first two are
        # from ``compute --b 3 --insertions 1,1,2,2 --cache`` then.  On
        # P(1,5) the support and every axiom-zero key of 4 to 7
        # insertions are stored.  Both sets preload, and no value moves.
        old = [
            (0, (0, 1, 2, 3), F(0)),
            (0, (1, 1, 1, 3), F(0)),
            (0, (1, 1, 2, 2), F(-1, 9)),
            (1, (1, 3, 3, 3), F(1, 27)),
        ]
        writer = Reconstructor(build_p1b(5))
        for _ in writer.enumerate_nonzero():
            pass
        for n in range(4, 8):
            for ins in itertools.combinations_with_replacement(range(6), n):
                if 0 in ins or 5 in ins and writer.td.grading.forced(ins) == 0:
                    writer.gw(ins)
        assert sum(0 in ins or 5 in ins and not d for d, ins, _ in writer.snapshot()) == 62
        for b, rows in ((3, old), (5, writer.snapshot())):
            rec = Reconstructor(build_p1b(b))
            rec.preload(rows)
            assert rec.snapshot() == rows
            fresh = Reconstructor(build_p1b(b))
            for d, ins, value in rows:
                assert rec.gw(ins, d) == fresh.gw(ins, d) == value, (b, d, ins)
            assert list(rec.enumerate_nonzero()) == list(fresh.enumerate_nonzero())
            for n in range(4, 7):
                for ins in itertools.combinations_with_replacement(range(1, b + 1), n):
                    d = rec.td.grading.forced(ins)
                    if b in ins and d is not None and d <= 2:
                        assert rec.gw(ins) == fresh.gw(ins), (b, ins)

    @pytest.mark.parametrize(
        "d, ins, axiom",
        [(0, (0, 2, 2, 2), "identity axiom: 0,"), (1, (1, 3, 3, 3), "divisor axiom: 1/27,")],
        ids=["identity", "divisor"],
    )
    def test_axiom_records_checked_against_the_axioms(self, d, ins, axiom):
        # A key with an identity or a divisor is decided without WDVV, so
        # a record on it is checked, not stored as given.
        rec = Reconstructor(build_p1b(3))
        with pytest.raises(ValueError, match=f"conflicts with the {axiom} not 7"):
            rec.preload([(d, ins, F(7))])
        assert rec.gw(ins, d) != 7

    def test_degree_mismatch_rejected(self):
        rec = Reconstructor(build_p1b(3))
        with pytest.raises(ValueError, match="not forced"):
            rec.preload([(1, (1, 1, 2, 2), F(-1, 9))])

    def test_small_records_checked_against_constants(self):
        rec = Reconstructor(build_p1b(3))
        rec.preload([(0, (1, 1, 1), F(1, 3))])  # consistent, not stored
        assert rec.snapshot() == []
        with pytest.raises(ValueError, match="conflicts"):
            rec.preload([(0, (1, 1, 1), F(1, 2))])

    def test_two_point_records_checked_against_constants(self):
        rec = Reconstructor(build_p1b(3))
        rec.preload([(1, (2, 2), F(1, 3))])  # base2[(2, 2, 1)], not stored
        assert rec.snapshot() == []
        with pytest.raises(ValueError, match="conflicts"):
            rec.preload([(1, (2, 2), F(1, 2))])
        # The degree-0 pair is degenerate: no value is consistent with it.
        with pytest.raises(ValueError, match="degenerate"):
            rec.preload([(0, (0, 0), F(1))])
        assert rec.snapshot() == []

    def test_snapshot_round_trip(self):
        rec = Reconstructor(build_p1b(4))
        rec.gw((2,) * 8)
        snap = rec.snapshot()
        fresh = Reconstructor(build_p1b(4))
        fresh.preload(snap)
        assert fresh.snapshot() == snap


class TestPackedKeys:
    def test_round_trip_with_a_full_field(self):
        # Class 1 at its largest count, between nonzero neighbours: no
        # count spills into the next field.
        full = (1 << _FIELD) - 1
        ins = (0,) + (1,) * full + (2,) * 3
        code = _pack(ins)
        assert code == 1 + (full << _FIELD) + (3 << (2 * _FIELD))
        assert _unpack(code) == ins
        assert _unpack(_pack((3, 0, 3))) == (0, 3, 3)
        assert _unpack(0) == ()

    def test_count_reader_matches_the_fields(self):
        # ``Plan.counts`` against a shift and mask per class, on random
        # count vectors with fields at 0, 1, 65,535 and in between, and on
        # the vectors that are empty, full, or hold copies of the top
        # class alone.
        most = (1 << _FIELD) - 1
        for td in [*map(build_p1b, range(2, 21)), build_pn(5)]:
            size = td.basis_size
            rng = random.Random(20261021 + size)
            vectors = [[0] * size, [most] * size, [0] * (size - 1) + [1], [0] * (size - 1) + [most]]
            for _ in range(100):
                vectors.append([rng.choice((0, 0, 1, rng.randrange(2, most), most)) for _ in range(size)])
            for counts in vectors:
                code = sum(c << (_FIELD * k) for k, c in enumerate(counts))
                got = td.plan.counts(code)
                assert got == tuple(code >> (_FIELD * k) & most for k in range(size)), (td.id, counts)
                assert list(got) == counts

    def test_insertion_count_is_bounded(self):
        rec = Reconstructor(build_p1b(2))
        built = dict(rec.cache)
        most = (1 << _FIELD) - 1
        # Identity insertions alone force no degree, so the largest
        # accepted key is 0 without any evaluation.
        assert rec.gw((0,) * most) == 0
        too_many = (1,) * (most + 1)
        for call in (
            lambda: rec.gw(too_many),
            lambda: rec.gw(too_many, 0),
            lambda: rec.preload([(0, too_many, F(1))]),
        ):
            with pytest.raises(ValueError, match=f"at most {most} insertions"):
                call()
        assert rec.cache == built


class TestBoundedMultisets:
    UNIT = tuple(1 << (_FIELD * k) for k in range(11))

    def test_enumeration(self):
        def keys(*args):
            got = _bounded_multisets(*args, self.UNIT)
            assert all(code == _pack(key) for key, code in got)
            return [key for key, _ in got]

        assert keys(2, 1, 3, 4) == [(1, 3), (2, 2)]
        assert keys(0, 1, 3, 0) == [()]
        assert keys(3, 1, 2, 7) == []

    # Widths 0..6 hold every (lo, hi) of lo in 0..3 and hi in 3..6, and
    # lo + 1 == hi (the closed form alone) and lo == hi are both drawn;
    # each of these two, and the widest, is given once with a nonempty
    # answer.
    @given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 6), st.integers(0, 40))
    @example(4, 2, 0, 8)
    @example(5, 3, 1, 17)
    @example(6, 0, 6, 18)
    def test_matches_brute_force(self, n, lo, width, total):
        hi = lo + width
        got = _bounded_multisets(n, lo, hi, total, self.UNIT)
        keys = [key for key, _ in got]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for tup, code in got:
            assert code == _pack(tup)
            assert len(tup) == n and sum(tup) == total
            assert all(lo <= v <= hi for v in tup)
            assert tuple(sorted(tup)) == tup
        brute = {
            tup
            for tup in itertools.combinations_with_replacement(range(lo, hi + 1), n)
            if sum(tup) == total
        }
        assert set(keys) == brute
