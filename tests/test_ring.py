from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gwstack import (
    DivisorStep,
    QRingElem,
    Reconstructor,
    TargetData,
    basis_element,
    build_p1b,
    build_p2,
    divisor_generation_check,
    qmul,
    specialize,
    validate_target,
)
from reference import qreduce

F = Fraction


class TestQReduce:
    def test_examples(self):
        assert qreduce(3, 7) == (1, 3)
        assert qreduce(2, 4) == (1, 1)
        assert qreduce(5, 12) == (2, 0)
        assert qreduce(4, 3) == (0, 3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            qreduce(0, 3)
        with pytest.raises(ValueError):
            qreduce(3, -1)

    @given(st.integers(1, 30), st.integers(0, 500))
    def test_is_division_with_remainder(self, b, k):
        s, r = qreduce(b, k)
        assert k == s * (b + 1) + r
        assert 0 <= r <= b


class TestBuildP1b:
    def test_structure(self):
        td = build_p1b(3)
        assert td.id == "P(1,3)"
        assert td.basis_size == 4
        assert td.orbdeg == (F(0), F(2, 3), F(4, 3), F(2))
        assert td.c1_degree == F(4, 3)
        assert td.fundamental_index == 0
        assert td.divisor_indices == (3,)
        assert td.divisor_degree[3] == F(1, 3)
        assert td.basis_names == ("1", "a^1", "a^2", "x")
        assert td.power_basis == 3

    def test_pairing(self):
        td = build_p1b(5)
        for i in range(6):
            for j in range(6):
                want = F(1, 5) if i + j == 5 else 0
                assert td.pairing[i][j] == want

    def test_structure_constants(self):
        td = build_p1b(3)
        assert td.base3 == {
            (0, 0, 3, 0): F(1, 3),
            (0, 1, 2, 0): F(1, 3),
            (1, 1, 1, 0): F(1, 3),
            (1, 3, 3, 1): F(1, 9),
            (2, 2, 3, 1): F(1, 9),
        }
        assert td.base2 == {(1, 3, 1): F(1, 3), (2, 2, 1): F(1, 3)}
        assert Reconstructor(td).gw((3, 2, 2)) == F(1, 9)  # order-insensitive
        assert build_p1b(5).base2[(2, 4, 1)] == F(1, 5)
        assert (2, 3, 1) not in build_p1b(5).base2

    def test_factorizations(self):
        # a^(t+1) * x = (q/b) a^t on P(1,b), and h * h = h^2 on P^2.
        for b in range(1, 101):
            td = build_p1b(b)
            assert td.divisor_factorization == {
                t: DivisorStep(partner=t + 1, divisor=b, shift=1, coeff=F(1, b))
                for t in range(1, b)
            }, b
        assert build_p2().divisor_factorization == {2: DivisorStep(1, 1, 0, F(1))}

    def test_b1_degenerates_to_projective_line(self):
        td = build_p1b(1)
        assert td.basis_size == 2
        assert td.pairing[0][1] == 1
        assert td.base3[(1, 1, 1, 1)] == 1
        assert td.base2[(1, 1, 1)] == 1
        assert td.divisor_factorization == {}

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            build_p1b(0)


class TestBuildP2:
    def test_structure(self):
        td = build_p2()
        assert td.id == "P2"
        assert td.basis_size == 3
        assert td.orbdeg == (F(0), F(2), F(4))
        assert td.c1_degree == 3
        assert td.divisor_indices == (1,)
        assert td.divisor_degree[1] == 1
        assert td.power_basis is None
        assert td.base3[(1, 2, 2, 1)] == 1
        assert td.base2[(2, 2, 1)] == 1
        assert td.divisor_factorization[2] == DivisorStep(1, 1, 0, F(1))


class TestValidateTarget:
    @pytest.mark.parametrize("b", [1, 2, 3, 7, 12])
    def test_builders_pass(self, b):
        validate_target(build_p1b(b))
        validate_target(build_p2())

    def test_catches_broken_pairing(self):
        td = build_p1b(2)
        rows = [list(r) for r in td.pairing]
        rows[0][2] = F(1, 3)  # breaks symmetry
        broken = dataclasses.replace(td, pairing=tuple(tuple(r) for r in rows))
        with pytest.raises(ValueError, match="symmetric"):
            validate_target(broken)

    def test_catches_degree_violation(self):
        td = build_p1b(2)
        for field, key in (("base3", (1, 1, 2, 1)), ("base2", (1, 1, 1))):
            entries = dict(getattr(td, field))
            entries[key] = F(1, 2)
            broken = dataclasses.replace(td, **{field: entries})
            with pytest.raises(ValueError, match=f"{field} entry .* degree axiom"):
                validate_target(broken)

    def test_catches_identity_violation(self):
        td = build_p1b(2)
        base3 = dict(td.base3)
        base3[(0, 1, 1, 0)] = F(1, 7)
        broken = dataclasses.replace(td, base3=base3)
        with pytest.raises(ValueError, match="identity"):
            validate_target(broken)

    def test_catches_divisor_mismatch(self):
        td = build_p1b(3)
        base2 = dict(td.base2)
        base2[(1, 3, 1)] = F(2, 3)
        broken = dataclasses.replace(td, base2=base2)
        with pytest.raises(ValueError, match="divisor axiom"):
            validate_target(broken)

    def test_catches_missing_factorization(self):
        # The orbifold cohomology ring of P(1,3): at q = 0 no class a^t is
        # a single-term product with x, so the divisor does not generate
        # it, while the small quantum ring at q = 1 is generated.
        td = build_p1b(3)
        classical = dataclasses.replace(
            td, base3={k: v for k, v in td.base3.items() if k[3] == 0}, base2={}
        )
        with pytest.raises(ValueError, match="class 1 .*divisor_generation_check"):
            validate_target(classical)
        assert divisor_generation_check(classical, 0) is False
        assert divisor_generation_check(td, 1) is True


class TestPairingInverse:
    def test_p1b(self):
        td = build_p1b(3)
        ginv = td.pairing_inverse
        for i in range(4):
            for j in range(4):
                assert ginv[i][j] == (3 if i + j == 3 else 0)

    def test_p2(self):
        ginv = build_p2().pairing_inverse
        assert ginv == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_is_a_two_sided_inverse(self):
        for td in (build_p1b(7), build_p2()):
            ginv = td.pairing_inverse
            n = td.basis_size
            for i in range(n):
                for j in range(n):
                    dot = sum(td.pairing[i][k] * ginv[k][j] for k in range(n))
                    assert dot == (1 if i == j else 0)

    def test_dense_pairing(self):
        # Every entry nonzero but the first, which forces a row swap;
        # the inverse must be two-sided on a full matrix too.
        td = build_p1b(4)
        n = td.basis_size
        dense = tuple(
            tuple(F(0) if i == j == 0 else F(1, i + j + 1) for j in range(n))
            for i in range(n)
        )
        ginv = dataclasses.replace(td, pairing=dense).pairing_inverse
        assert all(all(row) for row in ginv)
        for i in range(n):
            for j in range(n):
                assert sum(dense[i][k] * ginv[k][j] for k in range(n)) == (i == j)
                assert sum(ginv[i][k] * dense[k][j] for k in range(n)) == (i == j)

    def test_singular_pairing_rejected(self):
        td = build_p1b(2)
        degenerate = tuple(tuple(F(0) for _ in row) for row in td.pairing)
        broken = dataclasses.replace(td, pairing=degenerate)
        with pytest.raises(ValueError, match="singular"):
            broken.pairing_inverse


class TestQRingElem:
    def test_normalization(self):
        assert QRingElem(((F(1), F(0)), ())) == QRingElem(((F(1),), ()))

    def test_basis_element(self):
        td = build_p1b(2)
        assert basis_element(td, 1) == QRingElem(((), (F(1),), ()))
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                basis_element(td, bad)


def _target(b):
    return build_p2() if b is None else build_p1b(b)


@st.composite
def _ring_elements(draw, size, count):
    """Elements whose coefficients are q-polynomials, zeros included."""
    coeff = st.one_of(st.just(F(0)), st.fractions(-3, 3, max_denominator=4))
    polys = st.lists(coeff, max_size=4).map(tuple)
    return [QRingElem(tuple(draw(polys) for _ in range(size))) for _ in range(count)]


class TestQMul:
    def test_p12_examples(self):
        td = build_p1b(2)
        a1 = basis_element(td, 1)
        x = basis_element(td, 2)
        assert qmul(td, a1, a1) == x
        # x * x = (q/2) a^1
        assert qmul(td, x, x) == QRingElem(((), (F(0), F(1, 2)), ()))
        # a^1 * x crosses the relation: (q/2) 1
        assert qmul(td, a1, x) == QRingElem((((F(0), F(1, 2))), (), ()))

    def test_p2_example(self):
        td = build_p2()
        h2 = basis_element(td, 2)
        assert qmul(td, h2, h2) == QRingElem(((), (F(0), F(1)), ()))  # q h
        by_hand = {
            (0, 0): ((0, 0, 1),),  # 1 * 1 = 1
            (0, 1): ((0, 1, 1),),  # 1 * h = h
            (0, 2): ((0, 2, 1),),  # 1 * h^2 = h^2
            (1, 1): ((0, 2, 1),),  # h * h = h^2
            (1, 2): ((1, 0, 1),),  # h * h^2 = q
            (2, 2): ((1, 1, 1),),  # h^2 * h^2 = q h
        }
        for (i, j), terms in by_hand.items():
            assert td.products[i][j] == terms
            assert td.products[j][i] == terms

    def test_identity(self):
        for td in (build_p1b(4), build_p2()):
            one = basis_element(td, td.fundamental_index)
            for k in range(td.basis_size):
                e = basis_element(td, k)
                assert qmul(td, one, e) == e

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="basis-size"):
            qmul(build_p1b(2), basis_element(build_p1b(2), 0), basis_element(build_p1b(3), 0))

    @pytest.mark.parametrize("b", range(1, 13))
    def test_power_route_matches_pairing_route(self, b):
        # Exponent addition in Q[q][a] / (b a^(b+1) - q) against the
        # product contracted from the 3-point constants.
        td = build_p1b(b)
        for i in range(td.basis_size):
            for j in range(td.basis_size):
                s, r = qreduce(b, i + j)
                assert td.products[i][j] == ((s, r, F(1, b**s)),)

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_associative_and_commutative_over_q(self, b):
        td = build_p1b(b)
        elems = [basis_element(td, k) for k in range(td.basis_size)]
        for u in elems:
            for v in elems:
                assert qmul(td, u, v) == qmul(td, v, u)
                for w in elems:
                    assert qmul(td, qmul(td, u, v), w) == qmul(td, u, qmul(td, v, w))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3, 4, 5, None]), st.data())
    def test_ring_laws_on_polynomial_coefficients(self, b, data):
        td = _target(b)
        u, v, w = data.draw(_ring_elements(td.basis_size, 3))
        one = basis_element(td, td.fundamental_index)
        assert qmul(td, one, u) == u == qmul(td, u, one)
        assert qmul(td, u, v) == qmul(td, v, u)
        assert qmul(td, qmul(td, u, v), w) == qmul(td, u, qmul(td, v, w))

    @pytest.mark.parametrize("b", range(1, 17))
    def test_divisor_powers_match_closed_form(self, b):
        # x^k = a^(kb) = (q/b)^s a^r with kb = s(b+1) + r.
        td = build_p1b(b)
        x = basis_element(td, b)
        power = x
        for k in range(1, b + 2):
            s, r = divmod(k * b, b + 1)
            coeffs = [()] * (b + 1)
            coeffs[r] = (F(0),) * s + (F(1, b**s),)
            assert power == QRingElem(tuple(coeffs)), k
            power = qmul(td, power, x)


class TestSpecialize:
    def test_p2_at_one(self):
        ring = specialize(build_p2(), 1)
        assert ring.mult_table[2][2] == (0, 1, 0)  # h^2 * h^2 = h
        assert ring.mult_table[1][2] == (1, 0, 0)  # h * h^2 = 1

    def test_orbifold_ring_is_truncated(self):
        ring = specialize(build_p1b(3), 0)
        assert ring.mult_table[1][2] == (0, 0, 0, F(1))  # a^1 a^2 = x
        assert ring.mult_table[2][3] == (0, 0, 0, 0)  # a^2 x = 0 at q = 0

    @settings(max_examples=40)
    @given(
        st.integers(1, 5),
        st.fractions(max_denominator=20),
        st.integers(0, 5),
        st.integers(0, 5),
        st.integers(0, 5),
    )
    def test_specialized_ring_is_associative(self, b, lam, i, j, k):
        td = build_p1b(b)
        size = td.basis_size
        i, j, k = i % size, j % size, k % size
        table = specialize(td, lam).mult_table
        # (a_i a_j) a_k and a_i (a_j a_k), expanded through the table rows.
        left = tuple(sum(table[i][j][l] * table[l][k][m] for l in range(size)) for m in range(size))
        right = tuple(sum(table[j][k][l] * table[i][l][m] for l in range(size)) for m in range(size))
        assert left == right
        assert table[i][j] == table[j][i]


class TestDivisorGeneration:
    @pytest.mark.parametrize("b", range(2, 13))
    def test_dichotomy(self, b):
        td = build_p1b(b)
        assert divisor_generation_check(td, 1) is True
        assert divisor_generation_check(td, F(-3, 7)) is True
        assert divisor_generation_check(td, 0) is False

    def test_degenerate_cases_generate_at_zero(self):
        assert divisor_generation_check(build_p1b(1), 0) is True
        assert divisor_generation_check(build_p2(), 0) is True
        assert divisor_generation_check(build_p2(), 5) is True
