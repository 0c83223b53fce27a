"""The WDVV-stratum oracle of ``reference.wdvv_strata``: each stratum of
insertion counts solved as an exact linear system, with no pivot order,
reduction rule or memo, against the engine (in the low strata up to
b = 24), the classical plane curve counts, the benchmark's pinned rows
and targets whose quantum product is not associative.  On each target, the engine's associativity check
agrees with the full law of ``reference.nonassociative_triples``, and
``divisor_generation_check`` at one nonzero q agrees with the oracle's
full rank, as the paper's second reconstruction theorem allows."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

import pytest

from gwstack import Reconstructor, build_p1b, build_p2, divisor_generation_check, validate_target
from gwstack.ring import ROW_COUNTS, _noncommuting_triple
from reference import build_pn, forced_degree, nonassociative_triples, rescaled, wdvv_strata

F = Fraction

SUPPORT_FILE = Path(__file__).resolve().parent.parent / "bench" / "reference" / "p1b_support.txt"


# Nonzero values of q at which divisor generation is checked.
LAMS = (F(1), F(-2, 3))


def _assert_engine_agrees(rec, solved):
    for (d, ins), value in solved.items():
        assert rec.gw(ins, d) == value, (d, ins)


def _associative(td) -> bool:
    """Whether the product of ``td`` is associative, once the engine's
    divisor-commutation check is asserted to agree with the full triple
    check: both pass, or both fail and the engine names a failing triple."""
    triple = _noncommuting_triple(td)
    failures = nonassociative_triples(td)
    assert (triple is None) == (not failures)
    assert triple is None or triple in failures
    return not failures


@pytest.mark.parametrize("b", sorted(ROW_COUNTS))
def test_strata_match_the_engine(b, engines):
    solved = engines.strata(b)
    assert sum(1 for value in solved.values() if value) == ROW_COUNTS[b]
    rec = engines.p1b(b)
    _assert_engine_agrees(rec, solved)
    assert _associative(rec.td)
    assert all(divisor_generation_check(rec.td, lam) for lam in LAMS)


@pytest.mark.parametrize(
    "b, max_n, unknowns",
    [
        (12, 5, 187),
        pytest.param(16, 5, 508, marks=pytest.mark.slow),
        pytest.param(24, 4, 504, marks=pytest.mark.slow),
    ],
)
def test_low_strata_match_the_engine_at_large_b(b, max_n, unknowns):
    # Past the pinned rows, where the 4-point closed forms were the only
    # check of the engine that does not run it.
    td = build_p1b(b)
    solved = wdvv_strata(td, max_n)
    assert len(solved) == unknowns
    _assert_engine_agrees(Reconstructor(td), solved)


@pytest.mark.parametrize("b", sorted(ROW_COUNTS))
def test_no_twisted_key_past_2b_insertions(b):
    # A degree d >= 0 needs orbifold degrees adding up to at least
    # 2 dim + 2 (n - 3), and a twisted class a^k has 2k/b < 2: no twisted
    # key of more than 2b insertions has one, so the strata up to 2b hold
    # the whole support.
    td = build_p1b(b)
    n = 2 * b + 1
    assert n * max(td.orbdeg[1:b]) < 2 * td.dim + 2 * (n - 3)
    assert forced_degree(td, (b - 1,) * n) is None


def test_plane_curve_counts():
    # N_d = <pt^(3d - 1)>_d, from d = 2 (five points) on.
    td = build_p2()
    assert _associative(td)
    assert all(divisor_generation_check(td, lam) for lam in LAMS)
    solved = wdvv_strata(td, 20)
    assert solved == {
        (d, (2,) * (3 * d - 1)): count
        for d, count in zip(range(2, 8), (1, 12, 620, 87304, 26312976, 14616808192))
    }


@pytest.mark.parametrize(
    "n, max_n, counts",
    [
        # Twisted cubics through 6 points, conics and twisted cubics
        # meeting 8 and 12 lines.
        (3, 12, {(3, (3,) * 6): 1, (2, (2,) * 8): 92, (3, (2,) * 12): 80160}),
        # Lines meeting 2(n - 1) codimension-2 planes: Catalan numbers.
        (4, 8, {(1, (2,) * 6): 5}),
        (5, 8, {(1, (2,) * 8): 14}),
    ],
    ids=["P3", "P4", "P5"],
)
def test_projective_space(n, max_n, counts):
    # P^n's partner chains run downwards, unlike P(1,b)'s; the oracle
    # has no pivot to care.
    td = build_pn(n)
    solved = wdvv_strata(td, max_n)
    assert {key: solved[key] for key in counts} == counts
    _assert_engine_agrees(Reconstructor(td), solved)
    assert _associative(td)
    assert all(divisor_generation_check(td, lam) for lam in LAMS)


def test_rescaled_target():
    # Potential times 2 and q times 3: the inverse pairing is not integral.
    td = rescaled(build_p1b(4), F(2), F(3))
    solved = wdvv_strata(td, 8)
    assert sum(1 for value in solved.values() if value) == ROW_COUNTS[4]
    _assert_engine_agrees(Reconstructor(td), solved)
    assert _associative(td)
    assert all(divisor_generation_check(td, lam) for lam in LAMS)


@pytest.mark.parametrize("b", [2, 3, 4])
def test_classical_ring_leaves_the_strata_undetermined(b):
    # Without its degree > 0 constants P(1,b) is its orbifold cohomology
    # ring, which the divisor does not generate: WDVV then leaves the
    # first stratum short of full rank, as the reconstruction theorem's
    # hypothesis warns.
    td = build_p1b(b)
    classical = td._replace(
        base3={key: value for key, value in td.base3.items() if not key[-1]}, base2={}
    )
    with pytest.raises(AssertionError, match=r"stratum n=4 of P\(1,\d\) has rank 0"):
        wdvv_strata(classical, 2 * b)
    assert _associative(classical)
    assert not any(divisor_generation_check(classical, lam) for lam in LAMS)


@pytest.mark.parametrize(
    "b, key, value, triple",
    [
        (3, (1, 1, 1, 0), F(2, 3), (3, 1, 1)),
        (4, (1, 1, 2, 0), F(1, 2), (4, 1, 1)),
        (5, (1, 2, 2, 0), F(3, 5), (5, 1, 2)),
    ],
    ids=["P(1,3)-aaa", "P(1,4)-aaa2", "P(1,5)-aa2a2"],
)
def test_non_associative_targets_fail(b, key, value, triple):
    # One degree-0 twisted constant changed: validate_target accepts the
    # target, yet its quantum product is not associative, so building an
    # engine refuses it, and a surplus relation of the first stratum fails.
    td = build_p1b(b)
    assert key in td.base3 and td.base3[key] != value
    bad = td._replace(base3={**td.base3, key: value})
    validate_target(bad)
    assert not _associative(bad)
    refused = f"not associative: (x a_i) a_k != (a_i a_k) x at (x, i, k) = {triple}"
    for _ in range(2):  # a refused plan is not cached, so it is refused again
        with pytest.raises(ValueError, match=re.escape(refused)):
            Reconstructor(bad)
    with pytest.raises(AssertionError, match=r"surplus relation .* at n=4 fails"):
        wdvv_strata(bad, 2 * b)


@pytest.mark.parametrize("value, associative", [(None, True), (F(1, 8), False)], ids=["shipped", "aaa14"])
def test_associativity_check_at_larger_b(value, associative):
    # P(1,16), past the strata wdvv_strata solves quickly: the engine's
    # check against the full triple law alone, on the shipped target and
    # with <a, a, a^14>_0 at 1/8 instead of 1/16.
    td = build_p1b(16)
    if value is not None:
        td = td._replace(base3={**td.base3, (1, 1, 14, 0): value})
        validate_target(td)
    assert _associative(td) is associative


@pytest.mark.slow
@pytest.mark.parametrize("b", [7, 8])
def test_strata_match_the_pinned_support(b):
    # Past the golden tables, against the rows of the benchmark's
    # reference file (b d k_1,...,k_n value work), which the file lists
    # for b = 2..9.
    rows = {}
    for line in SUPPORT_FILE.read_text().splitlines():
        if line and not line.startswith("#"):
            fields = line.split()
            if int(fields[0]) == b:
                ins = tuple(int(k) for k in fields[2].split(","))
                rows[(int(fields[1]), ins)] = Fraction(fields[3])
    assert rows
    solved = wdvv_strata(build_p1b(b), 2 * b)
    assert {key: value for key, value in solved.items() if value} == rows
