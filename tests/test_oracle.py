"""The WDVV-stratum oracle of ``reference.wdvv_strata``: each stratum of
insertion counts solved as an exact linear system, with no pivot order,
reduction rule or memo, against the engine, the classical plane curve
counts, the benchmark's pinned rows and targets whose quantum product is
not associative."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from gwstack import Reconstructor, build_p1b, build_p2, validate_target
from gwstack.ring import ROW_COUNTS
from reference import build_pn, forced_degree, rescaled, wdvv_strata

F = Fraction

SUPPORT_FILE = Path(__file__).resolve().parent.parent / "bench" / "reference" / "p1b_support.txt"


def _assert_engine_agrees(rec, solved):
    for (d, ins), value in solved.items():
        assert rec.gw_at(ins, d) == value, (d, ins)


@pytest.mark.parametrize("b", sorted(ROW_COUNTS))
def test_strata_match_the_engine(b, engines):
    solved = engines.strata(b)
    assert sum(1 for value in solved.values() if value) == ROW_COUNTS[b]
    _assert_engine_agrees(engines.p1b(b), solved)


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
    solved = wdvv_strata(build_p2(), 20)
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


def test_rescaled_target():
    # Potential times 2 and q times 3: the inverse pairing is not integral.
    td = rescaled(build_p1b(4), F(2), F(3))
    solved = wdvv_strata(td, 8)
    assert sum(1 for value in solved.values() if value) == ROW_COUNTS[4]
    _assert_engine_agrees(Reconstructor(td), solved)


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


@pytest.mark.parametrize(
    "b, key, value",
    [
        (3, (1, 1, 1, 0), F(2, 3)),
        (4, (1, 1, 2, 0), F(1, 2)),
        (5, (1, 2, 2, 0), F(3, 5)),
    ],
    ids=["P(1,3)-aaa", "P(1,4)-aaa2", "P(1,5)-aa2a2"],
)
def test_non_associative_targets_fail(b, key, value):
    # One degree-0 twisted constant changed: validate_target accepts the
    # target, yet its quantum product is not associative, and a surplus
    # relation of the first stratum fails.
    td = build_p1b(b)
    assert key in td.base3 and td.base3[key] != value
    bad = td._replace(base3={**td.base3, key: value})
    validate_target(bad)
    with pytest.raises(AssertionError, match=r"surplus relation .* at n=4 fails"):
        wdvv_strata(bad, 2 * b)


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
