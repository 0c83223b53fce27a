"""References shared by the test modules, free of the engine's shortcuts:
the degree axiom over the rationals, the dense inverse pairing, a plain
WDVV side and residual, dense ring kernels, the full associativity law,
the closed forms for P(1,b) that the ring and the engine are checked
against, a rescaling of any target, and a hand-built P^n for its
classical counts."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Optional

from gwstack.target import TargetData, validate_target


def forced_degree(td, insertions) -> Optional[int]:
    """The degree axiom solved over the rationals, as a reference for
    ``TargetData.grading``.

    Returns ``None`` when no nonnegative integer degree satisfies
    sum(orbdeg) = 2 d c1 + 2 dim + 2(n - 3).
    """
    ins = tuple(insertions)
    if len(ins) < 2:
        raise ValueError("at least two insertions are required")
    total = sum((td.orbdeg[k] for k in ins), start=Fraction(0))
    d = (total - 2 * td.dim - 2 * (len(ins) - 3)) / (2 * td.c1_degree)
    if d.denominator == 1 and d >= 0:
        return int(d)
    return None


def pairing_inverse(td) -> tuple[tuple[Fraction, ...], ...]:
    """The inverse of the pairing as a dense matrix, built from
    ``td.pairing_inverse_entries``."""
    rows = [[Fraction(0)] * td.basis_size for _ in range(td.basis_size)]
    for i, j, g in td.pairing_inverse_entries:
        rows[i][j] = g
    return tuple(map(tuple, rows))


def wdvv_side(rec, x1, x2, y1, y2, deltas, beta3, skip_full=False) -> Fraction:
    """One side of the WDVV relation by the plain walk over all 2^m
    subsets of ``deltas`` and every degree split, each factor evaluated
    through ``rec.gw`` at its degree: a reference for each contraction of
    ``Reconstructor._relation`` that needs no multiplicity weights, no
    degree filters and no axiom skip.

    ``skip_full`` leaves out the subset holding every delta.
    """
    td = rec.td
    ginv = pairing_inverse(td)
    total = Fraction(0)
    for on_left in itertools.product((False, True), repeat=len(deltas)):
        if skip_full and all(on_left):
            continue
        left = [k for k, side in zip(deltas, on_left) if side]
        right = [k for k, side in zip(deltas, on_left) if not side]
        for i in range(td.basis_size):
            for j in range(td.basis_size):
                if not ginv[i][j]:
                    continue
                for d1 in range(beta3 + 1):
                    total += (
                        ginv[i][j]
                        * rec.gw((x1, x2, *left, i), d1)
                        * rec.gw((y1, y2, *right, j), beta3 - d1)
                    )
    return total


def wdvv_residual(rec, g1, g2, g3, g4, deltas, beta3) -> Fraction:
    """The difference of the two contractions of the WDVV relation for
    (g1, g2, g3, g4) on ``deltas`` at total degree ``beta3``, each factor
    read through ``rec.gw``: 0 in a consistent theory, and a check of
    the engine's values that shares none of its relation code.

    The first contraction joins a part A of ``deltas`` to g1, g2 and the
    rest to g3, g4 through the inverse pairing; the second swaps g2 and
    g3.  The parts are the ``_multiset_splits``, and each term is read at
    the one degree split where ``forced_degree`` gives the left factor's
    degree.
    """
    td = rec.td
    deltas = tuple(deltas)
    total = Fraction(0)
    # The two factors of a term hold the fixed slots, the deltas and an
    # inverse-pairing pair, whose orbifold degrees add up to 2 dim, on
    # m + 6 points.  By the degree axiom of both, every term is 0 unless
    # 2 c1 beta3 = orbdeg(g1, g2, g3, g4, deltas) - 2 dim - 2 m.
    weight = sum((td.orbdeg[k] for k in (g1, g2, g3, g4) + deltas), -2 * td.dim)
    if weight - 2 * len(deltas) != 2 * td.c1_degree * beta3:
        return total
    ginv = td.pairing_inverse_entries
    for x, y, sign in ((g2, g3, 1), (g3, g2, -1)):
        for left, right, mult in _multiset_splits(deltas):
            for i, j, g in ginv:
                ins = (g1, x, i) + left
                d1 = forced_degree(td, ins)
                if d1 is None or d1 > beta3:
                    continue
                value = rec.gw(ins, d1)
                if value:
                    total += sign * mult * g * value * rec.gw((y, g4, j) + right, beta3 - d1)
    return total


def qreduce(b: int, k: int) -> tuple[int, int]:
    """Reduce a generator power: a^k = (q/b)^s a^r with k = s(b+1) + r.

    Returns ``(s, r)`` with 0 <= r <= b.  This is the normal form of the
    relation b a^(b+1) = q in Q[q][a].
    """
    if b < 1:
        raise ValueError(f"b must be positive, got {b}")
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    return divmod(k, b + 1)[0], k % (b + 1)


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


def products(td):
    """The basis product table by full contraction over every k, l and d,
    in the layout of ``TargetData.products``: a reference for its
    one-pass accumulation."""
    size = td.basis_size
    ginv = pairing_inverse(td)
    degrees = sorted({key[-1] for key in td.base3})
    table = []
    for i in range(size):
        row = []
        for j in range(size):
            terms = []
            for d in degrees:
                vec = [Fraction(0)] * size
                for k in range(size):
                    val = td.base3.get((*sorted((i, j, k)), d))
                    for l in range(size) if val else ():
                        vec[l] += val * ginv[k][l]
                terms.extend((d, l, c) for l, c in enumerate(vec) if c)
            row.append(tuple(terms))
        table.append(tuple(row))
    return tuple(table)


def nonassociative_triples(td) -> list[tuple[int, int, int]]:
    """Every basis triple (i, j, k) with (a_i a_j) a_k != a_i (a_j a_k)
    over Q[q], from the full-contraction table of :func:`products`: the
    whole associativity law, with no argument that a part of it is
    enough.  The table is symmetric, so a_i (a_j a_k) is (a_j a_k) a_i."""
    table = products(td)

    def times(vec, j):
        out = {}
        for (d, l), c in vec.items():
            for e, m, x in table[l][j]:
                out[d + e, m] = out.get((d + e, m), 0) + c * x
        return {key: c for key, c in out.items() if c}

    def basis(i):
        return {(0, i): Fraction(1)}

    size = td.basis_size
    return [
        (i, j, k)
        for i, j, k in itertools.product(range(size), repeat=3)
        if times(times(basis(i), j), k) != times(times(basis(j), k), i)
    ]


def specialize(table, lam):
    """A product table in the layout of ``TargetData.products`` at
    q = lam, one dense vector per ordered pair: a reference for
    ``ring.specialize(td, lam).mult_table``."""
    size = len(table)
    mult = []
    for row in table:
        out = []
        for terms in row:
            vec = [Fraction(0)] * size
            for d, l, c in terms:
                vec[l] += c * Fraction(lam) ** d
            out.append(tuple(vec))
        mult.append(tuple(out))
    return tuple(mult)


def rank(vectors) -> int:
    """The rank of a list of rational vectors, by dense Gaussian elimination."""
    rows = [list(v) for v in vectors]
    found = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(found, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[found], rows[piv] = rows[piv], rows[found]
        top = rows[found]
        for r in range(found + 1, len(rows)):
            if rows[r][col]:
                ratio = rows[r][col] / top[col]
                rows[r] = [a - ratio * t for a, t in zip(rows[r], top)]
        found += 1
    return found


def divisor_span_rank(td, mult) -> int:
    """The dimension of the subring that the divisor classes generate in
    the specialized table ``mult``: the rank of every divisor monomial
    of degree below the basis size, each built by dense products from
    the identity.  The divisors generate the ring when it equals the
    basis size."""
    size = td.basis_size
    one = [Fraction(0)] * size
    one[td.fundamental_index] = Fraction(1)
    monomials = {(): one}  # sorted divisor word -> its product with the identity
    for degree in range(1, size):
        for word in itertools.combinations_with_replacement(td.divisor_degree, degree):
            vec, div = monomials[word[:-1]], word[-1]
            monomials[word] = [
                sum(vec[i] * mult[i][div][l] for i in range(size) if vec[i]) for l in range(size)
            ]
    return rank(list(monomials.values()))


def rescaled(td, lam=Fraction(1), q=Fraction(1), classes=None):
    """``td`` with the potential times lam, q times q and basis class k
    times ``classes[k]`` (default 1).

    The pairing entry (i, j) is multiplied by lam c_i c_j, a constant at
    degree d by lam q^d and by c_k for each insertion k, and a divisor's
    degree by its c.  WDVV is homogeneous in all three, so every
    invariant at degree d of the result is lam q^d prod c_k times the
    original.  The inverse pairing is divided by lam, which makes it
    non-integral on P(1,b) and P^2 for lam = 2.
    """
    c = [Fraction(1)] * td.basis_size
    for k, ck in (classes or {}).items():
        c[k] = ck

    def times(ins, d):
        out = lam * q**d
        for k in ins:
            out *= c[k]
        return out

    out = td._replace(
        divisor_degree={k: c[k] * v for k, v in td.divisor_degree.items()},
        pairing=tuple(
            tuple(times((i, j), 0) * g for j, g in enumerate(row))
            for i, row in enumerate(td.pairing)
        ),
        base3={key: times(key[:3], key[3]) * value for key, value in td.base3.items()},
        base2={key: times(key[:2], key[2]) * value for key, value in td.base2.items()},
    )
    validate_target(out)
    return out


def build_pn(n: int):
    """The projective space P^n as a target datum, built by hand.

    Basis h^0..h^n with h^0 the identity and h the divisor of degree 1;
    eta(h^i, h^j) = 1 when i + j = n, <h^i, h^j, h^k>_0 = 1 when
    i + j + k = n, <h^i, h^j, h^k>_1 = 1 when i + j + k = 2n + 1, and
    <h^n, h^n>_1 = 1 (one line through two points).  The degree axiom
    leaves no other 2- or 3-point constant.  Each h^k with k >= 2 factors
    as h^(k-1) * h with no q-shift, so its partner lies below it, unlike
    on P(1,b).
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    one = Fraction(1)
    size = n + 1
    base3 = {}
    for i in range(size):
        for j in range(i, size):
            for d, k in ((0, n - i - j), (1, 2 * n + 1 - i - j)):
                if j <= k <= n:
                    base3[(i, j, k, d)] = one
    td = TargetData(
        id=f"P{n}",
        orbdeg=tuple(Fraction(2 * k) for k in range(size)),
        dim=Fraction(n),
        c1_degree=Fraction(n + 1),
        fundamental_index=0,
        divisor_degree={1: one},
        pairing=tuple(
            tuple(one if i + j == n else Fraction(0) for j in range(size)) for i in range(size)
        ),
        base3=base3,
        base2={(n, n, 1): one},
        basis_names=("1", "h") + tuple(f"h^{k}" for k in range(2, size)),
    )
    validate_target(td)
    return td


def wdvv_strata(td, max_n: int) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    """The twisted invariants of ``td`` with 4..max_n insertions, each
    stratum of n insertions solved as one exact linear system: an oracle
    for the engine that reads only ``td`` and ``forced_degree``.

    A class is twisted when it is neither the identity nor a divisor.
    The unknowns of stratum n are the twisted n-insertion multisets with
    a forced degree.  The equations are the WDVV relations on n + 1
    insertions whose fixed slot g4 is a divisor, whose fixed slots g1,
    g2, g3 are twisted or divisor classes and whose n - 3 deltas are
    twisted.  A factor that holds the identity or a divisor is brought
    down by that axiom, one of three insertions is read from
    ``td.base3`` and one of an earlier stratum is taken from this solve;
    what is left is an unknown, in a term whose other factor has three
    insertions.  The reconstruction theorem says the relations determine
    the unknowns, so each stratum must have full rank and every surplus
    relation must hold; an ``AssertionError`` names the stratum where
    either fails.

    Returns ``{(d, insertions): value}`` for every unknown, zeros
    included, with sorted insertions and d the forced degree.
    """
    ident = td.fundamental_index
    divisor = td.divisor_degree
    orbdeg = td.orbdeg
    twisted = tuple(k for k in range(td.basis_size) if k != ident and k not in divisor)
    slots = twisted + tuple(sorted(divisor))
    ginv = td.pairing_inverse_entries
    # The fixed slots (g1, g2, g3, g4) by the sum of their orbifold degrees;
    # swapping g2 and g3 only negates a relation, so g2 < g3.
    by_weight: dict[Fraction, list[tuple[int, int, int, int]]] = {}
    for g4 in sorted(divisor):
        for g1 in slots:
            for g2, g3 in itertools.combinations(slots, 2):
                fixed = (g1, g2, g3, g4)
                by_weight.setdefault(sum(orbdeg[k] for k in fixed), []).append(fixed)
    solved: dict[tuple[int, ...], Fraction] = {}  # the strata solved so far
    factors: dict[tuple[int, ...], tuple] = {}

    def factor(ins):
        """(c, key) for sorted ``ins``: its invariant at the forced degree
        is c, times the unknown ``key`` unless that is ``None``; c is 0
        when no degree is forced."""
        found = factors.get(ins)
        if found is not None:
            return found
        d = forced_degree(td, ins)
        c = Fraction(d is not None)
        rest = list(ins)
        while c and len(rest) > 3:
            div = next((k for k in rest if k in divisor), None)
            if ident in rest:
                c = 0
            elif div is not None:
                c *= d * divisor[div]
                rest.remove(div)
            else:
                break
        key = tuple(rest)
        if c and len(key) == 3:
            c *= td.base3.get((*key, d), 0)
        elif c and key in solved:
            c *= solved[key]
        elif c:
            return c, key  # an unknown of the stratum being solved
        found = factors[ins] = c, None
        return found

    for n in range(4, max_n + 1):
        unknowns = (
            key
            for key in itertools.combinations_with_replacement(twisted, n)
            if forced_degree(td, key) is not None
        )
        index = {key: col for col, key in enumerate(unknowns)}
        pivots: dict[int, list[Fraction]] = {}
        for deltas in itertools.combinations_with_replacement(twisted, n - 3):
            # Each term's two factors hold the n + 1 insertions and an
            # inverse-pairing pair, whose orbifold degrees add up to 2 dim,
            # on n + 3 points.  By the degree axiom of both, a relation is
            # empty unless 2 c1 beta = weight - 2 dim - 2 (n - 3) for an
            # integer beta = d1 + d2 >= 0.
            rest = sum((orbdeg[k] for k in deltas), -2 * td.dim - 2 * (n - 3))
            splits = None
            for weight, fixed in by_weight.items():
                beta = (weight + rest) / (2 * td.c1_degree)
                if beta < 0 or beta.denominator != 1:
                    continue
                if splits is None:
                    splits = _multiset_splits(deltas)
                for g1, g2, g3, g4 in fixed:
                    row = [Fraction(0)] * (len(index) + 1)
                    for x, y, sign in ((g2, g3, 1), (g3, g2, -1)):
                        for left, right, mult in splits:
                            for i, j, g in ginv:
                                lc, lkey = factor(tuple(sorted((g1, x, i) + left)))
                                if not lc:
                                    continue
                                rc, rkey = factor(tuple(sorted((j, y, g4) + right)))
                                if not rc:
                                    continue
                                key = lkey or rkey
                                row[index[key] if key else -1] += sign * mult * g * lc * rc
                    _eliminate(pivots, row, f"{(g1, g2, g3, g4) + deltas} at n={n}")
        missing = [key for key, col in index.items() if col not in pivots]
        assert not missing, (
            f"stratum n={n} of {td.id} has rank {len(pivots)} for {len(index)} "
            f"unknowns; {missing[0]} is not determined"
        )
        for key, col in index.items():
            solved[key] = -pivots[col][-1]
    return {(forced_degree(td, key), key): value for key, value in solved.items()}


def _multiset_splits(deltas):
    """(left, right, weight) for every split of the sorted ``deltas`` into
    two sub-multisets, weighted by the number of subsets it stands for."""
    counts = [(k, deltas.count(k)) for k in sorted(set(deltas))]
    splits = []
    for take in itertools.product(*(range(m + 1) for _, m in counts)):
        left, right, weight = (), (), 1
        for (k, m), a in zip(counts, take):
            left += (k,) * a
            right += (k,) * (m - a)
            weight *= comb(m, a)
        splits.append((left, right, weight))
    return splits


def _eliminate(pivots, row, relation) -> None:
    """Reduce ``row`` (coefficients of the unknowns, then the constant)
    by ``pivots``, each a row with 1 at its column and 0 at every other
    pivot column, and keep what is left as a new pivot; a row left with
    no coefficient is a surplus relation and must hold."""
    for col, prow in pivots.items():
        c = row[col]
        if c:
            row = [a - c * p for a, p in zip(row, prow)]
    col = next((col for col, c in enumerate(row[:-1]) if c), None)
    if col is None:
        assert not row[-1], f"surplus relation {relation} fails by {row[-1]}"
        return
    row = [a / row[col] for a in row]
    for other, prow in pivots.items():
        p = prow[col]
        if p:
            pivots[other] = [a - p * r for a, r in zip(prow, row)]
    pivots[col] = row
