"""The target datum: everything every command reads of a target geometry.

A target geometry enters this package as a :class:`TargetData`: a graded
basis of (orbifold) cohomology classes, the intersection pairing, the
divisor classes with their degrees, and the 2- and 3-point genus-zero
structure constants at each curve degree.  Everything else is derived
from these, including the divisor factorization of each basis class
that is neither the identity nor a divisor, which the reconstruction
engine pivots on.  Two constructors are built in,

* :func:`build_p1b` -- the weighted projective line P(1,b), whose
  orbifold cohomology has basis 1, a, a^2, ..., a^(b-1), x where a
  generates the twisted sectors and x = a^b is the untwisted divisor
  class (hyperplane of degree 1/b).  The small quantum ring is
  Q[q][a] / (b a^(b+1) - q).
* :func:`build_p2` -- the projective plane with basis 1, h, h^2, whose
  small quantum ring is Q[q][h] / (h^3 - q).

This module also holds :func:`validate_target`, the golden table's
orders and the multiplicity-vector converters.  It is the one gwstack
module every CLI command imports; the arithmetic in the small quantum
ring lives in :mod:`gwstack.ring`, which only the ``ring`` command loads.
Everything downstream (the quantum product, specializations at a chosen
value of q, the reconstruction engine) is driven by the datum alone.
Every coefficient this module returns is a ``fractions.Fraction``; the
work beneath them, and the engine's tables (``td.plan``), run on integers
over common denominators.  No floating point number appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Mapping, NamedTuple, Optional

ZERO = Fraction(0)
ONE = Fraction(1)

Matrix = tuple[tuple[Fraction, ...], ...]


class DivisorStep(NamedTuple):
    """A single-term divisor factorization of one basis class.

    Records that a_partner * a_divisor = coeff q^shift a_target in the
    small quantum ring, i.e. the product table entry
    ``products[partner][divisor]`` is the single term
    ``(shift, target, coeff)``.  The reconstruction engine pivots on
    these records; :attr:`TargetData.divisor_factorization` finds them.
    """

    partner: int
    divisor: int
    shift: int
    coeff: Fraction


class Grading(NamedTuple):
    """The degree axiom of one target in integer arithmetic.

    A nonzero n-point invariant at degree d has insertion degrees with
    sum(orbdeg) = 2 d c1 + 2 dim + 2(n - 3).  With ``scale`` clearing
    every denominator, ``weights[k]`` is orbdeg_k * scale / 2, ``c1``
    and ``dim`` are the scaled c1 degree and dimension, and the axiom
    reads sum(weights) = c1 d + dim + scale (n - 3).  A grading equals
    the plain tuple ``(weights, scale, c1, dim)``.
    """

    weights: tuple[int, ...]
    scale: int
    c1: int
    dim: int

    def degree(self, wsum: int, n: int) -> Optional[int]:
        """The degree forced on n insertions of total weight ``wsum``.

        ``None`` when no nonnegative integer degree satisfies the axiom.
        """
        d, r = divmod(wsum - self.dim - self.scale * (n - 3), self.c1)
        if r or d < 0:
            return None
        return d

    def forced(self, insertions) -> Optional[int]:
        """The unique curve degree allowed for these insertions, if any."""
        ins = tuple(insertions)
        if len(ins) < 2:
            raise ValueError("at least two insertions are required")
        return self.degree(sum(self.weights[k] for k in ins), len(ins))


class _TargetFields(NamedTuple):
    id: str
    orbdeg: tuple[Fraction, ...]
    dim: Fraction
    c1_degree: Fraction
    fundamental_index: int
    divisor_degree: Mapping[int, Fraction]
    pairing: Matrix
    base3: Mapping[tuple[int, int, int, int], Fraction]
    base2: Mapping[tuple[int, int, int], Fraction]
    basis_names: tuple[str, ...]


class TargetData(_TargetFields):
    """Finite description of one target geometry.

    The fields are immutable: assigning one raises ``AttributeError``,
    and the mapping fields are never mutated after construction.
    Instances compare and hash by identity, since the mapping fields are
    not hashable.  ``_replace`` gives a new instance with some fields
    changed.  The data derived from the fields (``grading``, ``power_basis``,
    ``pairing_inverse_entries``, ``products``, ``divisor_factorization``,
    ``pivot_rank``, the engine's ``plan`` and the checks of
    :func:`validate_target`, which ``plan`` runs first) is computed on
    first use and cached per instance, so a replaced instance computes
    its own; a refusal is not cached.
    ``divisor_degree`` maps each divisor class to its degree; every
    consumer takes the divisors in its key order.
    """

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def basis_size(self) -> int:
        return len(self.orbdeg)

    @cached_property
    def grading(self) -> Grading:
        """The degree axiom in integer form."""
        c1, dim = self.c1_degree, self.dim
        # p/q halved has the denominator 2q / gcd(p, 2).
        halves = (2 * f.denominator // gcd(f.numerator, 2) for f in self.orbdeg)
        scale = lcm(*halves, c1.denominator, dim.denominator)
        return Grading(
            weights=tuple(f.numerator * scale // (2 * f.denominator) for f in self.orbdeg),
            scale=scale,
            c1=c1.numerator * scale // c1.denominator,
            dim=dim.numerator * scale // dim.denominator,
        )

    @cached_property
    def power_basis(self) -> Optional[int]:
        """b when the basis is laid out as P(1,b)'s powers a^0..a^b, else ``None``.

        That layout is b + 1 classes of weights 0..b over a grading scale
        of at least b, the identity first and x = a^b as the only divisor.
        Enumeration over exponents and the multiplicity-vector formats
        read class k as a^k, of weight k.
        """
        weights, scale, _, _ = self.grading
        b = len(weights) - 1
        layout = weights == tuple(range(b + 1)) and b <= scale and self.fundamental_index == 0
        return b if layout and list(self.divisor_degree) == [b] else None

    @cached_property
    def _pairing_rows(self) -> tuple[dict[int, Fraction], ...]:
        # The one scan of the pairing: each row's nonzero entries by column.
        # The shared ZERO of the constructors skips Fraction.__bool__.
        return tuple({j: g for j, g in enumerate(row) if g is not ZERO and g} for row in self.pairing)

    @cached_property
    def pairing_inverse_entries(self) -> tuple[tuple[int, int, Fraction], ...]:
        """The nonzero entries of the inverse pairing as ``(i, j, g)``, row by row."""
        return tuple(
            (i, j, row[j]) for i, row in enumerate(_invert(self._pairing_rows)) for j in sorted(row)
        )

    @cached_property
    def products(self) -> tuple:
        """Basis product table by pairing contraction.

        ``products[i][j]`` holds the nonzero terms of a_i * a_j as
        ``(q_degree, basis_index, coeff)`` triples sorted by degree,
        then index, computed from the 3-point constants alone:
        a_i * a_j = sum_d q^d sum_{k,l} <a_i, a_j, a_k>_d g^{kl} a_l.
        A pair i <= j is keyed by the sorted tuple of its constants (k, d,
        v), v the integer numerator over their lcm denominator.  As g is
        invertible and no v is 0, pairs share a cell exactly when they
        share that key, so the integer contraction runs once per distinct
        key; equal cells are one tuple, each coefficient one ``Fraction``.
        """
        cells, index, _, _ = self._product_cells
        return tuple(tuple(map(cells.__getitem__, row)) for row in index)

    @cached_property
    def _product_cells(self) -> tuple[tuple, tuple[tuple[int, ...], ...], tuple, int]:
        # The distinct cells of ``products`` (the empty one first), each entry's
        # cell index, the cells as integer terms (d, l, c) over den, and den.
        size = self.basis_size
        entries = self.pairing_inverse_entries
        g_den = lcm(*(g.denominator for _, _, g in entries))
        v_den = lcm(*(v.denominator for v in self.base3.values()))
        ginv_rows = [[] for _ in range(size)]
        for k, l, g in entries:
            ginv_rows[k].append((l, g.numerator * (g_den // g.denominator)))
        held: dict[tuple[int, int], tuple] = {}  # pair -> its constants (k, d, v)
        for (i, j, k, d), val in self.base3.items():  # i <= j <= k: each pair is in order
            v = val.numerator * (v_den // val.denominator)
            held[i, j] = held.get((i, j), ()) + ((k, d, v),)
            if j != k:
                held[i, k] = held.get((i, k), ()) + ((j, d, v),)
            if i != j:
                held[j, k] = held.get((j, k), ()) + ((i, d, v),)
        den, coeff, position = v_den * g_den, {}, {}  # position: sorted constants -> cell
        cells, ints, index = [()], [()], [[0] * size for _ in range(size)]
        for (x, y), consts in held.items():
            if len(consts) > 1:
                consts = tuple(sorted(consts))
            k = position.get(consts)
            if k is None:
                acc: dict[tuple[int, int], int] = {}
                for m, d, v in consts:
                    for l, g in ginv_rows[m]:
                        acc[d, l] = acc.get((d, l), 0) + v * g
                terms = [(d, l, c) for (d, l), c in sorted(acc.items()) if c]
                coeff.update({c: Fraction(c, den) for _, _, c in terms if c not in coeff})
                k = position[consts] = len(cells)
                cells.append(tuple([(d, l, coeff[c]) for d, l, c in terms]))
                ints.append(tuple(terms))
            index[x][y] = index[y][x] = k
        return tuple(cells), tuple(map(tuple, index)), tuple(ints), den

    @cached_property
    def divisor_factorization(self) -> dict[int, DivisorStep]:
        """The divisor factorization of each class that is neither the
        identity nor a divisor.

        Class t gets the first (divisor, partner) pair, divisors in
        ``divisor_degree`` order and partners by index, whose product
        ``products[partner][divisor]`` is a single term on t.  A class
        with no such pair means the divisors do not generate the ring
        in this way, and the First Reconstruction Theorem's hypothesis
        fails; ``ValueError`` names the class.
        """
        steps: dict[int, DivisorStep] = {}
        for div in self.divisor_degree:
            for partner, terms in enumerate(self.products):
                if len(terms[div]) == 1:
                    shift, t, coeff = terms[div][0]
                    steps.setdefault(t, DivisorStep(partner, div, shift, coeff))
        out = {}
        for t in range(self.basis_size):
            if t == self.fundamental_index or t in self.divisor_degree:
                continue
            if t not in steps:
                raise ValueError(
                    f"basis class {t} is not a single-term product of a divisor "
                    f"and a basis class, so the divisors do not generate the "
                    f"ring; see divisor_generation_check"
                )
            out[t] = steps[t]
        return out

    @cached_property
    def pivot_rank(self) -> tuple[int, ...]:
        """The length of each class's partner chain down to the identity
        or a divisor, indexed by class.

        The identity and the divisors have rank 0, and a class t of
        :attr:`divisor_factorization` has rank(t) = rank(partner) + 1.
        The engine pivots on an insertion of lowest rank, and the
        swapped side of its WDVV relation replaces that insertion by
        the partner, one rank lower; this is what ends the recursion.
        A partner chain that returns to a class raises ``ValueError``
        naming it.
        """
        steps = self.divisor_factorization
        rank = {t: 0 for t in range(self.basis_size) if t not in steps}
        for start in steps:
            chain: dict[int, None] = {}
            t = start
            while t not in rank:
                if t in chain:
                    raise ValueError(
                        f"the partner chain of basis class {t} returns to it, so "
                        f"the engine has no pivot order on {self.id}"
                    )
                chain[t] = None
                t = steps[t].partner
            below = rank[t]
            for t in reversed(chain):
                below = rank[t] = below + 1
        return tuple(rank[t] for t in range(self.basis_size))

    @cached_property
    def _checked(self) -> None:
        # validate_target's checks; a refusal raises, so it is not cached.
        size, fund = self.basis_size, self.fundamental_index
        if not 0 <= fund < size:
            raise ValueError("fundamental index out of range")
        if self.orbdeg[fund] != 0:
            raise ValueError("the identity class must sit in degree 0")
        if self.c1_degree <= 0:
            raise ValueError("c1 degree must be positive")
        if len(self.pairing) != size or any(len(row) != size for row in self.pairing):
            raise ValueError("pairing matrix has the wrong shape")
        if len(self.basis_names) != size:
            raise ValueError(f"{len(self.basis_names)} basis names for {size} classes")
        rows = self._pairing_rows
        if any(rows[j].get(i) != g for i, row in enumerate(rows) for j, g in row.items()):
            raise ValueError("pairing matrix is not symmetric")
        self.pairing_inverse_entries  # raises if singular
        for div in self.divisor_degree:
            if div == fund or not 0 <= div < size:
                raise ValueError(f"bad divisor index {div}")
            if self.divisor_degree[div] <= 0:
                raise ValueError(f"divisor {div} needs a positive degree")

        # Degree homogeneity: every stored constant sits at its forced degree.
        weights, scale, c1, dim = self.grading
        for (i, j, k, d), val in self.base3.items():
            if not val:
                raise ValueError("zero entries must be omitted from base3")
            if d < 0 or not (0 <= i <= j <= k < size):
                raise ValueError(f"bad base3 key {(i, j, k, d)}")
            if weights[i] + weights[j] + weights[k] - dim != c1 * d:
                raise ValueError(f"base3 entry {(i, j, k, d)} violates the degree axiom")
        for (i, j, d), val in self.base2.items():
            if not val:
                raise ValueError("zero entries must be omitted from base2")
            if d < 1 or not (0 <= i <= j < size):
                raise ValueError(f"bad base2 key {(i, j, d)}")
            if weights[i] + weights[j] + scale - dim != c1 * d:
                raise ValueError(f"base2 entry {(i, j, d)} violates the degree axiom")

        # The identity is the unit of the quantum product.  As the pairing is
        # invertible, this says <1, a_i, a_j>_d = eta_ij at d = 0 and 0 at d > 0.
        _, index, ints, den = self._product_cells
        for j, k in enumerate(index[fund]):
            if ints[k] != ((0, j, den),):
                raise ValueError(f"the identity is not the unit of the quantum product at class {j}")

        # Divisor axiom: a divisor D's 3-point constants at d >= 1 are exactly
        # <a_i, a_j, D>_d = d deg(D) <a_i, a_j>_d.  The keys base2 asks for and
        # the base3 keys at d >= 1 that hold D (tested at k first, where sorted
        # keys hold a last divisor) are compared in sorted order on integers,
        # so the first that differs is named.
        for div, delta in self.divisor_degree.items():
            want = {(*sorted((i, j, div)), d): u for (i, j, d), u in self.base2.items()}
            have = {key: v for key, v in self.base3.items()
                    if key[3] and (key[2] == div or key[1] == div or key[0] == div)}
            p, q = delta.numerator, delta.denominator
            for key in sorted(want.keys() | have.keys()):
                v, u = have.get(key, ZERO), want.get(key, ZERO)
                if v.numerator * q * u.denominator != key[3] * p * u.numerator * v.denominator:
                    raise ValueError(
                        f"base3 entry {key} is {v}, but the divisor axiom gives {key[3] * delta * u}"
                    )

        self.pivot_rank  # raises if a class has no divisor factorization or one cycles

    @cached_property
    def plan(self):
        """The engine's tables for this target, gauge included (``engine.Plan``)."""
        from .engine import Plan

        return Plan(self)


# -- target constructors -----------------------------------------------------


def build_p1b(b: int) -> TargetData:
    """Target datum for the weighted projective line P(1,b).

    Basis class k (0 <= k <= b) is a^k of orbifold degree 2k/b; class 0
    is the identity and class b the untwisted divisor x of degree 1/b.
    The nonzero structure constants are

        <a^i, a^j, a^k>_0 = 1/b    when i + j + k = b,
        <a^i, a^j, a^k>_1 = 1/b^2  when i + j + k = 2b + 1,
        <a^i, a^j>_1      = 1/b    when i + j = b + 1,

    and the pairing is eta(a^i, a^j) = 1/b when i + j = b.  Every
    twisted class a^t with 1 <= t <= b - 1 factors through the divisor:
    a^(t+1) * x = (q/b) a^t.
    """
    if not isinstance(b, int) or isinstance(b, bool):
        raise TypeError(f"b must be an int, got {b!r}")
    if b < 1:
        raise ValueError(f"b must be positive, got {b}")
    size = b + 1
    inv_b = Fraction(1, b)
    orbdeg = tuple(Fraction(2 * k, b) for k in range(size))
    pairing = tuple((ZERO,) * (b - i) + (inv_b,) + (ZERO,) * i for i in range(size))
    inv_b2 = inv_b * inv_b
    base3: dict[tuple[int, int, int, int], Fraction] = {}
    for i in range(size):
        # The j <= b for which k = b - i - j, then k = 2b + 1 - i - j, is in [j, b].
        for j in range(i, (b - i) // 2 + 1):
            base3[(i, j, b - i - j, 0)] = inv_b
        for j in range(max(i, b + 1 - i), (2 * b + 1 - i) // 2 + 1):
            base3[(i, j, 2 * b + 1 - i - j, 1)] = inv_b2
    base2 = {(i, b + 1 - i, 1): inv_b for i in range(1, (b + 1) // 2 + 1)}
    names = ("1",) + tuple(f"a^{k}" for k in range(1, b)) + ("x",)
    td = TargetData(
        id=f"P(1,{b})",
        orbdeg=orbdeg,
        dim=Fraction(1),
        c1_degree=Fraction(b + 1, b),
        fundamental_index=0,
        divisor_degree={b: inv_b},
        pairing=pairing,
        base3=base3,
        base2=base2,
        basis_names=names,
    )
    validate_target(td)
    return td


# Rows of the shipped golden table per order of P(1,b).  They live here,
# not in golden, because the CLI's parser names TABLE_ORDERS and every
# command imports this module anyway.
ROW_COUNTS = {2: 1, 3: 3, 4: 9, 5: 22, 6: 46}
TABLE_ORDERS = tuple(sorted(ROW_COUNTS))


def insertions_from_mults(mults) -> tuple[int, ...]:
    """Expand a multiplicity vector (k_1, ..., k_{b-1}) to sorted exponents."""
    out = []
    for idx, count in enumerate(mults, start=1):
        if count < 0:
            raise ValueError(f"negative multiplicity in {tuple(mults)}")
        out.extend([idx] * count)
    return tuple(out)


def mults_from_insertions(b: int, insertions) -> tuple[int, ...]:
    """Inverse of :func:`insertions_from_mults`; exponents must be twisted
    non-divisor classes (1..b-1)."""
    counts = [0] * (b - 1)
    for k in insertions:
        if not 1 <= k <= b - 1:
            raise ValueError(
                f"exponent {k} has no slot in a multiplicity vector for b={b}"
            )
        counts[k - 1] += 1
    return tuple(counts)


def build_p2() -> TargetData:
    """Target datum for the projective plane.

    Basis 1, h, h^2 with h the hyperplane class; the only quantum
    corrections below the reconstruction threshold are
    <h^2, h^2, h>_1 = 1 and <h^2, h^2>_1 = 1 (one line through two
    points), and h^2 factors as h * h = h^2.
    """
    orbdeg = (Fraction(0), Fraction(2), Fraction(4))
    pairing = tuple(
        tuple(ONE if i + j == 2 else ZERO for j in range(3)) for i in range(3)
    )
    base3 = {
        (0, 0, 2, 0): ONE,
        (0, 1, 1, 0): ONE,
        (1, 2, 2, 1): ONE,
    }
    base2 = {(2, 2, 1): ONE}
    td = TargetData(
        id="P2",
        orbdeg=orbdeg,
        dim=Fraction(2),
        c1_degree=Fraction(3),
        fundamental_index=0,
        divisor_degree={1: ONE},
        pairing=pairing,
        base3=base3,
        base2=base2,
        basis_names=("1", "h", "h^2"),
    )
    validate_target(td)
    return td


# -- pairing inversion and structure constants -------------------------------


def _invert(rows) -> list[dict[int, Fraction]]:
    """The inverse of a square matrix given as the nonzero entries of its
    rows, by column (``TargetData._pairing_rows``), in the same form."""
    n = len(rows)
    # Integer Gauss-Jordan on [den * matrix | identity] by nonzero entries (holders[k]:
    # rows with one in column k); the row pivoting on col ends as pivot * inverse row / den.
    den = lcm(*(x.denominator for row in rows for x in row.values()))
    aug = [{k: x.numerator * (den // x.denominator) for k, x in row.items()} for row in rows]
    holders: list[set[int]] = [set() for _ in range(2 * n)]
    for r, row in enumerate(aug):
        row[n + r] = 1
        for k in row:
            holders[k].add(r)
    free, pivots = set(range(n)), []
    for col in range(n):
        piv = min(holders[col] & free, default=None)
        if piv is None:
            raise ValueError("pairing matrix is singular")
        free.remove(piv)
        pivots.append(piv)
        prow = aug[piv]
        for r in holders[col] - {piv}:
            # target <- (a target - c prow) / gcd clears column col.
            g = gcd(prow[col], aug[r][col])
            a, c = prow[col] // g, aug[r][col] // g
            target = {k: x * a for k, x in aug[r].items()}
            for k, x in prow.items():
                v = target.get(k, 0) - c * x
                if v:
                    target[k] = v
                    holders[k].add(r)
                else:
                    del target[k]
                    holders[k].discard(r)
            g = gcd(*target.values())
            aug[r] = {k: x // g for k, x in target.items()}
    return [{k - n: Fraction(den * x, aug[p][c]) for k, x in aug[p].items() if k >= n}
            for c, p in enumerate(pivots)]


def _noncommuting_triple(td: TargetData) -> Optional[tuple[int, int, int]]:
    """The first (x, i, k), x a divisor, at which ``td.products`` has
    (x a_i) a_k != (a_i a_k) x, or ``None``.

    The product is commutative, so this says that multiplication by each
    divisor commutes with every L_k.  Where the divisors generate the
    ring, the identity is a cyclic vector of theirs, so every L_k is a
    polynomial in them and the product is associative.  Terms are keyed
    by class alone: on a validated target, as ``Plan``'s is, a term's
    class fixes its q-degree.  Sides are summed only if their terms differ.
    """
    size = td.basis_size
    _, index, ints, _ = td._product_cells
    table = [list(map(ints.__getitem__, row)) for row in index]

    def total(terms):
        out: dict[int, int] = {}
        for key, v in terms:
            out[key] = out.get(key, 0) + v
        return {key: v for key, v in out.items() if v}

    for x in td.divisor_degree:
        by_x = table[x]
        for i, row in enumerate(table):
            for k in range(size):
                left = [(l, c * e) for _, m, c in by_x[i] for _, l, e in table[m][k]]
                right = [(l, c * e) for _, m, c in row[k] for _, l, e in by_x[m]]
                if left != right and total(left) != total(right):
                    return x, i, k
    return None


# -- construction-time validation --------------------------------------------


def validate_target(td: TargetData) -> None:
    """Check the internal consistency of a target datum.

    Raises ``ValueError`` on the first violation.  Everything here is a
    structural axiom the reconstruction engine relies on: degree
    homogeneity of every stored constant, the identity as the unit of
    the quantum product (at any basis index), divisor constants
    matching the 2-point data, one name per class, and a divisor
    factorization for every class that is neither the identity nor a
    divisor whose partner chains end (see
    :attr:`TargetData.divisor_factorization` and
    :attr:`TargetData.pivot_rank`).  Every engine's ``Plan`` runs them
    first.  They run once per instance; a refused target is checked again.
    """
    td._checked
