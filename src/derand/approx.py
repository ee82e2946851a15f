"""Sparse multilinear sign-polynomial algebra and sandwich composition.

Polynomials live on {-1,+1}^n in the monomial basis prod_{i in I} x_i,
stored as a map from frozen index sets to coefficients with no zero
entries; since x_i^2 = 1, products reduce by symmetric difference of
the index sets.  The L1 norm (sum of |coefficients|) is the complexity
measure that transfers fooling from characters to the represented
function: a pair of polynomials squeezing f pointwise with expected gap
g yields |E_D[f] - E[f]| <= g + L1 * bias for any bias-bounded D.

Composition and verification are exact and run on integer coefficient
vectors indexed by bitmask, scaled by their least common denominator.
Composing k sandwich pairs on disjoint blocks of w variables in all
takes Kronecker products of per-block vectors, O(2^k 2^w).  Verifying a
pair, exhaustively up to EXHAUSTIVE_POINT_LIMIT variables, takes one
Walsh-Hadamard transform per polynomial for its values on every point
of {-1,+1}^n, O(n 2^n) rather than O(4^n); above that limit the check
is refused.  ``MultilinearPoly.__mul__`` and ``evaluate`` stay as the
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import lcm, prod
from typing import Callable, Iterable, Sequence, Tuple

import numpy as np

from .signs import walsh_hadamard

EXHAUSTIVE_POINT_LIMIT = 20


@dataclass(frozen=True)
class MultilinearPoly:
    n: int
    terms: dict  # frozenset index set -> coefficient

    def __post_init__(self):
        for idx, coeff in self.terms.items():
            if coeff == 0:
                raise ValueError("zero coefficients must not be stored")
            if any(not 0 <= i < self.n for i in idx):
                raise ValueError("monomial index outside the ambient variables")

    @classmethod
    def build(cls, n: int, entries: Iterable[Tuple[Iterable[int], Fraction]]) -> "MultilinearPoly":
        acc: dict = {}
        for idx, coeff in entries:
            key = frozenset(idx)
            acc[key] = acc.get(key, Fraction(0)) + coeff
        return cls(n, {k: v for k, v in acc.items() if v != 0})

    @classmethod
    def constant(cls, n: int, value) -> "MultilinearPoly":
        return cls.build(n, [((), Fraction(value))])

    def l1(self) -> Fraction:
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def expectation(self) -> Fraction:
        """E over uniform signs: only the empty monomial survives."""
        return self.terms.get(frozenset(), Fraction(0))

    def evaluate(self, x) -> Fraction:
        if len(x) != self.n:
            raise ValueError("assignment length mismatch")
        return sum((coeff * prod(x[i] for i in idx) for idx, coeff in self.terms.items()),
                   Fraction(0))

    def _binop(self, other, sub: bool) -> "MultilinearPoly":
        if isinstance(other, (int, Fraction)):
            other = MultilinearPoly.constant(self.n, other)
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        return MultilinearPoly.build(self.n, [*self.terms.items(), *(
            (idx, -coeff if sub else coeff) for idx, coeff in other.terms.items())])

    def __add__(self, other):
        return self._binop(other, sub=False)

    def __sub__(self, other):
        return self._binop(other, sub=True)

    def __rsub__(self, other):
        return MultilinearPoly.constant(self.n, other) - self

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultilinearPoly(self.n, {k: v * other for k, v in self.terms.items() if other})
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        acc: dict = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                key = i1.symmetric_difference(i2)
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return MultilinearPoly(self.n, {k: v for k, v in acc.items() if v != 0})

    __rmul__ = __mul__

    def variables(self) -> frozenset:
        return frozenset().union(*self.terms)


@dataclass(frozen=True)
class SandwichPair:
    """Lower and upper polynomial bounds with their expected gap."""

    lower: MultilinearPoly
    upper: MultilinearPoly
    gap: Fraction  # E[upper - lower] under uniform signs

    @classmethod
    def of(cls, lower: MultilinearPoly, upper: MultilinearPoly) -> "SandwichPair":
        return cls(lower=lower, upper=upper,
                   gap=upper.expectation() - lower.expectation())

    @classmethod
    def exact(cls, poly: MultilinearPoly) -> "SandwichPair":
        return cls(lower=poly, upper=poly, gap=Fraction(0))

    def max_l1(self) -> Fraction:
        return max(self.lower.l1(), self.upper.l1())


def clause_poly(n: int, literals) -> MultilinearPoly:
    """Exact polynomial of an OR of literals: 1 - prod (1 - lit)/2."""
    miss = MultilinearPoly.constant(n, 1)
    for lit in literals:
        sign = Fraction(1 if lit.negated else -1, 2)
        miss = miss * MultilinearPoly.build(n, [((), Fraction(1, 2)), ((lit.index,), sign)])
    return MultilinearPoly.constant(n, 1) - miss


def rcnf_poly(f) -> MultilinearPoly:
    """Exact polynomial of a read-once CNF (product of clause polynomials)."""
    if f.is_false:
        return MultilinearPoly(f.n, {})
    poly = MultilinearPoly.constant(f.n, 1)
    for clause in f.clauses:
        poly = poly * clause_poly(f.n, clause)
    return poly


# ---------------------------------------------------------------------------
# Sandwich composition through a multilinear combiner
# ---------------------------------------------------------------------------

def _scaled_coeffs(terms: dict, pos) -> tuple:
    """(vec, d): d times each coefficient as a Python int, at the bitmask
    with bit pos[i] set for each index i of its monomial; vec has
    2^len(pos) entries and d is the least common denominator."""
    d = lcm(*(c.denominator for c in terms.values()))
    vec = np.zeros(1 << len(pos), dtype=object)
    for idx, coeff in terms.items():
        vec[sum(1 << pos[i] for i in idx)] = coeff.numerator * (d // coeff.denominator)
    return vec, d


def xor_compose(n: int, combiner_table: Sequence, pairs: Sequence[SandwichPair]) -> SandwichPair:
    """Compose per-block sandwich pairs through a multilinear combiner.

    ``combiner_table`` lists the combiner's values on {0,1}^k indexed
    by subset bitmask (bit i set means block i evaluates to 1); values
    must lie in [0,1].  The blocks must touch disjoint variables.  For
    ``eps``-sandwiching components of L1 norm at most t, the output is
    (16^k eps)-sandwiching with L1 norm at most 4^k (t+1)^k; callers
    verify those guarantees numerically rather than trusting them.

    With U_mask the product over blocks of upper_i (bit i of mask set)
    or 1 - lower_i, the output is sum c_mask U_mask over
    sum c_mask (1 - sum U + U_mask).  Each U_mask, and sum U, is a
    Kronecker product of integer vectors over the blocks' own variables:
    O(2^k 2^w) integer operations for w block variables.
    """
    k = len(pairs)
    if len(combiner_table) != 1 << k:
        raise ValueError("combiner table must have 2^k entries")
    table = [Fraction(v) for v in combiner_table]
    if any(not 0 <= v <= 1 for v in table):
        raise ValueError("combiner values must lie in [0,1]")
    if any(p.lower.n != n or p.upper.n != n for p in pairs):
        raise ValueError("ambient variable counts differ")
    blocks = [sorted(p.lower.variables() | p.upper.variables()) for p in pairs]
    order = [v for block in blocks for v in block]  # bit j of an output index is order[j]
    if len(set(order)) != len(order):
        raise ValueError("component blocks must be on disjoint variables")

    t_den = lcm(*(v.denominator for v in table))
    weights = [v.numerator * (t_den // v.denominator) for v in table]
    factors, d_blocks = [], 1  # per block: (1 - lower_i, upper_i) times one denominator
    for p, block in zip(pairs, blocks):
        pos = {v: j for j, v in enumerate(block)}
        (miss, d_miss), (hit, d_hit) = (_scaled_coeffs(q.terms, pos) for q in (1 - p.lower, p.upper))
        d = lcm(d_miss, d_hit)
        factors.append((miss * (d // d_miss), hit * (d // d_hit)))
        d_blocks *= d

    def kron(vecs):  # the first block takes the low bits
        return reduce(lambda out, vec: np.multiply.outer(vec, out).ravel(), vecs, np.ones(1, object))

    h_u = sum((w * kron(f[mask >> i & 1] for i, f in enumerate(factors))
               for mask, w in enumerate(weights) if w), np.zeros(1 << len(order), object))
    h_l = h_u - sum(weights) * kron(miss + hit for miss, hit in factors)
    h_l[0] += sum(weights) * d_blocks
    return SandwichPair.of(*(MultilinearPoly(n, {
        frozenset(v for j, v in enumerate(order) if m >> j & 1): Fraction(c, t_den * d_blocks)
        for m, c in enumerate(vec.tolist()) if c}) for vec in (h_l, h_u)))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichReport:
    pointwise_ok: bool
    gap: Fraction
    l1_lower: Fraction
    l1_upper: Fraction
    points_checked: int
    worst_violation: Fraction
    # every check covers all 2^n points; perfbench/workloads.py reads this
    exhaustive = True


def _scaled_values(poly: MultilinearPoly) -> tuple:
    """(values, d): d * poly at every point of {-1,1}^n as Python ints.

    The values come from one integer Walsh-Hadamard transform of the
    scaled coefficients, O(n 2^n), listed in
    itertools.product((-1, 1), repeat=n) order.
    """
    vec, d = _scaled_coeffs(poly.terms, range(poly.n))
    # entry m is the point with x_i = -1 iff bit i of m is set; reversing the
    # axes puts x_0 first and reversing the order puts -1 before +1
    values = walsh_hadamard(vec).reshape((2,) * poly.n).T.ravel()[::-1]
    return values.tolist(), d


def verify_sandwich(target: Callable, pair: SandwichPair, n: int) -> SandwichReport:
    """Check lower <= target <= upper on every point, report the gap and norms.

    Each polynomial's values on all 2^n points come from one exact
    Walsh-Hadamard transform, and ``target`` is called once per point.
    ``target`` maps a sign tuple to a number.  Refused (ValueError)
    above EXHAUSTIVE_POINT_LIMIT variables, before ``target`` is called.
    """
    if n > EXHAUSTIVE_POINT_LIMIT:
        raise ValueError(f"{n} variables exceed the exhaustive sandwich check's limit "
                         f"of {EXHAUSTIVE_POINT_LIMIT}")
    ok = True
    worst = Fraction(0)
    if pair.lower.n != n or pair.upper.n != n:
        raise ValueError("assignment length mismatch")
    lower, lo_den = _scaled_values(pair.lower)
    upper, hi_den = _scaled_values(pair.upper)
    for x, lo, hi in zip(product((-1, 1), repeat=n), lower, upper):
        tv = Fraction(target(x))
        num, den = tv.numerator, tv.denominator
        # lo / lo_den > tv  or  tv > hi / hi_den, in integers
        if lo * den > num * lo_den or num * hi_den > hi * den:
            ok = False
            worst = max(worst, Fraction(lo, lo_den) - tv, tv - Fraction(hi, hi_den))
    return SandwichReport(
        pointwise_ok=ok,
        gap=pair.upper.expectation() - pair.lower.expectation(),
        l1_lower=pair.lower.l1(),
        l1_upper=pair.upper.l1(),
        points_checked=1 << n,
        worst_violation=worst,
    )
