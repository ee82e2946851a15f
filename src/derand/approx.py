"""Sparse multilinear sign-polynomial algebra and sandwich composition.

Polynomials live on {-1,+1}^n in the monomial basis prod_{i in I} x_i,
stored as a map from frozen index sets to coefficients with no zero
entries; since x_i^2 = 1, products reduce by symmetric difference of
the index sets.  The L1 norm (sum of |coefficients|) is the complexity
measure that transfers fooling from characters to the represented
function: a pair of polynomials squeezing f pointwise with expected gap
g yields |E_D[f] - E[f]| <= g + L1 * bias for any bias-bounded D.

Sandwich verification is exact and exhaustive up to
EXHAUSTIVE_POINT_LIMIT variables, in O(n 2^n) rather than O(4^n): the
coefficients are scaled by their least common denominator, and one
integer Walsh-Hadamard transform then yields the polynomial's values on
every point of {-1,+1}^n.  ``MultilinearPoly.evaluate`` stays as the
point-by-point oracle and serves the statistical mode above that limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
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

    @classmethod
    def variable(cls, n: int, i: int) -> "MultilinearPoly":
        return cls.build(n, [((i,), Fraction(1))])

    def coefficient(self, idx: Iterable[int]) -> Fraction:
        return self.terms.get(frozenset(idx), Fraction(0))

    def l1(self) -> Fraction:
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def expectation(self) -> Fraction:
        """E over uniform signs: only the empty monomial survives."""
        return self.coefficient(())

    def evaluate(self, x) -> Fraction:
        if len(x) != self.n:
            raise ValueError("assignment length mismatch")
        total = Fraction(0)
        for idx, coeff in self.terms.items():
            sign = 1
            for i in idx:
                sign *= x[i]
            total += coeff * sign
        return total

    def _binop(self, other: "MultilinearPoly", sub: bool) -> "MultilinearPoly":
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        acc = dict(self.terms)
        for idx, coeff in other.terms.items():
            acc[idx] = acc.get(idx, Fraction(0)) + (-coeff if sub else coeff)
        return MultilinearPoly(self.n, {k: v for k, v in acc.items() if v != 0})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultilinearPoly.constant(self.n, other)
        return self._binop(other, sub=False)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultilinearPoly.constant(self.n, other)
        return self._binop(other, sub=True)

    def __rsub__(self, other):
        return MultilinearPoly.constant(self.n, other) - self

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultilinearPoly(self.n, {})
            return MultilinearPoly(self.n, {k: v * other for k, v in self.terms.items()})
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
        out: set = set()
        for idx in self.terms:
            out |= idx
        return frozenset(out)

    def to_json(self) -> list:
        return [
            {"indices": sorted(idx), "coeff": str(coeff)}
            for idx, coeff in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        ]

    @classmethod
    def from_json(cls, n: int, data: list) -> "MultilinearPoly":
        return cls.build(n, [(rec["indices"], Fraction(rec["coeff"])) for rec in data])


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

    def fooling_bound(self, bias: Fraction) -> Fraction:
        return self.gap + self.max_l1() * Fraction(bias)


# ---------------------------------------------------------------------------
# Exact polynomials of conjunctions of parities
# ---------------------------------------------------------------------------

def and_of_parities_poly(n: int, terms: Sequence[Tuple[Sequence[int], int]]) -> MultilinearPoly:
    """Exact polynomial of an AND of parity constraints, L1 at most 1.

    Each term is (indices, target sign): the constraint holds when the
    product of the listed signs equals the target.  Terms must be on
    disjoint variables; each factor (1 + target * x^S)/2 keeps the
    product's L1 norm at 1.
    """
    seen: set = set()
    for idx, _ in terms:
        s = set(idx)
        if s & seen:
            raise ValueError("parity terms must be on disjoint variables")
        seen |= s
    poly = MultilinearPoly.constant(n, 1)
    for idx, target in terms:
        if target not in (-1, 1):
            raise ValueError("parity target must be a sign")
        factor = MultilinearPoly.build(
            n, [((), Fraction(1, 2)), (tuple(idx), Fraction(target, 2))]
        )
        poly = poly * factor
    return poly


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

def xor_compose(n: int, combiner_table: Sequence, pairs: Sequence[SandwichPair]) -> SandwichPair:
    """Compose per-block sandwich pairs through a multilinear combiner.

    ``combiner_table`` lists the combiner's values on {0,1}^k indexed
    by subset bitmask (bit i set means block i evaluates to 1); values
    must lie in [0,1].  The blocks must touch disjoint variables.  For
    ``eps``-sandwiching components of L1 norm at most t, the output is
    (16^k eps)-sandwiching with L1 norm at most 4^k (t+1)^k; callers
    verify those guarantees numerically rather than trusting them.
    """
    k = len(pairs)
    if len(combiner_table) != 1 << k:
        raise ValueError("combiner table must have 2^k entries")
    if any(not 0 <= Fraction(v) <= 1 for v in combiner_table):
        raise ValueError("combiner values must lie in [0,1]")
    blocks = [p.lower.variables() | p.upper.variables() for p in pairs]
    for i in range(k):
        for j in range(i + 1, k):
            if blocks[i] & blocks[j]:
                raise ValueError("component blocks must be on disjoint variables")

    one = MultilinearPoly.constant(n, 1)
    uppers: dict = {}
    for mask in range(1 << k):
        m = one
        for i in range(k):
            m = m * (pairs[i].upper if (mask >> i) & 1 else one - pairs[i].lower)
        uppers[mask] = m
    sum_uppers = one * 0
    for mask in range(1 << k):
        sum_uppers = sum_uppers + uppers[mask]
    lowers = {mask: one - (sum_uppers - uppers[mask]) for mask in range(1 << k)}

    h_u = one * 0
    h_l = one * 0
    for mask in range(1 << k):
        c = Fraction(combiner_table[mask])
        if c == 0:
            continue
        h_u = h_u + c * uppers[mask]
        h_l = h_l + c * lowers[mask]
    return SandwichPair.of(h_l, h_u)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichReport:
    pointwise_ok: bool
    gap: Fraction
    l1_lower: Fraction
    l1_upper: Fraction
    fooling_bound: Fraction | None
    exhaustive: bool
    points_checked: int
    worst_violation: Fraction


def _scaled_values(poly: MultilinearPoly) -> tuple:
    """(values, d): d * poly at every point of {-1,1}^n as Python ints.

    d is the least common denominator of the coefficients.  The values
    come from one integer Walsh-Hadamard transform of the scaled
    coefficients, O(n 2^n), listed in itertools.product((-1, 1), repeat=n)
    order.
    """
    d = lcm(*(c.denominator for c in poly.terms.values()))
    vec = np.zeros(1 << poly.n, dtype=object)
    for idx, coeff in poly.terms.items():
        vec[sum(1 << i for i in idx)] = coeff.numerator * (d // coeff.denominator)
    # entry m is the point with x_i = -1 iff bit i of m is set; reversing the
    # axes puts x_0 first and reversing the order puts -1 before +1
    values = walsh_hadamard(vec).reshape((2,) * poly.n).T.ravel()[::-1]
    return values.tolist(), d


def verify_sandwich(target: Callable, pair: SandwichPair, n: int,
                    bias: Fraction | None = None, sample_points: int = 4096,
                    rng=None) -> SandwichReport:
    """Check lower <= target <= upper, report the gap and norms.

    Exhaustive for n <= EXHAUSTIVE_POINT_LIMIT: each polynomial's values
    on all 2^n points come from one exact Walsh-Hadamard transform, and
    ``target`` is called once per point.  Otherwise a declared-size
    random sample (statistical mode), evaluated point by point.
    ``target`` maps a sign tuple to a number.
    """
    exhaustive = n <= EXHAUSTIVE_POINT_LIMIT
    ok = True
    worst = Fraction(0)
    if exhaustive:
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
        count = 1 << n
    else:
        import random

        rng = rng or random.Random(0)
        for _ in range(sample_points):
            x = tuple(rng.choice((-1, 1)) for _ in range(n))
            lo = pair.lower.evaluate(x)
            hi = pair.upper.evaluate(x)
            tv = Fraction(target(x))
            if lo > tv or tv > hi:
                ok = False
                worst = max(worst, lo - tv, tv - hi)
        count = sample_points
    return SandwichReport(
        pointwise_ok=ok,
        gap=pair.upper.expectation() - pair.lower.expectation(),
        l1_lower=pair.lower.l1(),
        l1_upper=pair.upper.l1(),
        fooling_bound=None if bias is None else pair.fooling_bound(bias),
        exhaustive=exhaustive,
        points_checked=count,
        worst_violation=worst,
    )
