"""Elementary symmetric polynomials, power sums and truncation bounds.

All kernels run in exact rational arithmetic when handed Fractions and
in float64 when handed floats; the verification sweeps choose the mode
per check (identities exactly, large sweeps in floats with a stated
tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence, Tuple


def elem_sym_all(z: Sequence, up_to: int) -> list:
    """S_0..S_up_to of the given values, by the stable prefix DP.

    Multiplies out prod_i (1 + z_i t) keeping degrees <= up_to, O(m*k);
    S_k = 0 for k beyond len(z).
    """
    zero = z[0] * 0 if z else 0
    e = [zero] * (up_to + 1)
    e[0] = zero + 1
    for idx, zi in enumerate(z):
        top = min(up_to, idx + 1)
        for j in range(top, 0, -1):
            e[j] = e[j] + e[j - 1] * zi
    return e


def elem_sym_enumerated(z: Sequence, k: int):
    """Subset-enumeration oracle for S_k; exponential, test use only."""
    if k == 0:
        return (z[0] * 0 + 1) if z else 1
    total = 0
    for combo in combinations(z, k):
        prod = combo[0]
        for v in combo[1:]:
            prod = prod * v
        total = total + prod
    return total


def power_sums(z: Sequence, up_to: int) -> list:
    """E_1..E_up_to with E_k = sum_i z_i^k."""
    out = []
    powers = list(z)
    for k in range(1, up_to + 1):
        if k > 1:
            powers = [p * v for p, v in zip(powers, z)]
        out.append(sum(powers, z[0] * 0 if z else 0))
    return out


def newton_girard_residual(z: Sequence, up_to: int):
    """Max residual of S_k = (1/k) sum_i (-1)^(i-1) S_{k-i} E_i over k <= up_to."""
    S = elem_sym_all(z, up_to)
    E = power_sums(z, up_to)
    worst = abs(S[0] - S[0])  # typed zero
    for k in range(1, up_to + 1):
        acc = S[0] * 0
        for i in range(1, k + 1):
            term = S[k - i] * E[i - 1]
            acc = acc + term if i % 2 == 1 else acc - term
        recon = acc / k
        worst = max(worst, abs(S[k] - recon))
    return worst


@dataclass(frozen=True)
class BoundCheck:
    ok: bool
    hypotheses_ok: bool


def check_s1s2_bound(z: Sequence, mu, up_to: int) -> BoundCheck:
    """Verify |S_j| <= mu^j for 2 <= j <= up_to.

    Hypotheses |sum z_i| <= mu and sum z_i^2 <= mu^2 are checked first;
    inputs that fail them yield hypotheses_ok=False rather than a
    bound violation.
    """
    s1 = sum(z, z[0] * 0 if z else 0)
    sq = sum((v * v for v in z), z[0] * 0 if z else 0)
    if abs(s1) > mu or sq > mu * mu:
        return BoundCheck(ok=True, hypotheses_ok=False)
    S = elem_sym_all(z, up_to)
    bound = mu * mu
    for j in range(2, up_to + 1):
        if abs(S[j]) > bound:
            return BoundCheck(ok=False, hypotheses_ok=True)
        bound = bound * mu
    return BoundCheck(ok=True, hypotheses_ok=True)


# ---------------------------------------------------------------------------
# Truncated symmetric expansions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncationSpec:
    """P(z) = sum_{i<=m} c_i S_i(z) truncated at degree k, |c_i| <= C."""

    k: int
    coefficients: Tuple
    bound_c: Fraction

    def __post_init__(self):
        if any(abs(c) > self.bound_c for c in self.coefficients):
            raise ValueError("coefficient magnitude exceeds the declared bound C")


def _rational_root_upper(x: Fraction, k: int) -> Fraction:
    """A certified rational u with u^k >= x (and u close to x^(1/k))."""
    if x <= 0:
        return Fraction(0)
    guess = Fraction(int(float(x) ** (1.0 / k) * 10**9) + 1, 10**9)
    while guess**k < x:
        guess *= Fraction(101, 100)
    return guess


@dataclass(frozen=True)
class TruncationResult:
    full: object
    truncated: object
    tail_bound: object
    good_event: bool


def truncated_eval(spec: TruncationSpec, z: Sequence, delta) -> TruncationResult:
    """Full P, truncation P_{<=k}, and a certified tail bound.

    The good event is |sum z_i| <= delta^(1/k) and sum z_i^2 <=
    delta^(2/k), checked exactly by raising both sides to the k-th
    power.  When it holds, |S_l| <= delta^(l/k) for l >= 2, so the tail
    beyond degree k is at most C * sum_{l>k} u^l for any rational
    u >= delta^(1/k); that geometric sum is the returned bound.
    """
    m = len(spec.coefficients) - 1
    S = elem_sym_all(z, m)
    full = sum((c * s for c, s in zip(spec.coefficients, S)), S[0] * 0)
    truncated = sum(
        (c * s for c, s in zip(spec.coefficients[: spec.k + 1], S[: spec.k + 1])),
        S[0] * 0,
    )
    d = Fraction(delta)
    s1 = sum(z, z[0] * 0 if z else 0)
    sq = sum((v * v for v in z), z[0] * 0 if z else 0)
    good = abs(s1) ** spec.k <= d and Fraction(sq) ** spec.k <= d * d
    if not good:
        return TruncationResult(full, truncated, None, False)
    u = _rational_root_upper(d, spec.k)
    tail = Fraction(0)
    term = u ** (spec.k + 1)
    for _ in range(spec.k + 1, m + 1):
        tail += term
        term *= u
    return TruncationResult(full, truncated, Fraction(spec.bound_c) * tail, True)


# ---------------------------------------------------------------------------
# Moment sweeps over finite-support mean-zero variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundedVar:
    """Mean-zero variable with finite support and a certified scale.

    The certificate sigma_sq must satisfy E[g^(2j)] <= (2j)^(2j) *
    sigma_sq^j for every half-degree j the sweep uses; moment_sweep
    verifies this exhaustively and refuses uncertified inputs.
    """

    support: Tuple[Tuple[Fraction, Fraction], ...]  # (value, probability)
    sigma_sq: Fraction

    def __post_init__(self):
        total = sum(p for _, p in self.support)
        if total != 1:
            raise ValueError("probabilities must sum to 1")
        if self.moment(1) != 0:
            raise ValueError("variable must have mean zero")

    def moment(self, e: int) -> Fraction:
        return sum(p * v**e for v, p in self.support)

    def certified_up_to(self, k: int) -> bool:
        return all(
            self.moment(2 * j) <= Fraction(2 * j) ** (2 * j) * self.sigma_sq**j
            for j in range(1, k + 1)
        )


def coin_variable(sigma: Fraction) -> BoundedVar:
    s = Fraction(sigma)
    return BoundedVar(support=((s, Fraction(1, 2)), (-s, Fraction(1, 2))),
                      sigma_sq=s * s)


def zero_variable() -> BoundedVar:
    return BoundedVar(support=((Fraction(0), Fraction(1)),), sigma_sq=Fraction(0))


def clause_bias_variable(w: int) -> BoundedVar:
    """Centered bias of one width-w OR clause after fixing half its
    variables uniformly: the bias is 1 with probability 1 - 2^(-w/2)
    and 1 - 2^(-w/2) otherwise; the mean 1 - 2^(-w) is subtracted.
    Requires even w.  The variance is on the order of 2^(-3w/2).
    """
    if w % 2:
        raise ValueError("clause width must be even")
    c = Fraction(1, 1 << (w // 2))
    mean = 1 - Fraction(1, 1 << w)
    hi = 1 - mean
    lo = (1 - c) - mean
    var = (1 - c) * hi**2 + c * lo**2
    return BoundedVar(support=((hi, 1 - c), (lo, c)), sigma_sq=var)


def _sum_distribution(variables: Sequence[BoundedVar], square: bool) -> dict:
    dist = {Fraction(0): Fraction(1)}
    for var in variables:
        nxt = {}
        for val, pr in dist.items():
            for v, p in var.support:
                key = val + (v * v if square else v)
                nxt[key] = nxt.get(key, Fraction(0)) + pr * p
        dist = nxt
    return dist


@dataclass(frozen=True)
class MomentReport:
    sum_moment: Fraction
    sum_moment_bound: Fraction
    square_moment: Fraction
    square_moment_bound: Fraction

    @property
    def ok(self) -> bool:
        return (self.sum_moment <= self.sum_moment_bound
                and self.square_moment <= self.square_moment_bound)


def moment_sweep(variables: Sequence[BoundedVar], k: int) -> MomentReport:
    """Exact E[(sum g)^2k] and E[(sum g^2)^k] against the Rosenthal-style
    bounds (2k)^4k (sum sigma^2)^k and (2k)^3k (sum sigma^2)^k."""
    if k < 1:
        raise ValueError("half-degree must be at least 1")
    support_size = 1
    for v in variables:
        support_size *= len(v.support)
    if support_size > 1 << 16:
        raise ValueError("product support too large for exact sweep")
    for v in variables:
        if not v.certified_up_to(k):
            raise ValueError("variable fails its moment certificate; refusing")
    ssq = sum((v.sigma_sq for v in variables), Fraction(0))
    dist = _sum_distribution(variables, square=False)
    m1 = sum(p * val ** (2 * k) for val, p in dist.items())
    dist2 = _sum_distribution(variables, square=True)
    m2 = sum(p * val**k for val, p in dist2.items())
    return MomentReport(
        sum_moment=m1,
        sum_moment_bound=Fraction(2 * k) ** (4 * k) * ssq**k,
        square_moment=m2,
        square_moment_bound=Fraction(2 * k) ** (3 * k) * ssq**k,
    )
