import math
import random
from fractions import Fraction
from itertools import product

from derand.sympoly import (check_s1s2_bound, elem_sym_all, elem_sym_enumerated,
                            newton_girard_residual, power_sums)


def test_elementary_symmetric_examples():
    assert elem_sym_all([Fraction(1), Fraction(2), Fraction(3)], 3) == [1, 6, 11, 6]
    assert elem_sym_all([Fraction(5)], 0) == [1]
    # degrees beyond the input length vanish
    assert elem_sym_all([Fraction(1), Fraction(2)], 4)[3:] == [0, 0]


def test_elem_sym_matches_enumeration():
    rng = random.Random(21)
    for _ in range(60):
        m = rng.randint(1, 9)
        z = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(m)]
        S = elem_sym_all(z, m)
        for k in range(m + 1):
            assert S[k] == elem_sym_enumerated(z, k)


def test_power_sums_examples():
    assert power_sums([Fraction(1), Fraction(2), Fraction(3)], 3) == [6, 14, 36]
    assert power_sums([Fraction(0)] * 4, 3) == [0, 0, 0]
    c = Fraction(3, 2)
    assert power_sums([c], 4) == [c, c**2, c**3, c**4]


def test_newton_girard_exact_and_float():
    assert newton_girard_residual([Fraction(1), Fraction(2), Fraction(3)], 3) == 0
    rng = random.Random(22)
    for _ in range(100):
        z = [rng.uniform(-1, 1) for _ in range(10)]
        assert newton_girard_residual(z, 10) <= 1e-9
    # single entry: S_1 = E_1 identically
    assert newton_girard_residual([Fraction(7, 3)], 1) == 0


def test_s1s2_bound_hand_case():
    # z = (1/2, -1/2): S_1 = 0, sum of squares 1/2; any mu with mu^2 >= 1/2 works
    mu = Fraction(708, 1000)
    z = [Fraction(1, 2), Fraction(-1, 2)]
    res = check_s1s2_bound(z, mu, 2)
    assert res.hypotheses_ok and res.ok
    assert abs(elem_sym_all(z, 2)[2]) <= mu**2


def test_s1s2_zero_case():
    res = check_s1s2_bound([Fraction(0)] * 4, Fraction(0), 4)
    assert res.ok and res.hypotheses_ok


def test_s1s2_hypothesis_violation_is_not_failure():
    res = check_s1s2_bound([Fraction(5), Fraction(5)], Fraction(1), 2)
    assert res.ok and not res.hypotheses_ok


def test_s1s2_rescaled_sweep():
    rng = random.Random(23)
    for _ in range(300):
        m = rng.randint(2, 10)
        z = [Fraction(rng.randint(-100, 100), 100) for _ in range(m)]
        mu = Fraction(rng.randint(1, 50), 50)
        s1 = abs(sum(z))
        sq = sum(v * v for v in z)
        root = Fraction(math.isqrt(sq.numerator * sq.denominator) + 1, sq.denominator)
        lam = mu / (s1 + root + Fraction(1, 1000))
        res = check_s1s2_bound([lam * v for v in z], mu, m)
        assert res.hypotheses_ok and res.ok


def _rational_root_upper(x: Fraction, k: int) -> Fraction:
    """A rational u with u^k >= x > 0, close to x^(1/k)."""
    guess = Fraction(int(float(x) ** (1.0 / k) * 10**9) + 1, 10**9)
    while guess**k < x:
        guess *= Fraction(101, 100)
    return guess


def _truncated_eval(coefficients, k: int, z, delta: Fraction):
    """P = sum_{i<=m} c_i S_i(z), its truncation at degree k, and a
    certified tail bound, or None for the bound off the good event.

    The good event is |sum z_i| <= delta^(1/k) and sum z_i^2 <=
    delta^(2/k), checked exactly by raising both sides to the k-th
    power.  When it holds, |S_l| <= delta^(l/k) for l >= 2, so with
    every |c_i| <= 1 the tail beyond degree k is at most sum_{l>k} u^l
    for any rational u >= delta^(1/k).
    """
    m = len(coefficients) - 1
    terms = [c * s for c, s in zip(coefficients, elem_sym_all(z, m))]
    full, truncated = sum(terms), sum(terms[:k + 1])
    if abs(sum(z)) ** k > delta or sum(v * v for v in z) ** k > delta**2:
        return full, truncated, None
    u = _rational_root_upper(delta, k)
    return full, truncated, sum(u**l for l in range(k + 1, m + 1))


def test_truncated_eval_trivial_cases():
    assert _truncated_eval((Fraction(1), Fraction(0), Fraction(0)), 2,
                           [Fraction(0), Fraction(0)], Fraction(1, 10)) == (1, 1, 0)
    # k = m: no tail at all
    full, truncated, _ = _truncated_eval((Fraction(1),) * 4, 3, [Fraction(1, 100)] * 3,
                                         Fraction(1, 10))
    assert full == truncated


def test_truncated_eval_good_event_bound():
    rng = random.Random(24)
    delta = Fraction(1, 10)
    k = 3
    hits = 0
    for _ in range(200):
        m = rng.randint(4, 10)
        coefficients = tuple(Fraction(rng.randint(-10, 10), 10) for _ in range(m + 1))
        z = [Fraction(rng.randint(-8, 8), 100) for _ in range(m)]
        full, truncated, tail = _truncated_eval(coefficients, k, z, delta)
        if tail is None:
            continue
        hits += 1
        assert abs(full - truncated) <= tail
        assert tail <= 2 * delta
    assert hits >= 50  # the filter must actually exercise the bound


# A mean-zero variable with finite support is (support, sigma_sq): support
# pairs (value, probability), and sigma_sq the scale its moment
# certificate E[g^(2j)] <= (2j)^(2j) sigma_sq^j is stated in.

def _coin(sigma: Fraction):
    return ((sigma, Fraction(1, 2)), (-sigma, Fraction(1, 2))), sigma * sigma


def _clause_bias(w: int):
    """Centered bias of one width-w OR clause (w even) after fixing half
    its variables uniformly: the bias is 1 with probability 1 - 2^(-w/2)
    and 1 - 2^(-w/2) otherwise; the mean 1 - 2^(-w) is subtracted.  The
    variance is on the order of 2^(-3w/2)."""
    c = Fraction(1, 1 << (w // 2))
    hi, lo = Fraction(1, 1 << w), Fraction(1, 1 << w) - c
    return ((hi, 1 - c), (lo, c)), (1 - c) * hi**2 + c * lo**2


def _sum_distribution(variables, square: bool) -> dict:
    dist = {Fraction(0): Fraction(1)}
    for support, _ in variables:
        nxt = {}
        for val, pr in dist.items():
            for v, p in support:
                key = val + (v * v if square else v)
                nxt[key] = nxt.get(key, Fraction(0)) + pr * p
        dist = nxt
    return dist


def _moment_sweep(variables, k: int):
    """Exact E[(sum g)^2k] and E[(sum g^2)^k], each with its Rosenthal-style
    bound (2k)^4k (sum sigma^2)^k and (2k)^3k (sum sigma^2)^k, after
    asserting each variable's hypotheses: a distribution, mean zero, and
    the moment certificate for every half-degree j <= k."""
    for support, sigma_sq in variables:
        assert sum(p for _, p in support) == 1
        assert sum(p * v for v, p in support) == 0
        for j in range(1, k + 1):
            assert sum(p * v ** (2 * j) for v, p in support) <= \
                Fraction(2 * j) ** (2 * j) * sigma_sq**j
    ssq = sum(sigma_sq for _, sigma_sq in variables)
    return (sum(p * val ** (2 * k) for val, p in _sum_distribution(variables, False).items()),
            Fraction(2 * k) ** (4 * k) * ssq**k,
            sum(p * val**k for val, p in _sum_distribution(variables, True).items()),
            Fraction(2 * k) ** (3 * k) * ssq**k)


def test_moment_sweep_examples():
    # single identically-zero variable
    m1, b1, m2, b2 = _moment_sweep([(((Fraction(0), Fraction(1)),), Fraction(0))], 2)
    assert m1 == 0 and m1 <= b1 and m2 <= b2
    # four independent +-sigma coins at k=2
    sigma = Fraction(1, 4)
    m1, b1, m2, b2 = _moment_sweep([_coin(sigma) for _ in range(4)], 2)
    assert m1 <= b1 and m2 <= b2
    assert b1 == Fraction(4) ** 8 * (4 * sigma**2) ** 2


def test_clause_bias_variables_match_variance_scale():
    # the split-clause bias variables carry variance near 2^(-3w/2)
    _, sigma_sq = _clause_bias(4)
    target = Fraction(1, 64)
    assert Fraction(1, 2) * target <= sigma_sq <= 2 * target
    m1, b1, m2, b2 = _moment_sweep([_clause_bias(4) for _ in range(8)], 2)
    assert m1 <= b1 and m2 <= b2


def _symmetric_orthogonality_defect(variables, up_to: int) -> Fraction:
    """Max |E[S_i * S_j]| over 0 <= i < j <= up_to for independent
    mean-zero variables; zero is the theorem, any excess is a bug."""
    combos = list(product(*[support for support, _ in variables]))
    worst = Fraction(0)
    for i in range(up_to + 1):
        for j in range(i + 1, up_to + 1):
            acc = Fraction(0)
            for combo in combos:
                pr = math.prod(p for _, p in combo)
                vals = [v for v, _ in combo]
                S = elem_sym_all(vals, max(i, j))
                acc += pr * S[i] * S[j]
            worst = max(worst, abs(acc))
    return worst


def test_symmetric_orthogonality():
    vars_ = [_coin(Fraction(1, 3)) for _ in range(6)]
    assert _symmetric_orthogonality_defect(vars_, 3) == 0
