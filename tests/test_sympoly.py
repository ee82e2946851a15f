import math
import random
from fractions import Fraction
from itertools import product

import pytest

from derand.sympoly import (BoundedVar, TruncationSpec, check_s1s2_bound,
                            clause_bias_variable, coin_variable, elem_sym_all,
                            elem_sym_enumerated, moment_sweep,
                            newton_girard_residual, power_sums, truncated_eval,
                            zero_variable)


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
    res = check_s1s2_bound([Fraction(1, 2), Fraction(-1, 2)], mu, 2)
    assert res.hypotheses_ok and res.ok
    assert abs(res.values[2]) <= mu**2


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


def test_truncated_eval_trivial_cases():
    spec = TruncationSpec(k=2, coefficients=(Fraction(1), Fraction(0), Fraction(0)),
                          bound_c=Fraction(1), bound_b=Fraction(1))
    res = truncated_eval(spec, [Fraction(0), Fraction(0)], Fraction(1, 10))
    assert res.full == res.truncated == 1 and res.tail_bound == 0
    # k = m: no tail at all
    spec_full = TruncationSpec(k=3, coefficients=tuple(Fraction(1) for _ in range(4)),
                               bound_c=Fraction(1), bound_b=Fraction(8))
    z = [Fraction(1, 100)] * 3
    res2 = truncated_eval(spec_full, z, Fraction(1, 10))
    assert res2.full == res2.truncated


def test_truncated_eval_good_event_bound():
    rng = random.Random(24)
    delta = Fraction(1, 10)
    k = 3
    hits = 0
    for _ in range(200):
        m = rng.randint(4, 10)
        spec = TruncationSpec(
            k=k,
            coefficients=tuple(Fraction(rng.randint(-10, 10), 10) for _ in range(m + 1)),
            bound_c=Fraction(1), bound_b=Fraction(100))
        z = [Fraction(rng.randint(-8, 8), 100) for _ in range(m)]
        res = truncated_eval(spec, z, delta)
        if not res.good_event:
            continue
        hits += 1
        assert abs(res.full - res.truncated) <= res.tail_bound
        assert res.tail_bound <= 2 * spec.bound_c * delta
    assert hits >= 50  # the filter must actually exercise the bound


def test_moment_sweep_examples():
    # single identically-zero variable
    rep0 = moment_sweep([zero_variable()], 2)
    assert rep0.ok and rep0.sum_moment == 0
    # four independent +-sigma coins at k=2
    sigma = Fraction(1, 4)
    rep = moment_sweep([coin_variable(sigma) for _ in range(4)], 2)
    assert rep.ok
    assert rep.sum_moment_bound == Fraction(4) ** 8 * (4 * sigma**2) ** 2


def test_moment_sweep_refuses_uncertified():
    bad = BoundedVar(support=((Fraction(1), Fraction(1, 2)),
                              (Fraction(-1), Fraction(1, 2))),
                     sigma_sq=Fraction(1, 100))
    with pytest.raises(ValueError):
        moment_sweep([bad], 2)


def test_clause_bias_variables_match_variance_scale():
    # the split-clause bias variables carry variance near 2^(-3w/2)
    var = clause_bias_variable(4)
    target = Fraction(1, 64)
    assert Fraction(1, 2) * target <= var.sigma_sq <= 2 * target
    rep = moment_sweep([clause_bias_variable(4) for _ in range(8)], 2)
    assert rep.ok


def _symmetric_orthogonality_defect(variables, up_to: int) -> Fraction:
    """Max |E[S_i * S_j]| over 0 <= i < j <= up_to for independent
    mean-zero variables; zero is the theorem, any excess is a bug."""
    combos = list(product(*[v.support for v in variables]))
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
    vars_ = [coin_variable(Fraction(1, 3)) for _ in range(6)]
    assert _symmetric_orthogonality_defect(vars_, 3) == 0
