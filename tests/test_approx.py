import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from derand.approx import (EXHAUSTIVE_POINT_LIMIT, MultilinearPoly, SandwichPair, rcnf_poly,
                           verify_sandwich, xor_compose)
from derand.models import Literal, ReadOnceCnf
from derand.signs import walsh_hadamard
from derand.smallbias import BiasedSpaceSpec, exact_bias, outputs_all_seeds


def test_sign_square_collapses():
    x = MultilinearPoly.build(2, [((0,), Fraction(1))])
    assert (x * x).terms == {frozenset(): Fraction(1)}


def test_l1_examples():
    p = MultilinearPoly.build(2, [((), Fraction(1, 2)), ((0, 1), Fraction(-1, 2))])
    assert p.l1() == 1
    assert p.expectation() == Fraction(1, 2)


def test_l1_submultiplicative_sweep():
    rng = random.Random(31)
    for _ in range(500):
        n = 6

        def rand_poly():
            return MultilinearPoly.build(n, [
                (tuple(rng.sample(range(n), rng.randint(0, 3))),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for _ in range(4)])

        a, b = rand_poly(), rand_poly()
        assert (a * b).l1() <= a.l1() * b.l1()


def _and_of_parities_poly(n, terms):
    """Exact polynomial of an AND of parity constraints on disjoint
    variables, each term (indices, target sign) holding when the product
    of its signs is the target: each factor (1 + target * x^S)/2 keeps
    the product's L1 norm at 1."""
    poly = MultilinearPoly.constant(n, 1)
    for idx, target in terms:
        poly = poly * MultilinearPoly.build(n, [((), Fraction(1, 2)),
                                                (tuple(idx), Fraction(target, 2))])
    return poly


def test_and_of_parities():
    single = _and_of_parities_poly(4, [((0, 1), -1)])
    assert single.l1() == 1
    for x in product((-1, 1), repeat=4):
        assert single.evaluate(x) == (1 if x[0] * x[1] == -1 else 0)
    double = _and_of_parities_poly(6, [((0, 1), -1), ((2, 3, 4), 1)])
    assert double.l1() == 1
    empty = _and_of_parities_poly(3, [])
    assert empty.evaluate((1, -1, 1)) == 1


def test_rcnf_poly_is_exact():
    f = ReadOnceCnf(5, ((Literal(0), Literal(2, True)), (Literal(3),)))
    p = rcnf_poly(f)
    for x in product((-1, 1), repeat=5):
        assert p.evaluate(x) == f.evaluate(x)
    assert p.expectation() == f.exact_expectation()


def test_xor_compose_identity_case():
    f = ReadOnceCnf(3, ((Literal(0), Literal(1)),))
    pair = SandwichPair.exact(rcnf_poly(f))
    out = xor_compose(3, [Fraction(0), Fraction(1)], [pair])
    for x in product((-1, 1), repeat=3):
        assert out.lower.evaluate(x) == out.upper.evaluate(x) == f.evaluate(x)
    assert out.gap == 0


def test_xor_compose_exact_and_loosened():
    n = 6
    c1 = rcnf_poly(ReadOnceCnf(n, ((Literal(0), Literal(1)),)))
    c2 = rcnf_poly(ReadOnceCnf(n, ((Literal(3), Literal(4, True)),)))
    and_table = [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
    exact_out = xor_compose(n, and_table, [SandwichPair.exact(c1), SandwichPair.exact(c2)])
    assert exact_out.gap == 0
    eps = Fraction(1, 100)
    loose = [SandwichPair.of(c - eps / 2, c + eps / 2) for c in (c1, c2)]
    out = xor_compose(n, and_table, loose)
    rep = verify_sandwich(lambda x: c1.evaluate(x) * c2.evaluate(x), out, n)
    assert rep.pointwise_ok
    assert rep.gap <= Fraction(16) ** 2 * eps
    t = max(p.max_l1() for p in loose)
    assert max(rep.l1_lower, rep.l1_upper) <= Fraction(4) ** 2 * (t + 1) ** 2


def test_xor_compose_validation():
    n = 4
    p1 = SandwichPair.exact(rcnf_poly(ReadOnceCnf(n, ((Literal(0),),))))
    p2 = SandwichPair.exact(rcnf_poly(ReadOnceCnf(n, ((Literal(0),),))))
    with pytest.raises(ValueError, match="disjoint"):
        xor_compose(n, [0, 0, 0, 1], [p1, p2])  # overlapping blocks
    with pytest.raises(ValueError, match="lie in"):
        xor_compose(n, [0, 2], [p1])  # combiner value outside [0,1]
    with pytest.raises(ValueError, match="lie in"):
        xor_compose(n, [0, Fraction(-1, 3)], [p1])
    with pytest.raises(ValueError, match="2\\^k entries"):
        xor_compose(n, [0, 1, 0], [p1])


def _product_compose(n, table, pairs):
    """The composition by dense polynomial products: the oracle."""
    one = MultilinearPoly.constant(n, 1)
    uppers = []
    for mask in range(len(table)):
        m = one
        for i, p in enumerate(pairs):
            m = m * (p.upper if mask >> i & 1 else one - p.lower)
        uppers.append(m)
    total = sum(uppers, one * 0)
    h_u = h_l = one * 0
    for c, u in zip(table, uppers):
        h_u = h_u + Fraction(c) * u
        h_l = h_l + Fraction(c) * (one - (total - u))
    return SandwichPair.of(h_l, h_u)


def _random_block_pair(rng, n, block, eps):
    kind = rng.choice(("cnf", "cnf", "poly", "false", "constant"))
    if kind == "false":
        return SandwichPair.exact(rcnf_poly(ReadOnceCnf.constant_zero(n)))
    if kind == "constant":
        return SandwichPair.of(MultilinearPoly.constant(n, Fraction(rng.randint(-3, 0), 4)),
                               MultilinearPoly.constant(n, Fraction(rng.randint(4, 7), 4)))
    if kind == "poly":
        return SandwichPair.of(*(MultilinearPoly.build(n, [
            (rng.sample(block, rng.randint(0, len(block))),
             Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 12))))
            for _ in range(5)]) for _ in range(2)))
    cuts = sorted(rng.sample(range(1, len(block)), rng.randint(0, len(block) - 1)))
    clauses = tuple(tuple(Literal(v, rng.random() < 0.5) for v in block[a:b])
                    for a, b in zip([0] + cuts, cuts + [len(block)]))
    poly = rcnf_poly(ReadOnceCnf(n, clauses))
    return SandwichPair.of(poly - eps / 2, poly + eps) if eps else SandwichPair.exact(poly)


def test_xor_compose_matches_product_oracle():
    rng = random.Random(44)
    kinds = set()
    for trial in range(240):
        k = 1 + trial % 3
        widths = [rng.randint(1, 4) for _ in range(k)]
        n = sum(widths) + rng.randint(0, 3)  # ambient variables outside every block
        shuffled = rng.sample(range(n), n)   # blocks interleaved, not contiguous
        blocks = [shuffled[sum(widths[:i]):sum(widths[:i + 1])] for i in range(k)]
        eps = rng.choice((Fraction(0), Fraction(1, 64), Fraction(rng.randint(1, 9), 100)))
        pairs = [_random_block_pair(rng, n, block, eps) for block in blocks]
        table = [Fraction(rng.randint(0, 4), rng.choice((1, 4, 6))) if rng.random() < 0.7 else 0
                 for _ in range(1 << k)]
        table = [min(v, 1) for v in table] if trial % 7 else [0] * (1 << k)
        kinds.add((sum(table) == 0, any(not p.lower.variables() for p in pairs)))
        got = xor_compose(n, table, pairs)
        want = _product_compose(n, table, pairs)
        assert got.lower.terms == want.lower.terms, trial
        assert got.upper.terms == want.upper.terms, trial
        assert got.gap == want.gap and got == want, trial
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_verify_sandwich_trivial_cases():
    f = ReadOnceCnf(4, ((Literal(1), Literal(2)),))
    p = rcnf_poly(f)
    exact_rep = verify_sandwich(lambda x: f.evaluate(x), SandwichPair.exact(p), 4)
    assert exact_rep.pointwise_ok and exact_rep.gap == 0
    vacuous = SandwichPair.of(MultilinearPoly.constant(4, 0),
                              MultilinearPoly.constant(4, 1))
    rep = verify_sandwich(lambda x: f.evaluate(x), vacuous, 4)
    assert rep.pointwise_ok and rep.gap == 1


def test_fooling_transfer_against_concrete_biased_space():
    # |E_D[f] - E[f]| <= gap + L1 * measured bias, for the real spaces
    rng = random.Random(32)
    for _ in range(10):
        n = rng.randint(2, 6)
        clause = tuple(Literal(i, rng.randrange(2) == 1) for i in range(n))
        f = ReadOnceCnf(n, (clause,))
        pair = SandwichPair.exact(rcnf_poly(f))
        spec = BiasedSpaceSpec.with_degree(n, rng.randint(2, 5))
        bias, _ = exact_bias(spec)
        outs = outputs_all_seeds(spec)
        acc = f.eval_batch(outs)
        mean = Fraction(int(acc.sum()), outs.shape[0])
        assert abs(mean - f.exact_expectation()) <= pair.gap + pair.max_l1() * bias


def _random_poly(rng, n, terms):
    return MultilinearPoly.build(n, [
        (tuple(rng.sample(range(n), rng.randint(0, n))),
         Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12, 64))))
        for _ in range(terms)])


def _pointwise_oracle(target, pair, n):
    ok, worst = True, Fraction(0)
    for x in product((-1, 1), repeat=n):
        lo, hi, tv = pair.lower.evaluate(x), pair.upper.evaluate(x), Fraction(target(x))
        if lo > tv or tv > hi:
            ok = False
            worst = max(worst, lo - tv, tv - hi)
    return ok, worst


def test_walsh_hadamard_matches_evaluate():
    rng = random.Random(41)
    polys = [MultilinearPoly(3, {}), MultilinearPoly.constant(4, Fraction(-5, 3))]
    polys += [_random_poly(rng, n, rng.randint(1, 10)) for n in range(8) for _ in range(6)]
    for poly in polys:
        n = poly.n
        vec = np.zeros(1 << n, dtype=object)
        for idx, coeff in poly.terms.items():
            vec[sum(1 << i for i in idx)] = coeff
        values = walsh_hadamard(vec)
        for m in range(1 << n):
            x = tuple(-1 if (m >> i) & 1 else 1 for i in range(n))
            assert values[m] == poly.evaluate(x)


def test_walsh_hadamard_keeps_int64():
    counts = np.arange(16, dtype=np.int64)
    out = walsh_hadamard(counts)
    assert out.dtype == np.int64 and out[0] == counts.sum()
    assert (counts == np.arange(16)).all()  # the input is not modified
    for bad in (np.zeros(6, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(ValueError):
            walsh_hadamard(bad)


def test_verify_sandwich_exact_pairs_on_random_polys():
    rng = random.Random(42)
    for n in range(8):
        poly = _random_poly(rng, n, rng.randint(0, 10))
        rep = verify_sandwich(poly.evaluate, SandwichPair.exact(poly), n)
        assert rep.pointwise_ok and rep.worst_violation == 0
        assert rep.exhaustive and rep.points_checked == 1 << n


def test_verify_sandwich_planted_violation_matches_oracle():
    rng = random.Random(43)
    for n in range(1, 8):
        lower = _random_poly(rng, n, 6)
        upper = lower + Fraction(1, 3)
        pair = SandwichPair.of(lower, upper)
        bad = tuple(rng.choice((-1, 1)) for _ in range(n))
        kick = Fraction(rng.randint(1, 9), rng.choice((5, 7, 8)))
        sign = rng.choice((-1, 1))

        def target(x, lower=lower, bad=bad, kick=kick, sign=sign):
            mid = lower.evaluate(x) + Fraction(1, 6)
            return mid + sign * (Fraction(1, 6) + kick) if x == bad else mid

        rep = verify_sandwich(target, pair, n)
        ok, worst = _pointwise_oracle(target, pair, n)
        assert not rep.pointwise_ok and not ok
        assert rep.worst_violation == worst == kick


def test_verify_sandwich_refuses_above_point_limit():
    # violated only at the all-+1 point, which a sample of the 2^21 points
    # would almost surely miss: the check refuses before calling target
    n = EXHAUSTIVE_POINT_LIMIT + 1
    pair = SandwichPair.of(MultilinearPoly.constant(n, 0), MultilinearPoly.constant(n, 1))
    calls = []

    def target(x):
        calls.append(x)
        return 2 if x == (1,) * n else Fraction(1, 2)

    with pytest.raises(ValueError, match=f"limit of {EXHAUSTIVE_POINT_LIMIT}"):
        verify_sandwich(target, pair, n)
    assert calls == []
