import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from derand.bp3 import (DecisionList, ParityLeaf, Width2Bp, bad_state_analysis,
                        bad_states, bad_visit_counts, dl_to_cnfx, full_reduce,
                        hsg_inner_preset, hsg_sample, hsg_sample_batch, hsg_seed_bits,
                        intersection_reduce, make_rejecting, pipeline_exponent,
                        pow2_leq, sudden_death_reduce, width2_to_decision_list)
from derand.harness import bad_heavy_program, random_width3
from derand.models import Robp, XorCnf, and_chain_program, parity_program
from derand.rcnf_prg import sample


def rand_width2(length, rng):
    layers = []
    for _ in range(length):
        def bitmap():
            kind = rng.randrange(3)
            if kind == 0:
                return (0, 1)
            if kind == 1:
                return (1, 0)
            t = rng.randrange(2)
            return (t, t)
        m0, m1 = bitmap(), bitmap()
        layers.append(((m0[0], m1[0]), (m0[1], m1[1])))
    return Width2Bp(variables=tuple(range(length)), start=rng.randrange(2),
                    layers=tuple(layers), accept=rng.randrange(2))


def test_pow2_leq():
    assert pow2_leq(Fraction(3), Fraction(8))
    assert not pow2_leq(Fraction(3), Fraction(7))
    assert pow2_leq(Fraction(-1), Fraction(1, 2))
    assert pow2_leq(Fraction(5, 2), Fraction(6))
    assert not pow2_leq(Fraction(5, 2), Fraction(5))


def test_width2_parity_program_single_leaf():
    # pure permutation program: the list has no nodes, only a parity leaf
    layers = tuple(((0, 1), (1, 0)) for _ in range(3))
    h = Width2Bp(variables=(0, 1, 2), start=0, layers=layers, accept=1)
    dl = width2_to_decision_list(h)
    assert dl.nodes == ()
    assert dl.default.variables == frozenset({0, 1, 2})


def test_width2_and_program():
    # x0 and x1: collapse-to-dead on bit 0 at each layer
    layers = (((1, 0), (1, 1)), ((1, 0), (1, 1)))
    h = Width2Bp(variables=(0, 1), start=0, layers=layers, accept=0)
    dl = width2_to_decision_list(h)
    for bits in product((0, 1), repeat=2):
        bd = dict(enumerate(bits))
        assert dl.evaluate_bits(bd) == h.evaluate_bits(bd) == (bits[0] & bits[1])


def test_width2_or_program_constant_one_spine():
    # OR of three variables: exits with constant-1 leaves down the spine
    layers = tuple(((0, 1), (1, 1)) for _ in range(3))
    h = Width2Bp(variables=(0, 1, 2), start=0, layers=layers, accept=1)
    dl = width2_to_decision_list(h)
    assert len(dl.nodes) == 3
    assert all(leaf.is_constant(1) for _v, _b, leaf in dl.nodes)
    assert dl.default.is_constant(0)
    for bits in product((0, 1), repeat=3):
        bd = dict(enumerate(bits))
        assert dl.evaluate_bits(bd) == (1 if any(bits) else 0)


def test_width2_to_dl_equivalence_sweep():
    rng = random.Random(61)
    for _ in range(500):
        length = rng.randint(1, 9)
        h = rand_width2(length, rng)
        dl = width2_to_decision_list(h)
        for bits in product((0, 1), repeat=length):
            bd = dict(enumerate(bits))
            assert dl.evaluate_bits(bd) == h.evaluate_bits(bd)
        assert set(dl.tested_variables()).isdisjoint(dl.default.variables)


def test_dl_expectation_exact():
    rng = random.Random(62)
    for _ in range(100):
        length = rng.randint(1, 8)
        h = rand_width2(length, rng)
        dl = width2_to_decision_list(h)
        brute = sum(dl.evaluate_bits(dict(enumerate(bits)))
                    for bits in product((0, 1), repeat=length))
        assert dl.expectation() == Fraction(brute, 1 << length)


def test_dl_to_cnfx_branches_and_domination():
    rng = random.Random(63)
    seen = set()
    for _ in range(400):
        length = rng.randint(1, 8)
        h = rand_width2(length, rng)
        dl = width2_to_decision_list(h)
        ext = dl_to_cnfx(dl)
        seen.add(ext.branch)
        e = dl.expectation()
        if ext.branch == "zero":
            assert e == 0
            continue
        g = XorCnf(n=length, terms=ext.terms)
        assert g.exact_expectation() == ext.expectation
        for bits in product((0, 1), repeat=length):
            signs = tuple(1 if b else -1 for b in bits)
            assert g.evaluate(signs) <= dl.evaluate_bits(dict(enumerate(bits)))
        if ext.branch == "or":
            assert ext.expectation >= e**9
        elif ext.branch == "and-xor":
            assert ext.expectation >= e / 3
    assert {"or", "and-xor", "one"} <= seen


def test_dl_to_cnfx_trivial_cases():
    one = DecisionList(nodes=(), default=ParityLeaf(frozenset(), 1))
    assert dl_to_cnfx(one).branch == "one"
    par = DecisionList(nodes=(), default=ParityLeaf(frozenset({3}), 0))
    ext = dl_to_cnfx(par)
    assert ext.branch == "and-xor" and ext.expectation == Fraction(1, 2)


def test_sudden_death_on_and_chain():
    prog = and_chain_program(3)
    res = sudden_death_reduce(prog, Fraction(1, 8))
    assert res.program.is_sudden_death()
    assert res.expectation >= Fraction(1, 8) ** 2 / 12
    # the conjunction of literals survives entirely here
    assert res.expectation == prog.exact_expectation()


def test_sudden_death_boundary_threshold():
    prog = and_chain_program(2)
    res = sudden_death_reduce(prog, prog.exact_expectation())
    assert res.program.is_sudden_death()
    with pytest.raises(ValueError):
        sudden_death_reduce(prog, Fraction(1, 2))


def test_sudden_death_always_one_like_program():
    # all paths accept; width 3 with an unreachable bottom
    n = 4
    next0 = tuple((0, 0, 2) for _ in range(n))
    next1 = tuple((0, 0, 2) for _ in range(n))
    prog = Robp(n=n, d=3, next0=next0, next1=next1)
    assert prog.exact_expectation() == 1
    res = sudden_death_reduce(prog, Fraction(1, 2))
    assert res.expectation >= Fraction(1, 2 * n)


def test_sudden_death_subset_property_corpus():
    rng = random.Random(64)
    for _ in range(40):
        n = rng.randint(4, 10)
        f = random_width3(rng, n, Fraction(1, 4))
        res = sudden_death_reduce(f, Fraction(1, 4))
        g = res.program
        masks = np.arange(1 << g.n)
        signs = np.where(((masks[:, None] >> np.arange(g.n)) & 1) == 1, 1, -1).astype(np.int8)
        gacc = g.eval_batch(signs)
        if not gacc.any():
            continue
        full = np.full((int(gacc.sum()), n), -1, dtype=np.int8)
        full[:, res.k:] = signs[gacc]
        assert f.eval_batch(full).all()
        assert res.expectation >= Fraction(1, 4) ** 2 / (4 * n)


def test_bad_state_analysis_examples():
    # a program with no edges into dead states has no bad states
    clean = parity_program(5)
    res = sudden_death_reduce(clean, Fraction(1, 2))
    report = bad_state_analysis(res.program)
    assert not report.bad or all(
        report.q[t][i] > 0 for (t, i) in report.bad)
    # hand-built heavy program: one state with conditional weight 1/2
    heavy = bad_heavy_program(8)
    assert heavy.is_sudden_death()
    rep = bad_state_analysis(heavy)
    assert rep.bad_large, "expected a frequently visited bad state"
    assert any(rep.q[t][i] >= Fraction(1, 4) for (t, i) in rep.bad_large)


def test_double_counting_identity():
    rng = random.Random(65)
    for _ in range(20):
        f = random_width3(rng, rng.randint(4, 9), Fraction(1, 4))
        g = sudden_death_reduce(f, Fraction(1, 4)).program
        counts = bad_visit_counts(g)
        acc = g.eval_all()
        if not acc.any():
            continue
        lhs = sum((g.conditional_visit_probs()[t][i] for (t, i) in bad_states(g)),
                  Fraction(0))
        rhs = Fraction(int(counts[acc].sum()), int(acc.sum()))
        assert lhs == rhs
        assert pow2_leq(rhs / 2, 2 / g.exact_expectation())


def test_small_reject_lemma_exact():
    rng = random.Random(66)
    for _ in range(30):
        f = random_width3(rng, rng.randint(4, 9), Fraction(1, 8))
        g = sudden_death_reduce(f, Fraction(1, 8)).program
        p = g.accept_probabilities()
        mu = Fraction(1, 3)
        sel = [(t, i) for t in range(1, g.n) for i in range(3)
               if 0 < p[t][i] <= mu]
        if not sel:
            continue
        g2 = make_rejecting(g, sel)
        p2 = g2.accept_probabilities()
        for t in range(g.n + 1):
            for i in range(3):
                assert p2[t][i] >= p[t][i] - mu


def test_intersection_no_bad_states_pure_decomposition():
    # all paths accept: nothing borders a dead state, no fixings needed
    n = 4
    always = Robp(n=n, d=3,
                  next0=tuple((0, 0, 2) for _ in range(n)),
                  next1=tuple((0, 0, 2) for _ in range(n)))
    assert always.is_sudden_death()
    assert not bad_states(always)
    inter = intersection_reduce(always)
    assert not inter.fixed_bits
    assert inter.expectation == 1


def test_intersection_parity_fixes_the_deciding_layer():
    # a parity program's last layer borders the final reject with
    # conditional weight 1/2 on both live states, forcing one fixing
    prog = parity_program(4)
    assert prog.is_sudden_death()
    inter = intersection_reduce(prog)
    assert len(inter.fixed_bits) == 1
    # the fixing halves the mass: (x4 = 0) AND parity of the first three
    assert inter.expectation == Fraction(1, 4)
    assert prog.exact_expectation() == Fraction(1, 2)


def test_intersection_and_chain_fixes_every_literal():
    # every live state of the conjunction chain borders the dead track,
    # so the whole program reduces to fixed literals
    prog = and_chain_program(4)
    res = sudden_death_reduce(prog, Fraction(1, 16))
    inter = intersection_reduce(res.program)
    assert len(inter.fixed_bits) == 4
    assert inter.expectation == Fraction(1, 16)


def test_intersection_with_large_bad_state_compares_fixings():
    heavy = bad_heavy_program(8)
    inter = intersection_reduce(heavy)
    assert inter.fixed_bits, "the heavy bad state forces a fixing"
    p = heavy.exact_expectation()
    assert inter.expectation >= (p / 2) ** 13


def test_intersection_conjunction_below_source():
    rng = random.Random(67)
    for _ in range(25):
        f = random_width3(rng, rng.randint(4, 9), Fraction(1, 4))
        g = sudden_death_reduce(f, Fraction(1, 4)).program
        inter = intersection_reduce(g)
        for mask in range(1 << g.n):
            bits = {v: (mask >> v) & 1 for v in range(g.n)}
            value = all(bits[v] == b for v, b in inter.fixed_bits.items()) and \
                all(seg.evaluate_bits(bits) for seg in inter.segments)
            signs = tuple(1 if bits[v] else -1 for v in range(g.n))
            assert int(value) <= g.evaluate(signs)


def test_full_reduce_and_chain_keeps_everything():
    prog = and_chain_program(3)
    cert = full_reduce(prog, Fraction(1, 8))
    assert cert.formula_expectation == prog.exact_expectation()
    assert cert.verify_subset(prog)


def test_full_reduce_on_cnfx_shaped_program():
    # parity laid out as width 3: the certificate keeps a quarter of the
    # inputs (one deciding literal fixed, the rest as one parity term)
    prog = parity_program(3)
    cert = full_reduce(prog, Fraction(1, 2))
    assert cert.verify_subset(prog)
    assert cert.formula_expectation == Fraction(1, 4)
    kinds = {t.kind for t in cert.formula.terms}
    assert kinds == {"or", "xor"}


def test_full_reduce_random_corpus():
    rng = random.Random(68)
    exps = []
    for _ in range(40):
        n = rng.randint(4, 12)
        f = random_width3(rng, n, Fraction(1, 4))
        cert = full_reduce(f, Fraction(1, 4))
        assert cert.formula_expectation > 0
        assert cert.verify_subset(f)
        exps.append(pipeline_exponent(cert, n))
    assert all(e >= 0 for e in exps)


def test_hsg_decode_edges():
    n = 10
    params = hsg_inner_preset(n)
    bits = hsg_seed_bits(n, params)
    rbits = 4
    inner_seed = 12345 % (1 << params.seed_bits)
    # r decodes to zero: the output is the inner generator output
    out = hsg_sample(n, Fraction(1, 4), inner_seed << rbits, params)
    inner = sample(params, inner_seed)
    assert out.values == inner.values[:n]
    # r decodes to n-1: all but one position forced false
    seed = ((inner_seed << rbits) | (n - 1))
    out2 = hsg_sample(n, Fraction(1, 4), seed, params)
    assert out2.values[: n - 1] == (-1,) * (n - 1)
    assert out2.values[n - 1] == inner.values[0]
    with pytest.raises(ValueError):
        hsg_sample(n, Fraction(1, 4), 1 << bits, params)


@pytest.mark.parametrize("n", [2, 5, 10, 16])
def test_hsg_sample_batch_equals_per_seed(n):
    params = hsg_inner_preset(n)
    bits = hsg_seed_bits(n, params)
    rng = random.Random(200 + n)
    rbits = max(1, (n - 1).bit_length())
    inner = rng.getrandbits(params.seed_bits) << rbits
    # every prefix code, including those that wrap past n
    seeds = [inner | r for r in range(1 << rbits)] + [rng.getrandbits(bits) for _ in range(200)]
    batch = hsg_sample_batch(n, seeds, params)
    assert batch.dtype == np.int8 and batch.shape == (len(seeds), n)
    assert [tuple(row) for row in batch] == \
        [hsg_sample(n, Fraction(1, 4), seed, params).values for seed in seeds]
    with pytest.raises(ValueError):
        hsg_sample_batch(n, [1 << bits], params)


def test_width2_validation():
    with pytest.raises(ValueError):
        Width2Bp(variables=(0,), start=0, layers=(((0, 2), (1, 1)),), accept=1)
    with pytest.raises(ValueError):
        Width2Bp(variables=(0, 1), start=0, layers=(((0, 1), (1, 0)),), accept=1)
