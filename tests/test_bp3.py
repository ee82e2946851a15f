import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from derand import bp3, cli, formats
from derand.bp3 import (BoundViolation, DecisionList, ParityLeaf, TermExtraction, Width2Bp,
                        bad_state_analysis, bad_states, bad_visit_counts, carve_segments,
                        dl_to_cnfx, full_reduce, hsg_inner_preset, hsg_prefix_length, hsg_sample,
                        hsg_seed_bits, intersection_reduce, make_rejecting, pipeline_exponent,
                        pow2_leq, sudden_death_reduce, width2_to_decision_list)
from derand.harness import bad_heavy_program, random_width3
from derand.models import Robp, XorCnf, and_chain_program, parity_program
from derand.rcnf_prg import sample
from derand.signs import all_sign_rows


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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
        assert {var for var, _b, _l in dl.nodes}.isdisjoint(dl.default.variables)


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


@pytest.mark.parametrize("expectation, dl, bound", [
    # a constant-1 first leaf then a parity default: E is 3/4, read as 1
    (Fraction(1), DecisionList(nodes=((0, 1, ParityLeaf(frozenset(), 1)),),
                               default=ParityLeaf(frozenset({1}), 0)),
     "OR extraction below E^9"),
    # two constant-0 leaves before a parity leaf: E is 1/16, read as 4/5
    (Fraction(4, 5), DecisionList(nodes=((0, 1, ParityLeaf(frozenset(), 0)),
                                         (1, 1, ParityLeaf(frozenset(), 0)),
                                         (2, 1, ParityLeaf(frozenset({3}), 0))),
                                  default=ParityLeaf(frozenset(), 0)),
     "AND-parity extraction below E/3"),
], ids=["or", "and-xor"])
def test_dl_to_cnfx_planted_violations(monkeypatch, expectation, dl, bound):
    monkeypatch.setattr(DecisionList, "expectation", lambda self: expectation)
    with pytest.raises(BoundViolation, match=re.escape(bound)):
        dl_to_cnfx(dl)


def or_program(k: int) -> Robp:
    """Width 3, accepting iff one of the k >= 2 variables is 1: slot 0 of a
    later layer is satisfied, slot 1 not yet, slot 2 rejects."""
    layers = [((1, 2, 2), (0, 2, 2))] + [((0, 1, 2), (0, 0, 2))] * (k - 2) + \
        [((0, 2, 2), (0, 0, 2))]
    return Robp(n=k, d=3, next0=tuple(r0 for r0, _r1 in layers),
                next1=tuple(r1 for _r0, r1 in layers))


@pytest.mark.parametrize("k, branches, bad_small, bad_large, formula_e", [
    # the one bad state is large: fixing x_1 = 1 leaves a constant-1 segment
    (2, ["one"], [], [(1, 1)], Fraction(1, 2)),
    # the last "not yet" state is small and killed; the rest (an OR of
    # two literals, E = 3/4 < 5/6) takes the AND-parity branch
    (3, ["and-xor", "one"], [(2, 1)], [], Fraction(1, 2)),
    # killing the last "not yet" state leaves an OR of three literals,
    # E = 7/8 >= 5/6: the OR branch, checked against E^9
    (4, ["or", "one"], [(3, 1)], [], Fraction(3, 4)),
])
def test_full_reduce_or_programs(k, branches, bad_small, bad_large, formula_e):
    prog = or_program(k)
    assert prog.exact_expectation() == 1 - Fraction(1, 1 << k)
    cert = full_reduce(prog, Fraction(1, 4))
    assert cert.provenance["segmentBranches"] == branches
    assert cert.provenance["badSmall"] == bad_small
    assert cert.provenance["badLarge"] == bad_large
    assert cert.formula_expectation == formula_e
    assert cert.verify_subset(prog)


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


def test_reduction_refuses_epsilon_outside_unit_interval():
    for reduce in (full_reduce, sudden_death_reduce):
        for eps in (Fraction(-1), Fraction(0), Fraction(2)):
            with pytest.raises(ValueError, match=re.escape(f"must be in (0, 1], not {eps}")):
                reduce(and_chain_program(4), eps)


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
        signs = all_sign_rows(g.n)
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


def _accept_probabilities(prog):
    """p[t][i]: the probability of reaching Acc from state (t, i)."""
    return [[Fraction(v, 1 << (prog.n - t)) for v in row]
            for t, row in enumerate(prog.accept_counts())]


def test_small_reject_lemma_exact():
    rng = random.Random(66)
    for _ in range(30):
        f = random_width3(rng, rng.randint(4, 9), Fraction(1, 8))
        g = sudden_death_reduce(f, Fraction(1, 8)).program
        p = _accept_probabilities(g)
        mu = Fraction(1, 3)
        sel = [(t, i) for t in range(1, g.n) for i in range(3)
               if 0 < p[t][i] <= mu]
        if not sel:
            continue
        g2 = make_rejecting(g, sel)
        p2 = _accept_probabilities(g2)
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


PLANTED_BOUND_VIOLATION = """
import sys
from derand import bp3
from derand.harness import bad_heavy_program
bp3.pow2_leq = lambda x, bound: False  # every large-bad count now exceeds its bound
try:
    bp3.intersection_reduce(bad_heavy_program(8))
except bp3.BoundViolation as exc:
    print(sys.flags.optimize, exc)
"""


def test_bound_violation_raised_under_python_O():
    assert issubclass(BoundViolation, ValueError)
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", PLANTED_BOUND_VIOLATION],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split(maxsplit=1) == [str(len(flags)), "large-bad count above 8 log2(2/E)\n"]


def test_carving_refuses_a_live_state_feeding_a_dead_one():
    # layers 1 and 2 each hold two live states, so no cut falls between
    # them, and layer 1's slot 1 drops into the dead slot 2 on bit 1
    prog = Robp(n=3, d=3,
                next0=((0, 0, 0), (0, 0, 2), (0, 0, 2)),
                next1=((1, 1, 1), (1, 2, 2), (0, 0, 2)))
    with pytest.raises(BoundViolation, match="live state feeds a dead state inside a segment"):
        carve_segments(prog)


def test_zero_segment_exits_2(tmp_path, monkeypatch, capsys):
    path = tmp_path / "prog.txt"
    path.write_text(formats.dumps(parity_program(3)))
    monkeypatch.setattr(bp3, "dl_to_cnfx", lambda dl: TermExtraction(
        terms=(), expectation=Fraction(0), source_expectation=Fraction(0), branch="zero"))
    with pytest.raises(BoundViolation):
        full_reduce(parity_program(3), Fraction(1, 2))
    assert cli.main(["reduce", "--in", str(path), "--eps", "1/2"]) == 2
    assert capsys.readouterr().err == "error: a zero segment contradicts positive acceptance\n"


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
    bits = hsg_seed_bits(n)
    rbits = 4
    inner_seed = 12345 % (1 << params.seed_bits)
    # r decodes to zero: the output is the inner generator output
    out = hsg_sample(n, Fraction(1, 4), inner_seed << rbits)
    inner = sample(params, inner_seed)
    assert out.values == inner.values[:n]
    # r decodes to n-1: all but one position forced false
    seed = ((inner_seed << rbits) | (n - 1))
    out2 = hsg_sample(n, Fraction(1, 4), seed)
    assert out2.values[: n - 1] == (-1,) * (n - 1)
    assert out2.values[n - 1] == inner.values[0]
    # codes n..15 wrap mod n: 12 decodes to 2
    assert hsg_prefix_length(n, (inner_seed << rbits) | 12) == 2
    out3 = hsg_sample(n, Fraction(1, 4), (inner_seed << rbits) | 12)
    assert out3.values == (-1, -1) + inner.values[:n - 2]
    with pytest.raises(ValueError):
        hsg_sample(n, Fraction(1, 4), 1 << bits)


def test_width2_validation():
    with pytest.raises(ValueError):
        Width2Bp(variables=(0,), start=0, layers=(((0, 2), (1, 1)),), accept=1)
    with pytest.raises(ValueError):
        Width2Bp(variables=(0, 1), start=0, layers=(((0, 1), (1, 0)),), accept=1)


def test_reduce_certificates_match_golden(tmp_path, capsys):
    # one line per program: its JSON form and the fields `derand reduce`
    # printed for it at eps = 1/4, covering the or, and-xor and one branches;
    # reduce_or.jsonl holds or_program(2), (3) and (4)
    lines = []
    for name in ("reduce_w3.jsonl", "reduce_or.jsonl"):
        with open(os.path.join(GOLDEN, name), encoding="ascii") as fh:
            lines += [json.loads(line) for line in fh]
    branches = set()
    path = tmp_path / "prog.json"
    for line in lines:
        path.write_text(formats.dump_json(formats.from_json(line["program"])))
        assert cli.main(["reduce", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(line["reduce"], indent=1, sort_keys=True) + "\n", line["instance"]
        branches.update(line["reduce"]["provenance"]["segmentBranches"])
    assert {"or", "and-xor", "one"} <= branches
    assert any(line["reduce"]["provenance"]["fixedBits"] for line in lines)
