import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from derand.harness import random_read_once_cnf, random_width3, random_xorcnf
from derand.models import (CombRect, Literal, ReadOnceCnf, Robp, Term, XorCnf,
                           and_chain_program, apply_restriction, batch_prefix_slots,
                           bias_function, parity_program, tribes)
from derand.signs import all_bit_rows, all_sign_rows, pack_block, pack_blocks


def all_signs(n):
    return list(product((-1, 1), repeat=n))


def test_all_sign_rows_matches_where_construction():
    for n in range(7):
        masks = np.arange(1 << n, dtype=np.int64)
        want = np.where(((masks[:, None] >> np.arange(n)) & 1) == 1, 1, -1).astype(np.int8)
        got = all_sign_rows(n)
        assert got.dtype == np.int8 and got.shape == (1 << n, n)
        assert (got == want).all()


def test_eval_basic_examples():
    f = ReadOnceCnf(3, ((Literal(0), Literal(1, True)), (Literal(2),)))
    assert f.evaluate((1, 1, 1)) == 1
    assert f.evaluate((-1, 1, 1)) == 0
    with pytest.raises(ValueError):
        f.evaluate((1, 1))


def test_read_once_violation_rejected():
    with pytest.raises(ValueError):
        ReadOnceCnf(3, ((Literal(0), Literal(1)), (Literal(0, True),)))
    with pytest.raises(ValueError):
        XorCnf(3, (Term("xor", (Literal(0),)), Term("or", (Literal(0),))))


def test_expectation_examples():
    f = ReadOnceCnf(3, ((Literal(0), Literal(1, True)), (Literal(2),)))
    assert f.exact_expectation() == Fraction(3, 8)
    t2 = tribes(2)
    assert t2.size == 8 and t2.n == 16
    assert t2.exact_expectation() == Fraction(3, 4) ** 8
    pure = XorCnf(2, (Term("xor", (Literal(0), Literal(1))),))
    assert pure.exact_expectation() == Fraction(1, 2)


def test_expectation_matches_brute_force_random():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 10)
        f = random_read_once_cnf(rng, n)
        bf = sum(f.evaluate(x) for x in all_signs(n))
        assert f.exact_expectation() == Fraction(bf, 1 << n)
        g = random_xorcnf(rng, n)
        bg = sum(g.evaluate(x) for x in all_signs(n))
        assert g.exact_expectation() == Fraction(bg, 1 << n)


def test_monotone_under_clause_removal():
    rng = random.Random(10)
    for _ in range(30):
        f = random_read_once_cnf(rng, 12)
        if f.size < 2:
            continue
        smaller = ReadOnceCnf(f.n, f.clauses[:-1])
        assert smaller.exact_expectation() >= f.exact_expectation()


def test_apply_restriction_examples():
    f = ReadOnceCnf(3, ((Literal(0), Literal(1)), (Literal(2),)))
    sat = apply_restriction(f, {0: 1})
    assert sat.size == 1 and sat.exact_expectation() == Fraction(1, 2)
    dead = apply_restriction(ReadOnceCnf(3, ((Literal(2),),)), {2: -1})
    assert dead.is_false and dead.exact_expectation() == 0
    for zero in (ReadOnceCnf.constant_zero(3), XorCnf.constant_zero(3)):
        assert apply_restriction(zero, {0: 1, 2: -1}) is zero


def test_apply_restriction_refuses_bad_keys_and_signs():
    # a key outside [0, n) is refused, not skipped as a variable no term reads
    f = ReadOnceCnf(3, ((Literal(0), Literal(1)),))
    g = XorCnf(3, (Term("xor", (Literal(0), Literal(2)), 1),))
    for fixed, message in (({7: 1}, "index 7 outside"), ({-1: 1}, "index -1 outside"),
                           ({0: 0}, "must be -1 or \\+1"), ({1: 1, 2: 2}, "must be -1 or \\+1")):
        for h in (f, g, ReadOnceCnf.constant_zero(3)):
            with pytest.raises(ValueError, match=message):
                apply_restriction(h, fixed)
            with pytest.raises(ValueError, match=message):
                bias_function(h, fixed)
    assert apply_restriction(f, {2: -1}) == f  # index 2 is in range, read by no term


def test_restriction_constant_zero_is_distinguished():
    z = ReadOnceCnf.constant_zero(4)
    assert z.evaluate((1, 1, 1, 1)) == 0
    with pytest.raises(ValueError):
        ReadOnceCnf(4, ((),))


def test_bias_function_boundary_cases():
    rng = random.Random(11)
    f = random_read_once_cnf(rng, 8)
    assert bias_function(f, {}) == f.exact_expectation()
    x = tuple(rng.choice((-1, 1)) for _ in range(8))
    assert bias_function(f, dict(enumerate(x))) == f.evaluate(x)


def test_bias_function_matches_enumeration():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(2, 10)
        f = random_read_once_cnf(rng, n)
        keep = sorted(rng.sample(range(n), rng.randint(0, n)))
        xs = [rng.choice((-1, 1)) for _ in keep]
        free = [v for v in range(n) if v not in keep]
        total = 0
        for completion in product((-1, 1), repeat=len(free)):
            full = [0] * n
            for v, s in zip(keep, xs):
                full[v] = s
            for v, s in zip(free, completion):
                full[v] = s
            total += f.evaluate(full)
        assert bias_function(f, dict(zip(keep, xs))) == Fraction(total, 1 << len(free))


def test_xorcnf_restriction_folds_parity_target():
    g = XorCnf(3, (Term("xor", (Literal(0), Literal(1)), 1),))
    fixed_true = apply_restriction(g, {0: 1})
    assert fixed_true.terms[0].target == 0
    gone = apply_restriction(g, {0: 1, 1: -1})
    assert gone.size == 0 and gone.exact_expectation() == 1
    dead = apply_restriction(g, {0: 1, 1: 1})
    assert dead.is_false


def test_read_once_cnf_runs_as_its_or_terms():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(2, 9)
        f = random_read_once_cnf(rng, n)
        assert f.terms == tuple(Term("or", c) for c in f.clauses)
        g = XorCnf(n, f.terms)
        signs = all_sign_rows(n)
        assert (f.eval_batch(signs) == g.eval_batch(signs)).all()
        assert [f.evaluate(x) for x in all_signs(n)] == [g.evaluate(x) for x in all_signs(n)]
        assert (f.size, f.variables(), f.exact_expectation()) == \
            (g.size, g.variables(), g.exact_expectation())
        rho = {v: rng.choice((-1, 1)) for v in rng.sample(range(n), rng.randint(0, n))}
        rf, rg = apply_restriction(f, rho), apply_restriction(g, rho)
        assert type(rf) is ReadOnceCnf and type(rg) is XorCnf
        assert rf.is_false == rg.is_false and rf.terms == rg.terms
    zero = ReadOnceCnf.constant_zero(3)
    assert zero.terms == () and not zero.eval_batch(all_sign_rows(3)).any()


def test_traced_methods_stay_on_their_classes():
    # the benchmark's tracer wraps each class's own evaluate and
    # exact_expectation; its self-test installs every wrapper
    for cls in (ReadOnceCnf, XorCnf, CombRect, Robp):
        assert {"evaluate", "exact_expectation"} <= set(vars(cls)), cls
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], capture_output=True,
                          text=True, cwd=Path(__file__).resolve().parents[1])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_rect_eval_and_expectation():
    rng = random.Random(13)
    for _ in range(15):
        m, w = rng.randint(1, 3), rng.randint(1, 3)
        r = CombRect(m, w, tuple(rng.getrandbits(1 << w) for _ in range(m)))
        bf = sum(r.evaluate(x) for x in all_signs(m * w))
        assert r.exact_expectation() == Fraction(bf, 1 << (m * w))


def test_pack_blocks_equals_pack_block_row_by_row():
    rng = np.random.default_rng(14)
    for w in (0, 1, 6, 16):
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(3, 5, w))
        got = pack_blocks(signs)
        assert got.dtype == np.int64 and got.shape == (3, 5)
        assert [[pack_block(block) for block in row] for row in signs] == got.tolist()


def test_accepts_at_equals_coordinate_accepts_at_every_pattern():
    # tables 0 and all-ones, and ones whose top bits are clear, so that
    # patterns past the unpacked bits are read through the clip
    rng = random.Random(15)
    for w in range(6):
        full = (1 << (1 << w)) - 1
        tables = (0, full, 1, full >> ((1 << w) // 2), rng.getrandbits(1 << w))
        rect = CombRect(len(tables), w, tables)
        patterns = np.arange(1 << w)
        for i in range(rect.m):
            want = [rect.coordinate_accepts(i, int(a)) for a in patterns]
            got = rect.accepts_at(i, patterns)
            assert got.dtype == bool and got.tolist() == want, (w, i)


def test_wide_rect_repr_leaves_the_tables_out():
    rect = CombRect(1, 20, ((1 << (1 << 20)) - 1,))
    assert repr(rect) == "CombRect(m=1, w=20)"


def test_robp_and_chain():
    prog = and_chain_program(2)
    assert prog.evaluate((1, -1)) == 0
    assert prog.evaluate((1, 1)) == 1
    assert prog.exact_expectation() == Fraction(1, 4)
    q = prog.conditional_visit_probs()
    assert q[2][0] == 1  # the both-true state carries every accepting path
    assert q[0][0] == 1


def test_robp_sudden_death_bottom_absorbs():
    prog = and_chain_program(5)
    assert prog.is_sudden_death()
    c = prog.accept_counts()
    for t in range(1, 5):
        assert c[t][2] == 0


def test_robp_matches_brute_force_random():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(2, 10)
        prog = random_width3(rng, n)
        acc = prog.eval_all()
        assert prog.exact_expectation() == Fraction(int(acc.sum()), 1 << n)
        # eval paths and batch agree
        signs = np.array(all_signs(n), dtype=np.int8)
        batch = prog.eval_batch(signs)
        packed = ((signs == 1).astype(np.int64) << np.arange(n)).sum(axis=1)
        assert (batch == acc[packed]).all()


def _random_ordered_program(rng, n, d):
    next0, next1 = ([tuple(rng.randrange(d) for _ in range(d)) for _ in range(n)]
                    for _ in range(2))
    order = list(range(n))
    rng.shuffle(order)
    return Robp(n=n, d=d, next0=tuple(next0), next1=tuple(next1), order=tuple(order))


def _fraction_accept_probabilities(prog):
    """The backward recurrence in Fraction, p = (p0 + p1) / 2 per state."""
    p = [[Fraction(0)] * prog.d for _ in range(prog.n + 1)]
    p[prog.n][prog.ACC] = Fraction(1)
    for t in range(prog.n - 1, -1, -1):
        for i in range(prog.d):
            p[t][i] = (p[t + 1][prog.next0[t][i]] + p[t + 1][prog.next1[t][i]]) / 2
    return p


def test_integer_accept_counts_match_fraction_dp():
    rng = random.Random(17)
    for _ in range(60):
        n, d = rng.randint(1, 12), rng.randint(2, 4)
        prog = _random_ordered_program(rng, n, d)
        want = _fraction_accept_probabilities(prog)
        assert prog.accept_counts() == [[v * (1 << (n - t)) for v in row]
                                        for t, row in enumerate(want)]
        assert prog.exact_expectation() == want[0][0]
        assert prog.exact_expectation() == Fraction(int(prog.eval_all().sum()), 1 << n)


def _fraction_reach_probabilities(prog):
    """The forward recurrence in Fraction: each state sends half its
    mass along each edge."""
    r = [[Fraction(0)] * prog.d for _ in range(prog.n + 1)]
    r[0][0] = Fraction(1)
    for t in range(prog.n):
        for i in range(prog.d):
            r[t + 1][prog.next0[t][i]] += r[t][i] / 2
            r[t + 1][prog.next1[t][i]] += r[t][i] / 2
    return r


def _fraction_first_top_arrival(prog):
    """The forward recurrence in Fraction with slot 0 absorbing past
    layer 0: the mass entering it at layer j is the first arrival."""
    q = [Fraction(0)] * (prog.n + 1)
    mass = [Fraction(0)] * prog.d
    mass[0] = Fraction(1)
    for t in range(prog.n):
        nxt = [Fraction(0)] * prog.d
        for i in range(prog.d):
            if t and i == 0:
                continue
            nxt[prog.next0[t][i]] += mass[i] / 2
            nxt[prog.next1[t][i]] += mass[i] / 2
        q[t + 1], mass = nxt[0], nxt
    return q


def test_path_counts_match_fraction_recurrences():
    from derand.bp3 import first_top_arrival
    rng = random.Random(18)
    for trial in range(80):
        prog = _random_ordered_program(rng, trial % 13, 2 + trial % 3)
        n = prog.n
        r = _fraction_reach_probabilities(prog)
        assert prog.reach_counts() == [[v * (1 << t) for v in row] for t, row in enumerate(r)]
        assert first_top_arrival(prog) == [v * (1 << n) for v in _fraction_first_top_arrival(prog)]
        p = _fraction_accept_probabilities(prog)
        if p[0][0] == 0:
            with pytest.raises(ValueError):
                prog.conditional_visit_probs()
        else:
            assert prog.conditional_visit_probs() == [
                [a * b / p[0][0] for a, b in zip(reach, acc)] for reach, acc in zip(r, p)]


def test_walk_matches_evaluate_and_hardwiring():
    from derand.bp3 import hardwire
    rng = random.Random(19)
    for trial in range(40):
        prog = _random_ordered_program(rng, trial % 9, 2 + trial % 3)
        n = prog.n
        acc = prog.eval_all()
        assert acc.tolist() == [bool(prog.evaluate(row)) for row in all_sign_rows(n).tolist()]
        forced = {v: rng.randrange(2) for v in range(n) if rng.randrange(3) == 0}
        agree = [m for m in range(1 << n)
                 if all((m >> v) & 1 == b for v, b in forced.items())]
        want = Fraction(int(acc[agree].sum()), 1 << (n - len(forced)))
        assert hardwire(prog, forced).exact_expectation() == want


def _walked_table(prog):
    """The oracle for eval_all: walk every input as one batch and place
    each accept flag at the little-endian packing of its row."""
    signs = all_sign_rows(prog.n)
    packed = ((signs == 1).astype(np.int64) << np.arange(prog.n)).sum(axis=1)
    table = np.zeros(1 << prog.n, dtype=bool)
    table[packed] = prog.eval_batch(signs)
    return table


@pytest.mark.parametrize("d", range(2, 6))
def test_eval_all_matches_walk_under_random_orders(d):
    rng = random.Random(170 + d)
    for n in range(15):
        for _ in range(3 if n < 10 else 1):
            prog = _random_ordered_program(rng, n, d)
            acc = prog.eval_all()
            assert acc.dtype == bool and (acc == _walked_table(prog)).all()


def _walked_bad_visits(prog):
    """The oracle for bad_visit_counts: walk the 2^n x n bit matrix and
    count each input's visits to bad states, layer by layer."""
    from derand.bp3 import bad_states
    bad = bad_states(prog)
    counts = np.zeros(1 << prog.n, dtype=np.int16)
    for t, state in enumerate(prog.walk(all_bit_rows(prog.n))):
        for i in range(prog.d):
            if (t, i) in bad:
                counts += state == i
    return counts


def test_bad_visit_counts_match_walk_under_random_orders():
    from derand.bp3 import bad_visit_counts
    rng = random.Random(20)
    for n in range(11):
        for d in range(2, 5):
            prog = _random_ordered_program(rng, n, d)
            counts = bad_visit_counts(prog)
            assert counts.dtype == np.int16
            assert counts.tolist() == _walked_bad_visits(prog).tolist()


@pytest.mark.parametrize("d, size", [(2, 7), (3, 90), (130, 3), (300, 4)])
def test_batch_prefix_slots_match_walk_under_mixed_orders(d, size):
    # one batch of programs with their own read orders; coded slots pass
    # 255 at d = 3 with 90 programs and at d = 130, and stay uint16 at
    # d = 300: at every layer, prefix j of program p holds the slot the
    # walk reaches on every input whose low read bits are j
    rng = random.Random(d)
    n = 7
    progs = [_random_ordered_program(rng, n, d) for _ in range(size)]
    rows = all_bit_rows(n)
    walks = []
    for prog in progs:
        bits = np.empty_like(rows)
        bits[:, list(prog.order)] = rows  # column u of rows is the bit layer u reads
        walks.append(list(prog.walk(bits)))
    layers = list(batch_prefix_slots(progs))
    assert len(layers) == n + 1
    for t, slots in enumerate(layers):
        assert slots.shape == (size, 1 << t) and int(slots.max()) < d
        low = np.arange(1 << n) & ((1 << t) - 1)
        for row, walked in zip(slots, walks):
            assert (row[low] == walked[t]).all()
    for row, prog in zip(layers[-1], progs):
        assert (prog.in_variable_order(row == Robp.ACC) == _walked_table(prog)).all()
    with pytest.raises(ValueError, match="must share n and d"):
        next(batch_prefix_slots([progs[0], _random_ordered_program(rng, n + 1, d)]))


def test_eval_all_matches_walk_on_width3_corpus():
    from derand.harness import width3_corpus
    for _name, prog in width3_corpus(100):
        assert (prog.eval_all() == _walked_table(prog)).all()


@pytest.mark.parametrize("d", [130, 300])
def test_wide_programs_evaluate_past_one_byte_of_slots(d):
    # slots above 127 (and 255) must survive the walk and the doubling; the
    # last layer sends about a third of the slots to Acc so both answers occur
    rng = random.Random(d)
    n = 7
    next0, next1 = ([tuple(rng.randrange(d) for _ in range(d)) for _ in range(n - 1)]
                    for _ in range(2))
    for table in (next0, next1):
        table.append(tuple(rng.choice((Robp.ACC, d - 1, d - 2)) for _ in range(d)))
    order = list(range(n))
    rng.shuffle(order)
    prog = Robp(n=n, d=d, next0=tuple(next0), next1=tuple(next1), order=tuple(order))
    signs = all_sign_rows(n)
    assert max(int(s.max()) for s in prog.walk(signs == 1)) >= d - 2
    want = [bool(prog.evaluate(row)) for row in signs.tolist()]
    assert 0 < sum(want) < len(want)
    assert prog.eval_batch(signs).tolist() == want
    assert prog.eval_all().tolist() == want


def test_zero_length_program_walks_its_batch():
    from derand.bp3 import bad_visit_counts
    for d in (2, 3, 4):
        prog = Robp(n=0, d=d, next0=(), next1=())
        assert prog.evaluate(()) == 1
        assert prog.exact_expectation() == 1
        assert prog.eval_all().tolist() == [True]
        assert prog.eval_batch(np.zeros((5, 0), dtype=np.int8)).tolist() == [True] * 5
        assert prog.eval_batch(np.zeros((0, 0), dtype=np.int8)).tolist() == []
        assert bad_visit_counts(prog).tolist() == [0]
        assert [s.tolist() for s in prog.walk(np.zeros((3, 0), dtype=bool))] == [[0, 0, 0]]


def test_robp_variable_order():
    base = and_chain_program(3)
    perm = Robp(n=3, d=3, next0=base.next0, next1=base.next1, order=(2, 0, 1))
    # layer t reads variable order[t]; AND is symmetric so function equal
    for x in all_signs(3):
        assert perm.evaluate(x) == base.evaluate(x)
    with pytest.raises(ValueError):
        Robp(n=3, d=3, next0=base.next0, next1=base.next1, order=(0, 0, 1))


def test_parity_program():
    prog = parity_program(4)
    acc = prog.eval_all()
    for mask in range(16):
        assert int(acc[mask]) == (bin(mask).count("1") % 2)


def test_conditional_probs_require_positive_expectation():
    dead = Robp(n=1, d=3, next0=((2, 2, 2),), next1=((2, 2, 2),))
    with pytest.raises(ValueError):
        dead.conditional_visit_probs()


def test_bad_count_tail_bound_for_sudden_death_corpus():
    from derand.bp3 import bad_visit_counts, sudden_death_reduce
    rng = random.Random(15)
    checked = 0
    for _ in range(25):
        prog = random_width3(rng, rng.randint(4, 10), Fraction(1, 8))
        g = sudden_death_reduce(prog, Fraction(1, 8)).program
        counts = bad_visit_counts(g)
        total = 1 << g.n
        for t in range(1, int(counts.max()) + 1):
            assert Fraction(int((counts >= t).sum()), total) <= Fraction(2, 1 << t)
        checked += 1
    assert checked == 25


def test_width2_and_program_example():
    prog = Robp(n=2, d=2, next0=((1, 1), (1, 1)), next1=((0, 1), (0, 1)))
    assert prog.evaluate((1, -1)) == 0
    assert prog.evaluate((1, 1)) == 1


def test_half_restricted_tribes_bias_formula():
    # fixing the first half of every clause to false leaves each clause a
    # width-w/2 OR: the bias function factors as prod(1 - 2^(-w/2) + sat*2^(-w/2))
    f = ReadOnceCnf(32, tuple(tuple(Literal(4 * i + q) for q in range(4)) for i in range(8)))
    half = [v.index for c in f.clauses for v in c[:2]]
    xs = [-1] * len(half)
    got = bias_function(f, dict(zip(half, xs)))
    per_clause = 1 - Fraction(1, 4)  # no clause satisfied by the fixed half
    assert got == per_clause ** 8
    # per-clause brute force over the free half agrees
    for clause in f.clauses:
        free = [v.index for v in clause[2:]]
        hits = 0
        for completion in product((-1, 1), repeat=2):
            x = {v: -1 for v in (lit.index for lit in clause)}
            x.update(dict(zip(free, completion)))
            hits += int(any(lit.truth(x[lit.index]) for lit in clause))
        assert Fraction(hits, 4) == per_clause
