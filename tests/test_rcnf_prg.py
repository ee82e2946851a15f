import json
import os
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from derand import rcnf_prg
from derand.harness import (exhaustive_advantage, random_read_once_cnf, rcnf_generator,
                            rcnf_structured_advantage)
from derand.models import Literal, Term, XorCnf, apply_restriction
from derand.signs import parse_seed_hex, split_seeds
from derand.rcnf_prg import (BITS_PER_INDEX, GenConstants, derive_params, desk_preset,
                             explicit_params, restriction_trace, sample,
                             sample_batch, shrink_size_bound, split_seed)
from derand.smallbias import GF2k, sample_subset

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def load_golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="ascii") as fh:
        return fh.read()


def test_derived_params_match_golden():
    params = derive_params(64, Fraction(1, 16))
    assert json.dumps(params.to_json(), indent=1, sort_keys=True) + "\n" == \
        load_golden("rcnf_derived_64.json")


def test_rounds_at_least_one():
    for n in (2, 3, 5, 64, 1000):
        assert derive_params(n, Fraction(1, 4)).rounds >= 1


def test_seed_length_grows_as_error_shrinks():
    prev = None
    for j in range(3, 10):
        params = derive_params(64, Fraction(1, 1 << j), bias_floor=None)
        if prev is not None:
            assert params.seed_bits > prev
        prev = params.seed_bits


def test_floor_hits_name_only_biases_raised_from_below(tmp_path, capsys):
    from derand import cli
    from derand.smallbias import DEFAULT_BIAS_FLOOR, BiasedSpaceSpec, subset_bias_budget

    # c = 3 at n = 2, eps = 1/4 demands a subset bias of exactly the floor:
    # it is met, not raised, so only delta1 and delta2 are hits
    c3 = derive_params(2, Fraction(1, 4), GenConstants(subset_exp=3))
    assert subset_bias_budget(c3.delta, BITS_PER_INDEX) == DEFAULT_BIAS_FLOOR
    assert c3.subset_spec.base == BiasedSpaceSpec.for_bias(2 * BITS_PER_INDEX,
                                                           DEFAULT_BIAS_FLOOR)
    assert c3.floor_hits == ("delta1", "delta2")
    constants = tmp_path / "c.json"
    constants.write_text(json.dumps({"c": 3}), encoding="ascii")
    assert cli.main(["gen", "rcnf", "--preset", "derived", "--n", "2", "--eps", "1/4",
                     "--constants", str(constants), "--dump-params"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == c3.to_json() and record["floorHits"] == ["delta1", "delta2"]
    # every demanded bias below the floor, and none without one
    assert derive_params(64, Fraction(1, 16)).floor_hits == ("delta1", "delta2", "subset")
    uncapped = derive_params(64, Fraction(1, 16), bias_floor=None)
    assert uncapped.floor_hits == ()
    assert uncapped.subset_spec.base.epsilon < DEFAULT_BIAS_FLOOR


def test_desk_preset_is_enumerable():
    params = desk_preset()
    assert params.n == 64
    assert params.epsilon == Fraction(1, 16)
    assert params.seed_bits <= 26


def test_partition_property():
    params = desk_preset()
    rng = random.Random(41)
    for _ in range(50):
        seed = rng.randrange(1 << params.seed_bits)
        trace, y = restriction_trace(params, seed)
        seen = set()
        for assigned in trace:
            assert not (assigned.keys() & seen)
            assert set(assigned.values()) <= {-1, 1}
            seen |= assigned.keys()
        # restricted plus free indices cover everything exactly once
        assert seen | (set(range(params.n)) - seen) == set(range(params.n))


def test_trace_replay_reproduces_sample():
    params = replace(explicit_params(20, Fraction(1, 8), k_subset=3, k_z=3, k_y=4), rounds=2)
    rng = random.Random(42)
    for _ in range(40):
        seed = rng.randrange(1 << params.seed_bits)
        trace, y = restriction_trace(params, seed)
        out = list(y.values) if y is not None else [None] * params.n
        for assigned in trace:
            for i, s in assigned.items():
                out[i] = s
        assert tuple(out) == sample(params, seed).values
        # y is left out exactly when the rounds cover every index
        assert (y is None) == (sum(map(len, trace)) == params.n)


def test_forced_extreme_subsets():
    # one round; empty restriction routes everything through the fill string
    params = explicit_params(8, Fraction(1, 4), k_subset=2, k_z=2, k_y=3)
    for seed in range(1 << params.seed_bits):
        trace, y = restriction_trace(params, seed)
        part, = trace
        out = sample(params, seed)
        if not part:
            assert out.values == y.values
        if len(part) == params.n:
            ((z_seed,),), _js, _ys = split_seed(params, [seed])
            from derand.smallbias import generate_biased
            z = generate_biased(params.z_spec, z_seed)
            assert out.values == z.values


def test_golden_desk_sample():
    params = desk_preset()
    got = []
    for seed_hex in ("00fab102", "04234501", "ffffff03"):
        seed = parse_seed_hex(seed_hex, params.seed_bits)
        out = sample(params, seed)
        got.append(seed_hex + " " + "".join("+" if v == 1 else "-" for v in out.values))
    assert "\n".join(got) + "\n" == load_golden("rcnf_desk_samples.txt")


def test_golden_derived_samples(capsys):
    # the powered path at the recipe's degrees (z and y at k = 31, J at
    # k = 34), read through `derand gen rcnf --preset derived`.  Each
    # line is a seed and the signs that command printed for it before
    # the one-seed multiply took its slot-spread form.  The eight seeds:
    # all zero; every field at s = 1; z and y at s = 1, J random; z at
    # s = 0, J random, y at s = 1; z random, J at s = 1, y at s = 0
    # (each fixed-s field with a random odd r); four random seeds
    from derand import cli
    params = derive_params(64, Fraction(1, 16))
    lines = load_golden("rcnf_derived_samples.txt").splitlines()
    seeds = [line.split()[0] for line in lines]
    got = []
    for seed_hex in seeds:
        assert cli.main(["gen", "rcnf", "--preset", "derived", "--seed", seed_hex]) == 0
        got.append(seed_hex + " " + capsys.readouterr().out.rstrip("\n"))
    assert got == lines
    fields = split_seeds(params.seed_widths, [parse_seed_hex(h, params.seed_bits) for h in seeds])
    for width, values in zip(params.seed_widths, fields):  # each field at s = 0 and s = 1
        assert {0, 1} <= {v >> width // 2 for v in values}

def test_hand_traced_output_coordinate():
    # recompute output coordinates from raw field arithmetic, bypassing
    # the library's assembly path
    params = desk_preset()
    seed = 0x2ABCDE1
    zbits = params.z_spec.seed_bits
    jbits = params.subset_spec.seed_bits
    z_seed = seed & ((1 << zbits) - 1)
    j_seed = (seed >> zbits) & ((1 << jbits) - 1)
    y_seed = seed >> (zbits + jbits)

    def powering_bit(k, sd, position):
        gf = GF2k(k)
        r = sd & ((1 << k) - 1)
        s = sd >> k
        power = gf.pow(s, position)
        return bin(r & power).count("1") & 1

    out = sample(params, seed)
    kj = params.subset_spec.base.field_degree
    for i in range(10):
        in_subset = all(
            powering_bit(kj, j_seed, 5 * i + q) == 1 for q in range(5))
        if in_subset:
            want = powering_bit(params.z_spec.field_degree, z_seed, i)
        else:
            want = powering_bit(params.y_spec.field_degree, y_seed, i)
        assert out[i] == (-1 if want else 1)


def test_structured_advantage_equals_naive_walk():
    params = explicit_params(16, Fraction(1, 8), k_subset=2, k_z=2, k_y=3)
    rng = random.Random(43)
    for _ in range(4):
        f = random_read_once_cnf(rng, 16)
        fast = rcnf_structured_advantage(params, f, name="x")
        slow = exhaustive_advantage(rcnf_generator(params), f)
        assert fast.gen_e == slow.gen_e


def test_pure_parity_fooled_at_small_bias_level():
    params = desk_preset()
    parity = XorCnf(3, (Term("xor", (Literal(0), Literal(1), Literal(2))),))
    rep = rcnf_structured_advantage(params, parity, name="parity3")
    assert rep.exact_e == Fraction(1, 2)
    assert rep.advantage <= Fraction(1, 10)


@pytest.mark.parametrize("rounds", [1, 3])
def test_sample_batch_equals_per_seed_sample(rounds):
    # T = 3 lets later rounds find indices already covered
    params = replace(explicit_params(12, Fraction(1, 4), k_subset=3, k_z=3, k_y=5,
                                     bits_per_index=1), rounds=rounds)
    rng = random.Random(45 + rounds)
    seeds = [rng.getrandbits(params.seed_bits) for _ in range(300)] + [0]
    batch = sample_batch(params, seeds)
    assert batch.dtype == np.int8 and batch.shape == (len(seeds), params.n)
    assert [tuple(row) for row in batch] == [sample(params, seed).values for seed in seeds]
    assert sample_batch(params, []).shape == (0, params.n)


def test_sample_batch_equals_sample_at_derived_degrees():
    params = derive_params(64, Fraction(1, 16))
    rng = random.Random(47)
    seeds = [rng.getrandbits(params.seed_bits) for _ in range(6)]
    assert [tuple(row) for row in sample_batch(params, seeds)] == \
        [sample(params, seed).values for seed in seeds]


def test_shrinkage_and_bias_preservation_reports():
    """Per-round surviving-clause counts and restriction-averaged bias,
    measured over the full (J, z) space at desk scale.  The shrink
    fractions are reported (the configured constants are asymptotic),
    the bias deviation must sit inside the configured budget."""
    params = desk_preset()
    constants = params.constants
    rng = random.Random(44)
    corpus = [random_read_once_cnf(rng, params.n, max_width=4) for _ in range(4)]
    corpus = [f for f in corpus if f.exact_expectation() >= params.epsilon]
    assert corpus
    from derand.smallbias import outputs_all_seeds, subsets_all_seeds
    zout = outputs_all_seeds(params.z_spec)
    jmasks = subsets_all_seeds(params.subset_spec)
    budget = min(Fraction(1), params.bias_budget())
    for f in corpus:
        exceed = 0
        total = 0
        bias_acc = Fraction(0)
        bound = shrink_size_bound(params.n, params.epsilon, f.size, constants)
        for jm in jmasks:
            part = [i for i in range(params.n) if (int(jm) >> i) & 1]
            for zrow in range(zout.shape[0]):
                g = apply_restriction(f, {i: int(zout[zrow, i]) for i in part})
                total += 1
                if (0 if g.is_false else g.size) > bound:
                    exceed += 1
                bias_acc += g.exact_expectation()
        shrink_fraction = Fraction(exceed, total)
        deviation = abs(bias_acc / total - f.exact_expectation())
        print(f"shrink fraction {float(shrink_fraction):.4f} "
              f"bias deviation {float(deviation):.4f} (budget {float(budget):.3f})")
        assert deviation <= budget


def test_constants_record_round_trip():
    c = GenConstants(rounds_scale=Fraction(1, 2), subset_exp=3,
                     shrink_exp=2, shrink_gamma=Fraction(1, 4))
    params = derive_params(32, Fraction(1, 8), constants=c)
    assert params.constants == c
    data = params.to_json()
    assert data["constants"] == {"C": "1/2", "c": 3, "c2": 2, "gamma": "1/4"}


def test_seed_length_errors():
    params = desk_preset()
    message = f"seed must fit in {params.seed_bits} bits"
    with pytest.raises(ValueError, match=message):
        sample(params, 1 << params.seed_bits)
    for seeds in ([1 << params.seed_bits], [3, -1]):
        with pytest.raises(ValueError, match=message):
            sample_batch(params, seeds)


def test_hsg_preset_is_built_once_per_length():
    assert rcnf_prg.hsg_inner_preset(14) is rcnf_prg.hsg_inner_preset(14)
    assert rcnf_prg.hsg_inner_preset(14) == explicit_params(
        14, Fraction(1, 4), k_subset=2, k_z=3, k_y=6, preset="hsg14")


def test_bias_function_is_fooled_at_the_small_bias_level():
    """The mechanism behind the generator: assigning each clause's first
    half from a small-bias string preserves the formula's bias much more
    tightly than the space's own character bias suggests.  Measured
    exhaustively over every seed; the direct whole-formula advantage of
    the same construction is reported alongside."""
    from derand.models import bias_function, tribes
    from derand.smallbias import BiasedSpaceSpec, outputs_all_seeds

    f = tribes(2)
    half = [c[0].index for c in f.clauses]
    exact = f.exact_expectation()
    spec = BiasedSpaceSpec.with_degree(len(half), 6)
    outs = outputs_all_seeds(spec)
    acc = Fraction(0)
    for row in outs:
        acc += bias_function(f, {i: int(v) for i, v in zip(half, row)})
    restricted_adv = abs(acc / len(outs) - exact)
    full_spec = BiasedSpaceSpec.with_degree(f.n, 6)
    full_outs = outputs_all_seeds(full_spec)
    direct_adv = abs(Fraction(int(f.eval_batch(full_outs).sum()),
                              full_outs.shape[0]) - exact)
    print(f"half-restriction advantage {float(restricted_adv):.4f}, "
          f"direct {float(direct_adv):.4f}, "
          f"space bias bound {float(spec.bias_bound):.4f}")
    assert restricted_adv <= Fraction(1, 16)


def test_sample_skips_strings_no_output_reads(monkeypatch):
    # a round reads its z once at each index it covers first, so a round
    # whose J adds no fresh index reads no z, and a seed whose rounds
    # cover every index expands no y; outputs still equal sample_batch,
    # which expands every string
    params = replace(explicit_params(12, Fraction(1, 4), k_subset=3, k_z=3, k_y=5,
                                     bits_per_index=1), rounds=2)
    every, empty = 1 | 1 << 3, 0  # J seeds (r, s) = (1, 1) and (0, 0)
    rng = random.Random(48)
    seeds = []
    for j1 in (every, empty, None):
        for j2 in (every, empty, None):
            for _ in range(8):
                j = [rng.getrandbits(6) if v is None else v for v in (j1, j2)]
                seeds.append(rng.getrandbits(12) | j[0] << 12 | j[1] << 18
                             | rng.getrandbits(10) << 24)
    reads = []

    class Spy(rcnf_prg.PoweringSeed):
        def signs(self, start=0, count=None):
            reads.append((self.spec, self.seed, start, count))
            return super().signs(start, count)
    real = rcnf_prg.generate_biased
    monkeypatch.setattr(rcnf_prg, "PoweringSeed", Spy)
    monkeypatch.setattr(rcnf_prg, "generate_biased",
                        lambda spec, seed: reads.append((spec, seed, 0, None)) or real(spec, seed))
    kinds = set()
    for seed, row in zip(seeds, sample_batch(params, seeds)):
        z_seeds, j_seeds, (y_seed,) = split_seed(params, [seed])
        covered, fresh_sets, want = set(), [], []
        for (z_seed,), (j_seed,) in zip(z_seeds, j_seeds):
            fresh = sample_subset(params.subset_spec, j_seed) - covered
            fresh_sets.append(fresh)
            want += [(params.z_spec, z_seed, i, 1) for i in fresh]
            kinds |= set() if fresh else {"empty round"}
            covered |= fresh
        if len(covered) < params.n:
            want.append((params.y_spec, y_seed, 0, None))
        reads.clear()
        trace, y = restriction_trace(params, seed)
        assert Counter(reads) == Counter(want)
        assert [set(part) for part in trace] == fresh_sets
        assert (y is None) == (len(covered) == params.n)
        kinds |= {"all covered"} if y is None else set()
        assert sample(params, seed).values == tuple(row)
    assert kinds == {"empty round", "all covered"}


def test_constants_json_round_trip_and_defaults():
    c = GenConstants(rounds_scale=Fraction(1, 2), subset_exp=3,
                     shrink_exp=2, shrink_gamma=Fraction(1, 4))
    assert GenConstants.from_json(c.to_json()) == c
    assert GenConstants.from_json({}) == GenConstants()
    assert GenConstants.from_json({"C": 2, "gamma": "1/4"}) == \
        GenConstants(rounds_scale=Fraction(2), shrink_gamma=Fraction(1, 4))
    for bad in ([1], {"gama": "1/8"}, {"c1": 13}, {"c": 1.5}, {"c": [2]}, {"c2": True},
                {"C": "x"}, {"gamma": float("inf")}):
        with pytest.raises(ValueError):
            GenConstants.from_json(bad)


def test_preset_records_match_golden(capsys):
    # the presets, the single-stage and many-stage rectangle records, a
    # scaled-constants derivation and the CLI's hsg record, one compact
    # JSON record a line
    from derand import cli
    from derand.cr_prg import derive_cr_params, desk_cr_preset, explicit_cr_params

    records = [desk_preset()] + [rcnf_prg.hsg_inner_preset(n) for n in (4, 10, 16)]
    records += [desk_cr_preset(8, 8), desk_cr_preset(4, 3),
                explicit_cr_params(2, 16, Fraction(1, 16), degrees=(3, 3, 3, 4)),
                derive_cr_params(4, 16, Fraction(1, 8)),
                derive_params(32, Fraction(1, 8),
                              constants=GenConstants(rounds_scale=Fraction(1, 2)))]
    records = [params.to_json() for params in records]
    assert cli.main(["gen", "hsg", "--n", "10", "--dump-params"]) == 0
    records.append(json.loads(capsys.readouterr().out))
    got = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    assert got == load_golden("params_presets.jsonl")
