import json
import os
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from derand.cr_prg import (bias_function_cr, derive_cr_params, desk_cr_preset,
                           explicit_cr_params, pack_matrix, restrict_rect, sample_cr,
                           width_schedule)
from derand.harness import random_rect
from derand.models import CombRect
from derand.signs import pack_block, pack_blocks, parse_seed_hex, split_seeds
from derand.smallbias import (DEFAULT_BIAS_FLOOR, BiasedSpaceSpec, PoweringSeed,
                              generate_biased, outputs_all_seeds)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _parts(params, seed):
    """The stage seeds of one seed, first stage first."""
    return [part for part, in split_seeds(params.seed_widths, [seed])]


def _stage_matrices(params, seed):
    """All inner-stage lookup matrices of a seed (the direct stage's
    blocks are its biased string, packed)."""
    parts = _parts(params, seed)
    return [pack_matrix(generate_biased(spec, part).values, rows, params.m, width)
            for spec, part, (rows, width) in zip(params.stage_specs[:-1], parts,
                                                 params.stage_shapes[:-1])]


def _materialized_levels(params, seed, mats):
    """Packed blocks of every level, innermost first, each looked up in
    the previous stage's materialized matrix (``mats``, the seed's
    ``_stage_matrices``); the last level is the output."""
    width = params.stage_shapes[-1][1]
    direct = generate_biased(params.stage_specs[-1], _parts(params, seed)[-1]).values
    levels = [[pack_block(direct[i * width:(i + 1) * width]) for i in range(params.m)]]
    for mat in reversed(mats):
        levels.append([int(mat[row, i]) for i, row in enumerate(levels[-1])])
    return levels


def _packed_output(params, seed):
    out = sample_cr(params, seed)
    return [pack_block(out[i * params.w:(i + 1) * params.w]) for i in range(params.m)]


def load_golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="ascii") as fh:
        return fh.read()


def test_width_schedule_examples():
    assert width_schedule(16) == (16, 12, 9, 6, 4)
    assert width_schedule(3) == (3,)
    assert width_schedule(8) == (8, 6, 4)
    sched = width_schedule(16)
    assert all(a > b for a, b in zip(sched, sched[1:]))


def test_degenerate_schedule_single_stage():
    params = explicit_cr_params(4, 3, Fraction(1, 8), degrees=(4,))
    assert params.stages == 1
    out = sample_cr(params, 5)
    direct = generate_biased(params.stage_specs[0], 5)
    assert out.values == direct.values


def test_derived_params_match_golden():
    params = derive_cr_params(8, 8, Fraction(1, 16))
    assert json.dumps(params.to_json(), indent=1, sort_keys=True) + "\n" == \
        load_golden("cr_derived_8x8.json")
    # epsilon1 = 2^-52 is raised; epsilon2 = 2^-24 is demanded at the floor, not a hit
    assert params.floor_hits == ("epsilon1",)
    assert {spec.epsilon for spec in params.stage_specs} == {DEFAULT_BIAS_FLOOR}


def test_golden_desk_samples():
    params = desk_cr_preset()
    got = []
    for seed_hex in ("0000", "1234", "ff3f"):
        seed = parse_seed_hex(seed_hex, params.seed_bits)
        out = sample_cr(params, seed)
        got.append(seed_hex + " " + "".join("+" if v == 1 else "-" for v in out.values))
    assert "\n".join(got) + "\n" == load_golden("cr_desk_samples.txt")


def test_golden_derived_samples(capsys):
    # the powered path at the recipe's degrees (stage 0 at k = 37, read
    # in 8 runs of 8 signs out of 4096; stage 1 at k = 31), read through
    # `derand gen rect --preset derived`.  Each line is a seed and the
    # signs that command printed for it before the one-seed multiply
    # took its slot-spread form.  The eight seeds: all zero; both stages
    # at s = 1; stage 0 at s = 1 or s = 0 with stage 1 random; stage 0
    # random with stage 1 at s = 1 (each fixed-s stage with a random odd
    # r); four random seeds
    from derand import cli
    params = derive_cr_params(8, 8, Fraction(1, 16))
    lines = load_golden("cr_derived_samples.txt").splitlines()
    seeds = [line.split()[0] for line in lines]
    got = []
    for seed_hex in seeds:
        assert cli.main(["gen", "rect", "--preset", "derived", "--seed", seed_hex]) == 0
        got.append(seed_hex + " " + capsys.readouterr().out.rstrip("\n"))
    assert got == lines
    parts = split_seeds(params.seed_widths, [parse_seed_hex(h, params.seed_bits) for h in seeds])
    for width, values in zip(params.seed_widths, parts):  # each stage at s = 0 and s = 1
        assert {0, 1} <= {v >> width // 2 for v in values}


def test_constant_matrix_forwards_the_block():
    rng = random.Random(51)
    rect = random_rect(rng, 3, 4)
    restricted = restrict_rect(rect, np.full((8, 3), 0b1010, dtype=np.int64))
    for i in range(3):
        want = rect.coordinate_accepts(i, 0b1010)
        assert restricted.tables[i] == (0xFF if want else 0)


def test_bias_function_equals_enumeration_small_v():
    rng = random.Random(52)
    for _ in range(10):
        rect = random_rect(rng, 3, 4)
        spec = BiasedSpaceSpec.with_degree((1 << 3) * 3 * 4, 5)
        signs = generate_biased(spec, rng.randrange(1 << spec.seed_bits)).values
        matrix = pack_matrix(signs, 8, 3, 4)
        value = bias_function_cr(rect, matrix)
        restricted = restrict_rect(rect, matrix)
        assert value == restricted.exact_expectation()
        total = 0
        for y in product((-1, 1), repeat=9):
            ok = 1
            for i in range(3):
                ok &= restricted.coordinate_accepts(i, pack_block(y[3 * i:3 * i + 3]))
            total += ok
        assert value == Fraction(total, 512)


def test_all_accepting_and_half_accepting_rows():
    rect = CombRect(1, 2, (0b1111,))
    m = np.arange(4, dtype=np.int64).reshape(4, 1)
    assert bias_function_cr(rect, m) == 1
    rect_half = CombRect(1, 2, (0b0011,))
    assert bias_function_cr(rect_half, m) == Fraction(1, 2)


def test_composition_identity_every_seed_on_one_rectangle():
    params = desk_cr_preset()
    rng = random.Random(53)
    rect = random_rect(rng, params.m, params.w)
    inner_spec, direct_spec = params.stage_specs
    inner_out = outputs_all_seeds(inner_spec)
    (rows, entry_w), (_one, dw) = params.stage_shapes
    blocks = pack_blocks(outputs_all_seeds(direct_spec).reshape(-1, params.m, dw))
    for inner_seed in range(1 << inner_spec.seed_bits):
        matrix = pack_matrix(inner_out[inner_seed], rows, params.m, entry_w)
        restricted = restrict_rect(rect, matrix)
        # left side: evaluate the original rectangle on the looked-up entries
        left = np.ones(blocks.shape[0], dtype=bool)
        right = np.ones(blocks.shape[0], dtype=bool)
        for i in range(params.m):
            left &= rect.accepts_at(i, matrix[blocks[:, i], i])
            right &= restricted.accepts_at(i, blocks[:, i])
        assert (left == right).all()


def test_restrict_rect_refuses_a_matrix_it_cannot_gather():
    # m columns, 2^v rows and entries in [0, 2^w); a negative entry
    # would otherwise read pattern 0 of the clipped gather
    rect = CombRect(2, 3, (0b10110001, 0b01111110))
    good = np.arange(8, dtype=np.int64).reshape(4, 2)
    assert restrict_rect(rect, good).w == 2
    for bad, match in ((good[:, :1], "columns"), (np.zeros((4, 3), np.int64), "columns"),
                       (np.zeros((6, 2), np.int64), "power of two"),
                       (np.zeros((0, 2), np.int64), "power of two"),
                       (np.where(good == 5, -3, good), r"\[0, 2\^3\)"),
                       (np.where(good == 5, 8, good), r"\[0, 2\^3\)")):
        with pytest.raises(ValueError, match=match):
            restrict_rect(rect, bad)


def test_composition_identity_matches_sample_cr():
    params = desk_cr_preset()
    rng = random.Random(54)
    for _ in range(60):
        seed = rng.randrange(1 << params.seed_bits)
        rect = random_rect(rng, params.m, params.w)
        out = sample_cr(params, seed)
        mats = _stage_matrices(params, seed)
        restricted = restrict_rect(rect, mats[0])
        direct = generate_biased(params.stage_specs[-1], _parts(params, seed)[-1])
        assert rect.evaluate(out.values) == restricted.evaluate(direct.values)


def test_deeper_chain_identity():
    # the full chain: every restricted level agrees with the original
    # rectangle on the corresponding intermediate blocks
    params = explicit_cr_params(2, 16, Fraction(1, 16), degrees=(3, 3, 3, 4))
    rng = random.Random(55)
    assert params.schedule == (16, 12, 9, 6, 4)
    for _ in range(25):
        seed = rng.randrange(1 << params.seed_bits)
        rect = random_rect(rng, 2, 16)
        mats = _stage_matrices(params, seed)
        chain = [rect]
        for m in mats:
            chain.append(restrict_rect(chain[-1], m))
        levels = _materialized_levels(params, seed, mats)  # innermost first
        values = {all(level_rect.coordinate_accepts(i, block) for i, block in enumerate(blocks))
                  for level_rect, blocks in zip(reversed(chain), levels)}
        assert len(values) == 1
        assert levels[-1] == _packed_output(params, seed)


def test_lazy_positions_match_full_expansion():
    # the sampler reads runs of a stage string through one PoweringSeed
    spec = BiasedSpaceSpec.with_degree(200, 6)
    rng = random.Random(56)
    for _ in range(10):
        seed = rng.randrange(1 << spec.seed_bits)
        full = generate_biased(spec, seed)
        expansion = PoweringSeed(spec, seed)
        for _ in range(5):
            start = rng.randrange(150)
            count = rng.randint(1, 40)
            assert expansion.signs(start, count) == list(full.values[start:start + count])


def _rect_as_cnf_clauses(rect: CombRect) -> list:
    """The rectangle as a plain CNF: one width-w clause per rejecting
    block pattern per coordinate (general CNF, not read-once)."""
    clauses = []
    for i in range(rect.m):
        for a in range(1 << rect.w):
            if not rect.coordinate_accepts(i, a):
                clause = []
                for q in range(rect.w):
                    var = i * rect.w + q
                    bit = (a >> (rect.w - 1 - q)) & 1
                    clause.append((var, bit == 1))  # literal true iff x differs from a
                clauses.append(tuple(clause))
    return clauses


def _eval_cnf_clauses(clauses: list, x) -> int:
    for clause in clauses:
        sat = False
        for var, negated in clause:
            if (x[var] == 1) != negated:
                sat = True
                break
        if not sat:
            return 0
    return 1


def test_final_stage_cnf_fallback_cross_check():
    # a width-v rectangle equals its clause expansion; the measured
    # advantage under the final-stage space agrees between the two forms
    rng = random.Random(57)
    rect = random_rect(rng, 2, 3)
    spec = BiasedSpaceSpec.with_degree(rect.n, 4)
    outs = outputs_all_seeds(spec)
    clauses = _rect_as_cnf_clauses(rect)
    rect_hits = int(rect.eval_batch(outs).sum())
    cnf_hits = sum(_eval_cnf_clauses(clauses, tuple(row)) for row in outs)
    assert rect_hits == cnf_hits
    for x in product((-1, 1), repeat=rect.n):
        assert _eval_cnf_clauses(clauses, x) == rect.evaluate(x)


def test_degenerate_probability_coordinates():
    # a never-accepting coordinate collapses the rectangle to zero;
    # an always-accepting one is ignorable
    rng = random.Random(58)
    rect = CombRect(2, 2, (0, rng.getrandbits(4)))
    assert rect.exact_expectation() == 0
    rect_one = CombRect(2, 2, (0b1111, 0b0101))
    assert rect_one.exact_expectation() == CombRect(1, 2, (0b0101,)).exact_expectation()


def test_seed_split_and_errors():
    # the inner stage's 6 seed bits are the lowest, the direct stage's 8
    # above them; the golden seeds do not pin that order (0000 and ff3f
    # read the same either way, and 1234 happens to give one output)
    params = desk_cr_preset()
    assert (params.seed_widths, params.stage_shapes) == ((6, 8), ((64, 8), (1, 6)))
    rng = random.Random(60)
    for seed in [rng.getrandbits(14) for _ in range(20)]:
        matrix = pack_matrix(generate_biased(params.stage_specs[0], seed & 63).values, 64, 8, 8)
        direct = generate_biased(params.stage_specs[1], seed >> 6).values
        rows = [pack_block(direct[6 * i:6 * i + 6]) for i in range(8)]
        assert _packed_output(params, seed) == [int(matrix[row, i])
                                                for i, row in enumerate(rows)]
    with pytest.raises(ValueError):
        sample_cr(params, 1 << params.seed_bits)


def test_lookup_path_matches_materialized_entries():
    # the sampling path reads entries lazily; they must equal the fully
    # materialized matrix at the looked-up coordinates
    params = desk_cr_preset()
    rng = random.Random(59)
    for _ in range(30):
        seed = rng.randrange(1 << params.seed_bits)
        levels = _materialized_levels(params, seed, _stage_matrices(params, seed))
        assert levels[-1] == _packed_output(params, seed)


def test_stage_shapes_give_every_stage_length():
    # inner stage j: 2^{v_{j+1}} rows of width-v_j entries; the direct
    # stage: one row of width-v_{t-1} entries, v_0 for a one-width schedule
    for w in (3, 5, 8, 16, 64):
        sched = width_schedule(w)
        want = [(1 << sched[j + 1], sched[j]) for j in range(len(sched) - 2)]
        want.append((1, sched[-2] if len(sched) >= 2 else sched[0]))
        for params in (desk_cr_preset(3, w), derive_cr_params(3, w, Fraction(1, 8))):
            assert list(params.stage_shapes) == want
            assert [spec.n for spec in params.stage_specs] == \
                [rows * params.m * width for rows, width in params.stage_shapes]
        with pytest.raises(ValueError, match=f"needs {len(want)} stage degrees"):
            explicit_cr_params(3, w, Fraction(1, 8), degrees=(3,) * (len(want) + 1))
