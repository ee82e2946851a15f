import json
import os
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from derand.cr_prg import (CrGenParams, LookupMatrix, bias_function_cr,
                           derive_cr_params, desk_cr_preset, eval_cnf_clauses,
                           explicit_cr_params, materialize_matrix, pack_matrix,
                           rect_as_cnf_clauses, restrict_rect, sample_cr,
                           split_cr_seed, stage_matrices, width_schedule)
from derand.harness import random_rect
from derand.models import CombRect
from derand.signs import pack_block
from derand.smallbias import (BiasedSpaceSpec, PoweringSeed, generate_biased,
                              outputs_all_seeds)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def load_golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="ascii") as fh:
        return fh.read()


def test_width_schedule_examples():
    assert width_schedule(16, 4) == (16, 12, 9, 6, 4)
    assert width_schedule(3, 4) == (3,)
    assert width_schedule(8, 4) == (8, 6, 4)
    sched = width_schedule(16, 4)
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


def test_golden_desk_samples():
    params = desk_cr_preset()
    from derand.signs import parse_seed_hex
    got = []
    for seed_hex in ("0000", "1234", "ff3f"):
        seed = parse_seed_hex(seed_hex, params.seed_bits)
        out = sample_cr(params, seed)
        got.append(seed_hex + " " + "".join("+" if v == 1 else "-" for v in out.values))
    assert "\n".join(got) + "\n" == load_golden("cr_desk_samples.txt")


def test_constant_matrix_forwards_the_block():
    rng = random.Random(51)
    rect = random_rect(rng, 3, 4)
    const = LookupMatrix(rows=8, cols=3, entry_width=4,
                         packed=np.full((8, 3), 0b1010, dtype=np.int64))
    restricted = restrict_rect(rect, const)
    for i in range(3):
        want = rect.coordinate_accepts(i, 0b1010)
        assert restricted.tables[i] == (0xFF if want else 0)


def test_bias_function_equals_enumeration_small_v():
    rng = random.Random(52)
    for _ in range(10):
        rect = random_rect(rng, 3, 4)
        spec = BiasedSpaceSpec.with_degree((1 << 3) * 3 * 4, 5)
        matrix = materialize_matrix(spec, rng.randrange(1 << spec.seed_bits), 8, 3, 4)
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
    m = LookupMatrix(rows=4, cols=1, entry_width=2,
                     packed=np.arange(4, dtype=np.int64).reshape(4, 1))
    assert bias_function_cr(rect, m) == 1
    rect_half = CombRect(1, 2, (0b0011,))
    assert bias_function_cr(rect_half, m) == Fraction(1, 2)


def test_composition_identity_every_seed_on_one_rectangle():
    params = desk_cr_preset()
    rng = random.Random(53)
    rect = random_rect(rng, params.m, params.w)
    inner_spec = params.stage_specs[0]
    direct_spec = params.stage_specs[1]
    inner_out = outputs_all_seeds(inner_spec)
    direct_out = outputs_all_seeds(direct_spec)
    rows, entry_w = params.stage_geometry(0)
    dw = params.direct_width
    weights = 1 << np.arange(dw - 1, -1, -1, dtype=np.int64)
    blocks = np.stack([
        ((direct_out[:, i * dw:(i + 1) * dw] == 1).astype(np.int64) * weights).sum(axis=1)
        for i in range(params.m)], axis=1)
    for inner_seed in range(1 << inner_spec.seed_bits):
        matrix = pack_matrix(inner_out[inner_seed], rows, params.m, entry_w)
        restricted = restrict_rect(rect, matrix)
        # left side: evaluate the original rectangle on the looked-up entries
        left = np.ones(direct_out.shape[0], dtype=bool)
        right = np.ones(direct_out.shape[0], dtype=bool)
        for i in range(params.m):
            entries = matrix.packed[blocks[:, i], i]
            table = np.array([(rect.tables[i] >> a) & 1
                              for a in range(1 << rect.w)], dtype=bool)
            left &= table[entries]
            rtab = np.array([(restricted.tables[i] >> a) & 1
                             for a in range(1 << restricted.w)], dtype=bool)
            right &= rtab[blocks[:, i]]
        assert (left == right).all()


def test_composition_identity_matches_sample_cr():
    params = desk_cr_preset()
    rng = random.Random(54)
    for _ in range(60):
        seed = rng.randrange(1 << params.seed_bits)
        rect = random_rect(rng, params.m, params.w)
        out = sample_cr(params, seed)
        mats = stage_matrices(params, seed)
        restricted = restrict_rect(rect, mats[0])
        parts = split_cr_seed(params, seed)
        direct = generate_biased(params.stage_specs[-1], parts[-1])
        assert rect.evaluate(out.values) == restricted.evaluate(direct.values)


def test_deeper_chain_identity():
    # the full chain: every restricted level agrees with the original
    # rectangle on the corresponding intermediate blocks
    from derand.cr_prg import sample_cr_levels, unpack_blocks
    params = explicit_cr_params(2, 16, Fraction(1, 16), degrees=(3, 3, 3, 4))
    rng = random.Random(55)
    assert params.schedule == (16, 12, 9, 6, 4)
    for _ in range(25):
        seed = rng.randrange(1 << params.seed_bits)
        rect = random_rect(rng, 2, 16)
        mats = stage_matrices(params, seed)
        chain = [rect]
        for m in mats:
            chain.append(restrict_rect(chain[-1], m))
        levels = sample_cr_levels(params, seed)  # innermost first
        values = set()
        for depth, blocks in enumerate(levels):
            level_rect = chain[len(levels) - 1 - depth]
            signs = unpack_blocks(blocks, level_rect.w)
            values.add(level_rect.evaluate(signs))
        assert len(values) == 1


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


def test_final_stage_cnf_fallback_cross_check():
    # a width-v rectangle equals its clause expansion; the measured
    # advantage under the final-stage space agrees between the two forms
    rng = random.Random(57)
    rect = random_rect(rng, 2, 3)
    spec = BiasedSpaceSpec.with_degree(rect.n, 4)
    outs = outputs_all_seeds(spec)
    clauses = rect_as_cnf_clauses(rect)
    rect_hits = int(rect.eval_batch(outs).sum())
    cnf_hits = sum(eval_cnf_clauses(clauses, tuple(row)) for row in outs)
    assert rect_hits == cnf_hits
    for x in product((-1, 1), repeat=rect.n):
        assert eval_cnf_clauses(clauses, x) == rect.evaluate(x)


def test_degenerate_probability_coordinates():
    # a never-accepting coordinate collapses the rectangle to zero;
    # an always-accepting one is ignorable
    rng = random.Random(58)
    rect = CombRect(2, 2, (0, rng.getrandbits(4)))
    assert rect.exact_expectation() == 0
    rect_one = CombRect(2, 2, (0b1111, 0b0101))
    assert rect_one.exact_expectation() == CombRect(1, 2, (0b0101,)).exact_expectation()


def test_seed_split_and_errors():
    params = desk_cr_preset()
    parts = split_cr_seed(params, (1 << params.seed_bits) - 1)
    assert all(p < (1 << s.seed_bits) for p, s in zip(parts, params.stage_specs))
    with pytest.raises(ValueError):
        sample_cr(params, 1 << params.seed_bits)


def test_lookup_path_matches_materialized_entries():
    # the sampling path reads entries lazily; they must equal the fully
    # materialized matrix at the looked-up coordinates
    from derand.cr_prg import sample_cr_levels
    params = desk_cr_preset()
    rng = random.Random(59)
    for _ in range(30):
        seed = rng.randrange(1 << params.seed_bits)
        levels = sample_cr_levels(params, seed)
        mats = stage_matrices(params, seed)
        inner_blocks, out_blocks = levels[0], levels[1]
        for i in range(params.m):
            assert out_blocks[i] == int(mats[0].packed[inner_blocks[i], i])
