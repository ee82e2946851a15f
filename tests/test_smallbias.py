import random
from fractions import Fraction

import numpy as np
import pytest

from derand.smallbias import (BiasedSpaceSpec, GF2k, PoweringSeed,
                              SubsetSamplerSpec, ceil_log2_fraction, exact_bias,
                              exact_joint_deviation, generate_biased,
                              irreducible_poly, output_mask_histogram,
                              outputs_all_seeds, powering_signs, sample_subset,
                              subset_members, subsets_all_seeds)


def test_irreducible_polys_match_reference_table():
    # classic smallest irreducibles (constant term 1)
    known = {2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101,
             6: 0b1000011, 7: 0b10000011, 8: 0b100011011}
    for k, poly in known.items():
        assert irreducible_poly(k) == poly


@pytest.mark.parametrize("k", range(1, 9))
def test_field_axioms_exhaustive(k):
    gf = GF2k(k)
    els = range(1 << k) if k <= 6 else range(0, 1 << k, max(1, (1 << k) // 64))
    for a in els:
        for b in els:
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.mul(a, 1) == a
    if k <= 5:
        for a in els:
            for b in els:
                for c in els:
                    assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
    for a in range(1, 1 << k):
        assert gf.mul(a, gf.inv(a)) == 1


def test_ceil_log2_fraction():
    assert ceil_log2_fraction(Fraction(1)) == 0
    assert ceil_log2_fraction(Fraction(1024)) == 10
    assert ceil_log2_fraction(Fraction(1025)) == 11
    assert ceil_log2_fraction(Fraction(1, 3)) == -1
    assert ceil_log2_fraction(Fraction(5, 4)) == 1


def test_default_degree_gives_bias_bound():
    for n, eps in [(5, Fraction(1, 2)), (64, Fraction(1, 16)), (20, Fraction(1, 100))]:
        spec = BiasedSpaceSpec.for_bias(n, eps)
        assert spec.bias_bound <= eps
        assert spec.seed_bits == 2 * spec.field_degree


def test_generate_matches_vectorized_and_is_pure():
    spec = BiasedSpaceSpec.with_degree(7, 4)
    mat = outputs_all_seeds(spec)
    for seed in range(1 << spec.seed_bits):
        out = generate_biased(spec, seed)
        assert tuple(mat[seed]) == out.values
        assert generate_biased(spec, seed).values == out.values  # purity


def test_all_zero_seed_gives_all_plus_one():
    spec = BiasedSpaceSpec.with_degree(9, 5)
    assert generate_biased(spec, 0).values == (1,) * 9


def test_seed_length_validation():
    spec = BiasedSpaceSpec.with_degree(4, 3)
    with pytest.raises(ValueError):
        generate_biased(spec, 1 << spec.seed_bits)


def test_exact_bias_examples():
    # n=5, k=3: the measured maximum stays below (n-1)/2^k = 1/2
    bias, witness = exact_bias(BiasedSpaceSpec.with_degree(5, 3))
    assert bias <= Fraction(1, 2)
    assert witness
    # n=1: the single character is the first inner product
    bias1, _ = exact_bias(BiasedSpaceSpec.with_degree(1, 3))
    assert bias1 <= Fraction(1, 8)
    # degenerate uniform space is exactly unbiased
    bias_u, _ = exact_bias(BiasedSpaceSpec.uniform_space(6))
    assert bias_u == 0


def test_exact_bias_refuses_oversize():
    with pytest.raises(ValueError):
        exact_bias(BiasedSpaceSpec.with_degree(25, 3))
    with pytest.raises(ValueError):
        exact_bias(BiasedSpaceSpec.with_degree(5, 13))


def test_bias_bound_sweep_small():
    rng = random.Random(3)
    for _ in range(10):
        n, k = rng.randint(1, 10), rng.randint(2, 7)
        spec = BiasedSpaceSpec.with_degree(n, k)
        bias, _ = exact_bias(spec)
        assert bias <= spec.bias_bound


def test_subset_sampler_membership_rule():
    # b=5: a block joins only when all five signs are -1
    spec = SubsetSamplerSpec.with_degree(4, 5, 4)
    seed = 7
    signs = generate_biased(spec.base, seed)
    expect = {i for i in range(4)
              if all(signs[5 * i + q] == -1 for q in range(5))}
    assert sample_subset(spec, seed) == expect


def test_uniform_marginals_exact():
    spec = SubsetSamplerSpec.uniform(4, 1)
    masks = subsets_all_seeds(spec)
    total = len(masks)
    for i in range(4):
        assert Fraction(int(((masks >> i) & 1).sum()), total) == Fraction(1, 2)
    assert exact_joint_deviation(spec, 4) == 0


def test_biased_sampler_joint_deviation_small():
    spec = SubsetSamplerSpec.with_degree(3, 2, 4)
    dev = exact_joint_deviation(spec, 3)
    assert dev <= Fraction(1, 16)  # configured slack for this desk spec
    assert exact_joint_deviation(spec, 1) == 0


def test_from_alpha_validation():
    SubsetSamplerSpec.from_alpha(4, Fraction(1, 32), Fraction(1, 16))
    with pytest.raises(ValueError):
        SubsetSamplerSpec.from_alpha(4, Fraction(1, 3), Fraction(1, 16))


def test_sampler_marginals_all_uniform_strings():
    # counting over every uniform underlying string: exactly 2^-b per index
    spec = SubsetSamplerSpec.uniform(3, 2)
    masks = subsets_all_seeds(spec)
    for i in range(3):
        assert int(((masks >> i) & 1).sum()) * 4 == len(masks)


def test_enumerator_matches_histogram_total():
    spec = BiasedSpaceSpec.with_degree(6, 4)
    hist = output_mask_histogram(spec, 6)
    assert int(hist.sum()) == 1 << spec.seed_bits
    # spot check against direct enumeration
    mat = outputs_all_seeds(spec)
    masks = ((mat == -1).astype(np.int64) << np.arange(6)).sum(axis=1)
    ref = np.bincount(masks, minlength=64)
    assert (hist == ref).all()


def _oracle_signs(k, seed, start, count):
    """The powering construction through the bit-serial GF2k.mul loop."""
    gf = GF2k(k)
    r, s = seed & ((1 << k) - 1), seed >> k
    power = gf.pow(s, start)
    out = []
    for _ in range(count):
        out.append(-1 if bin(r & power).count("1") & 1 else 1)
        power = gf.mul(power, s)
    return out


KERNEL_DEGREES = [1, 2, 3, 7, 8, 9, 31, 34, 37, 63]


@pytest.mark.parametrize("k", KERNEL_DEGREES)
def test_powering_kernel_matches_mul_loop(k):
    spec = BiasedSpaceSpec.with_degree(70, k)
    rng = random.Random(k)
    seeds = [rng.getrandbits(2 * k) for _ in range(12)]
    seeds += [0, (1 << (2 * k)) - 1, 1 << k, ((1 << k) - 1) << k]  # s = 0 and s = 1 among them
    for seed in seeds:
        full = _oracle_signs(k, seed, 0, spec.n)
        assert list(generate_biased(spec, seed).values) == full
        expansion = PoweringSeed(spec, seed)
        for start in (0, 1, 2, rng.randrange(3, 69), 69):
            count = rng.randint(0, spec.n - start)
            assert expansion.signs(start, count) == _oracle_signs(k, seed, start, count)
    batch = powering_signs(spec, seeds, positions=41)
    assert batch.dtype == np.int8 and batch.shape == (len(seeds), 41)
    assert [list(row) for row in batch] == [_oracle_signs(k, s, 0, 41) for s in seeds]


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9])
def test_all_seeds_paths_match_mul_loop(k):
    spec = BiasedSpaceSpec.with_degree(12, k)
    mat = outputs_all_seeds(spec)
    rng = random.Random(100 + k)
    rows = range(1 << spec.seed_bits) if k <= 3 else rng.sample(range(1 << spec.seed_bits), 200)
    for seed in rows:
        assert list(mat[seed]) == _oracle_signs(k, seed, 0, spec.n)
    for width in (1, 7, 12):
        packed = ((mat[:, :width] == -1).astype(np.int64) << np.arange(width)).sum(axis=1)
        assert (output_mask_histogram(spec, width) ==
                np.bincount(packed, minlength=1 << width)).all()


def test_histogram_masks_in_chunks(monkeypatch):
    # chunks of one s value at a time give the same counts as one chunk
    from derand import smallbias
    spec = BiasedSpaceSpec.with_degree(10, 6)
    whole = output_mask_histogram(spec, 10)
    monkeypatch.setattr(smallbias, "HISTOGRAM_CHUNK", 1)
    assert (output_mask_histogram(spec, 10) == whole).all()


def test_powering_seed_refuses_bad_positions_and_seeds():
    spec = BiasedSpaceSpec.with_degree(10, 4)
    with pytest.raises(ValueError):
        PoweringSeed(spec, 1 << spec.seed_bits)
    with pytest.raises(ValueError):
        PoweringSeed(spec, 3).signs(5, 6)
    with pytest.raises(ValueError):
        powering_signs(spec, [1, -1])
    with pytest.raises(ValueError):
        powering_signs(spec, [1], positions=11)
    assert powering_signs(spec, []).shape == (0, 10)


def test_uniform_space_batch_and_runs():
    spec = BiasedSpaceSpec.uniform_space(70)
    rng = random.Random(9)
    seeds = [rng.getrandbits(70) for _ in range(20)]
    want = [[-1 if (seed >> i) & 1 else 1 for i in range(70)] for seed in seeds]
    assert [list(row) for row in powering_signs(spec, seeds)] == want
    assert [PoweringSeed(spec, seed).signs(3, 60) for seed in seeds] == [w[3:63] for w in want]


def test_mul_vec_matches_mul_above_31_bits():
    rng = random.Random(31)
    for k in (31, 32, 34, 37, 63, 64):
        gf = GF2k(k)
        a = [rng.getrandbits(k) for _ in range(50)]
        b = [rng.getrandbits(k) for _ in range(50)]
        got = gf.mul_vec(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
        assert [int(v) for v in got] == [gf.mul(x, y) for x, y in zip(a, b)]


def test_subset_members_match_sample_subset():
    spec = SubsetSamplerSpec.with_degree(9, 3, 5)
    rng = random.Random(12)
    seeds = [rng.getrandbits(spec.seed_bits) for _ in range(200)]
    rows = subset_members(spec, seeds)
    assert [frozenset(np.flatnonzero(row).tolist()) for row in rows] == \
        [sample_subset(spec, seed) for seed in seeds]


def test_field_axioms_exhaustive_k8_vectorized():
    # commutativity/associativity over every triple, via the vectorized
    # kernel (which the scalar tests above pin to the canonical mul)
    gf = GF2k(8)
    els = np.arange(256, dtype=np.uint64)
    prod = gf.mul_vec(els[:, None], els[None, :])
    assert (prod == prod.T).all()
    for a in range(256):
        lhs = gf.mul_vec(prod[a, :][:, None], els[None, :])   # (a*b)*c
        rhs = gf.mul_vec(np.uint64(a), prod)                  # a*(b*c)
        assert (lhs == rhs).all()


def test_subsets_all_seeds_ordering_matches_scalar_path():
    spec = SubsetSamplerSpec.with_degree(5, 2, 4)
    masks = subsets_all_seeds(spec)
    for seed in range(len(masks)):
        want = sum(1 << i for i in sample_subset(spec, seed))
        assert int(masks[seed]) == want
