import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from derand.smallbias import (BiasedSpaceSpec, GF2k, PoweringSeed,
                              SubsetSamplerSpec, _power_table, ceil_log2_fraction, exact_bias,
                              generate_biased, irreducible_poly, output_mask_histogram,
                              outputs_all_seeds, parity_bits_all_seeds,
                              powering_signs, root_counts, sample_subset,
                              subset_members, subsets_all_seeds)
from derand.signs import walsh_hadamard


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
    for a in range(1, 1 << k):  # a^(2^k - 2) is the inverse of a
        assert gf.mul(a, gf.pow(a, gf.order - 2)) == 1


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


def _marginal_by_root_counts(spec, i):
    """Pr[index i joins] through characters: position p reads <r, s^p>, so
    E[chi_S] = Pr_s[sum_{p in S} s^p = 0] and Pr[block all -1] =
    2^-b * sum_S (-1)^|S| E[chi_S] over the subsets S of the block."""
    gf = GF2k(spec.base.field_degree)
    b = spec.bits_per_index
    total = Fraction(0)
    for size in range(b + 1):
        for block in combinations(range(i * b, (i + 1) * b), size):
            roots = 0
            for s in range(gf.order):
                acc = 0
                for p in block:
                    acc ^= gf.pow(s, p)
                roots += acc == 0
            total += (-1) ** size * Fraction(roots, gf.order)
    return total * spec.alpha


def test_uniform_marginals_exact():
    # one position read whole is the uniform bit r_0: marginal exactly 1/2
    spec = SubsetSamplerSpec.with_degree(1, 1, 4)
    masks = subsets_all_seeds(spec)
    assert Fraction(int(masks.sum()), len(masks)) == Fraction(1, 2)
    # longer samplers: each marginal is the uniform 2^-b plus the exact
    # character-sum correction counted from roots in GF(2^k)
    for n, b, k in ((4, 1, 3), (3, 2, 4), (2, 3, 5)):
        spec = SubsetSamplerSpec.with_degree(n, b, k)
        masks = subsets_all_seeds(spec)
        for i in range(n):
            assert Fraction(int(((masks >> i) & 1).sum()), len(masks)) == \
                _marginal_by_root_counts(spec, i)


def test_sampler_marginals_all_uniform_strings():
    # counted over every uniform underlying string, each index joins with
    # chance exactly 2^-b; counted over the seeds, a marginal stays within
    # (1 - 2^-b) * bias of that, one bias term per nonempty block character
    for n, b, k in ((3, 2, 4), (4, 1, 3), (5, 2, 4), (3, 3, 6)):
        spec = SubsetSamplerSpec.with_degree(n, b, k)
        bias, _ = exact_bias(spec.base)
        masks = subsets_all_seeds(spec)
        for i in range(n):
            marg = Fraction(int(((masks >> i) & 1).sum()), len(masks))
            assert abs(marg - spec.alpha) <= (1 - spec.alpha) * bias


def _joint_deviation_oracle(spec, max_indices):
    """Max |Pr[joint pattern] - prod Pr[marginal]| over index tuples of
    2..max_indices indices, counting the patterns of sample_subset over
    every seed, one tuple of indices at a time."""
    subsets = [sample_subset(spec, seed) for seed in range(1 << spec.seed_bits)]
    total = len(subsets)
    marg = [Fraction(sum(i in s for s in subsets), total) for i in range(spec.n)]
    worst = Fraction(0)
    for arity in range(2, max_indices + 1):
        for tup in combinations(range(spec.n), arity):
            counts = Counter(tuple(i in s for i in tup) for s in subsets)
            for pattern in product((False, True), repeat=arity):
                prod = Fraction(1)
                for i, inside in zip(tup, pattern):
                    prod *= marg[i] if inside else 1 - marg[i]
                worst = max(worst, abs(Fraction(counts[pattern], total) - prod))
    return worst


def test_biased_sampler_joint_deviation_small():
    spec = SubsetSamplerSpec.with_degree(3, 2, 4)
    assert 0 < _joint_deviation_oracle(spec, 3) <= Fraction(1, 16)  # slack for this desk spec


def test_enumerator_matches_histogram_total():
    spec = BiasedSpaceSpec.with_degree(6, 4)
    hist = output_mask_histogram(spec)
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
    batch = powering_signs(BiasedSpaceSpec.with_degree(41, k), seeds)
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
    for width in (1, 7, 12):  # output i depends on (k, seed, i) only
        packed = ((mat[:, :width] == -1).astype(np.int64) << np.arange(width)).sum(axis=1)
        assert (output_mask_histogram(BiasedSpaceSpec.with_degree(width, k)) ==
                np.bincount(packed, minlength=1 << width)).all()


def test_histogram_masks_in_chunks(monkeypatch):
    # chunks of one s value at a time give the same counts as one chunk
    from derand import smallbias
    spec = BiasedSpaceSpec.with_degree(10, 6)
    whole = output_mask_histogram(spec)
    monkeypatch.setattr(smallbias, "HISTOGRAM_CHUNK", 1)
    assert (output_mask_histogram(spec) == whole).all()


# every n <= 14 at every k <= 9 (n above and below k, k = 1, composite k
# whose subfield lanes have low rank), then the extremes n = 20, 2k = 24
ROOT_COUNT_GRID = ([(n, k) for k in range(1, 10) for n in range(1, 15)]
                   + [(20, 12), (20, 8), (8, 12), (16, 12), (20, 1), (1, 12),
                      (20, 4), (20, 6)])  # columns 5.., 7.. only shift the minimal polynomial


@pytest.mark.parametrize("n,k", ROOT_COUNT_GRID)
def test_root_counts_match_histogram_transform(n, k):
    # the oracle: histogram every seed's output, transform, take the first
    # argmax of |entry| over the nonempty sets
    spec = BiasedSpaceSpec.with_degree(n, k)
    transform = walsh_hadamard(output_mask_histogram(spec))
    counts = root_counts(spec)
    assert counts.dtype == np.int64
    assert ((counts << k) == transform).all()
    mags = np.abs(transform)
    mags[0] = -1
    idx = int(np.argmax(mags))
    assert exact_bias(spec) == (Fraction(int(mags[idx]), 1 << spec.seed_bits),
                                frozenset(i for i in range(n) if idx >> i & 1))


@pytest.mark.parametrize("k", range(1, 10))
def test_root_counts_of_known_polynomials(k):
    # mask a counts the roots of sum_{i in a} x^i in GF(2^k): x has the
    # root 0 and x + 1 the root 1, x^2 + x both; x^2 + x + 1 has its two
    # roots in GF(4) and x^3 + x + 1 its three in GF(8), inside GF(2^k)
    # exactly when 2 | k and 3 | k
    counts = root_counts(BiasedSpaceSpec.with_degree(6, k))
    assert counts[0] == 1 << k and counts[0b1] == 0
    assert counts[0b10] == counts[0b11] == 1 and counts[0b110] == 2
    assert counts[0b111] == (2 if k % 2 == 0 else 0)
    assert counts[0b1011] == (3 if k % 3 == 0 else 0)


def test_root_counts_in_chunks(monkeypatch):
    # chunks of one lane's kernel at a time give the same counts as one chunk
    from derand import smallbias
    for n, k in ((12, 6), (20, 1)):
        spec = BiasedSpaceSpec.with_degree(n, k)
        whole = root_counts(spec)
        monkeypatch.setattr(smallbias, "HISTOGRAM_CHUNK", 1)
        assert (root_counts(spec) == whole).all()
        monkeypatch.undo()


def test_powering_seed_refuses_bad_positions_and_seeds():
    spec = BiasedSpaceSpec.with_degree(10, 4)
    with pytest.raises(ValueError):
        PoweringSeed(spec, 1 << spec.seed_bits)
    with pytest.raises(ValueError):
        PoweringSeed(spec, 3).signs(5, 6)
    with pytest.raises(ValueError, match="seeds must fit in 8 bits"):
        powering_signs(spec, [1, -1])
    assert powering_signs(spec, []).shape == (0, 10)


def test_mul_vec_matches_mul_above_31_bits():
    rng = random.Random(31)
    for k in (31, 32, 34, 37, 63, 64):
        gf = GF2k(k)
        a = [rng.getrandbits(k) for _ in range(50)]
        b = [rng.getrandbits(k) for _ in range(50)]
        got = gf.mul_vec(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
        assert [int(v) for v in got] == [gf.mul(x, y) for x, y in zip(a, b)]


def test_power_table_matches_mul_vec():
    # row i is mul_vec(row i - 1, s) and the last row the scalar pow;
    # degrees 1 and 2 have the shortest reduction step, and the counts
    # give no rows, one row, a short last doubling and 2^j + 1 rows
    rng = random.Random(33)
    for k, count in ((1, 5), (2, 9), (5, 40), (12, 64), (34, 70), (63, 20), (64, 20),
                     (7, 0), (7, 1), (3, 3), (9, 65), (37, 320)):
        gf = GF2k(k)
        s = [0, 1, gf.order - 1] + [rng.getrandbits(k) for _ in range(60)]
        s_vec = np.array(s, dtype=np.uint64)
        table = _power_table(gf, s_vec, count)
        assert table.dtype == np.uint64 and table.shape == (count, len(s))
        if count:
            assert (table[0] == 1).all()
            assert [int(v) for v in table[-1]] == [gf.pow(x, count - 1) for x in s]
        for i in range(1, count):
            assert (table[i] == gf.mul_vec(table[i - 1], s_vec)).all()


def test_parity_bits_match_powering_seed():
    # every seed up to 12 seed bits and 300 random ones above; the
    # shorter specs of the same degree give prefixes of the long reader
    rng = random.Random(35)
    for k in range(1, 13):
        full = BiasedSpaceSpec.with_degree(2 if k > 10 else 9, k)
        total = 1 << full.seed_bits
        seeds = range(total) if total <= 1 << 12 else \
            [0, 1, total - 1] + rng.sample(range(total), 300)
        for m in sorted({full.n, full.n // 2, 1}):
            bits = parity_bits_all_seeds(BiasedSpaceSpec.with_degree(m, k))
            assert bits.dtype == bool and bits.shape == (m, total)
            got = bits[:, list(seeds)].T.tolist()
            assert got == [[v == -1 for v in PoweringSeed(full, seed).signs(0, m)]
                           for seed in seeds]
    with pytest.raises(ValueError, match="too large to enumerate"):
        parity_bits_all_seeds(BiasedSpaceSpec.with_degree(4, 13))


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


STRIDED_DEGREES = list(range(1, 13)) + [31, 34, 37, 63, 64]


@pytest.mark.parametrize("k", STRIDED_DEGREES)
def test_strided_reader_matches_pow_and_powering_signs(k):
    # blocks of every stride 1..8 against the batch rows and, at each
    # block start, against the bit-serial pow; 70 positions carry block
    # starts past 2^k - 1 in the small fields, where the jump is reduced
    spec = BiasedSpaceSpec.with_degree(70, k)
    rng = random.Random(200 + k)
    seeds = [rng.getrandbits(k), 1 << k, ((1 << k) - 1) << k]  # s = 0, s = 1, s = -1
    seeds += [rng.getrandbits(2 * k) for _ in range(3)]
    rows = [list(row) for row in powering_signs(spec, seeds)]
    for seed, full in zip(seeds, rows):
        for stride in range(1, 9):
            reader = PoweringSeed(spec, seed, stride)
            blocks = spec.n // stride
            assert reader.blocks == blocks
            assert reader.signs() == full[:blocks * stride]
            for start in (0, 1, rng.randrange(blocks)):
                count = rng.randint(0, min(blocks - start, 3))
                want = _oracle_signs(k, seed, start * stride, count * stride)
                assert reader.signs(start, count) == want == \
                    full[start * stride:(start + count) * stride]
            assert reader.minus_blocks() == \
                [j for j in range(blocks) if set(full[j * stride:(j + 1) * stride]) == {-1}]


def test_strided_reader_refuses_bad_blocks():
    spec = BiasedSpaceSpec.with_degree(20, 5)
    reader = PoweringSeed(spec, 3, stride=3)  # six whole blocks, positions 18, 19 unread
    assert len(reader.signs()) == 18
    for start, count in ((5, 2), (6, 1), (-1, 1), (0, 7), (2, -1)):
        with pytest.raises(ValueError, match="outside"):
            reader.signs(start, count)
    assert reader.signs(6, 0) == []
    with pytest.raises(ValueError):
        PoweringSeed(spec, 3, stride=0)


@pytest.mark.parametrize("k", [2, 3, 34])
def test_sample_subset_matches_subset_members(k):
    rng = random.Random(300 + k)
    for n, b in ((9, 3), (16, 5), (64, 1)):
        spec = SubsetSamplerSpec.with_degree(n, b, k)
        seeds = [rng.getrandbits(spec.seed_bits) for _ in range(150)]
        seeds += [0, 1 | 1 << k, (1 << spec.seed_bits) - 1]  # s = 1 with r odd takes every index
        rows = subset_members(spec, seeds)
        got = [sample_subset(spec, seed) for seed in seeds]
        assert got == [frozenset(np.flatnonzero(row).tolist()) for row in rows]
        assert got[-2] == frozenset(range(n))


def test_subset_masks_refuse_more_than_64_indices():
    from derand.harness import round_tables
    from derand.rcnf_prg import explicit_params
    spec = SubsetSamplerSpec.with_degree(64, 1, 4)  # index 63 is the sign bit
    masks = subsets_all_seeds(spec).view(np.uint64)
    for seed in range(1 << spec.seed_bits):
        assert int(masks[seed]) == sum(1 << i for i in sample_subset(spec, seed))
    for n in (65, 70):
        with pytest.raises(ValueError, match="at most 64 indices"):
            subsets_all_seeds(SubsetSamplerSpec.with_degree(n, 1, 4))
        with pytest.raises(ValueError, match="at most 64 indices"):
            round_tables(explicit_params(n, Fraction(1, 4), k_subset=4, k_z=3, k_y=3,
                                         bits_per_index=1))
