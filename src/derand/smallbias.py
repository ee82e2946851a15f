"""Small-bias sign distributions and almost-independent subset samplers.

The biased space is the classic powering construction over GF(2^k): a
seed is a pair (r, s) of field elements and output coordinate i is the
inner product of the bit representations of r and s^i, for i = 0..n-1,
mapped 0 -> +1 and 1 -> -1.  For a nonempty coordinate set S the
character expectation over the full seed space equals the fraction of s
that are roots of sum_{i in S} s^i, a nonzero polynomial with at most
n-1 roots, so the measured bias is at most (n-1)/2^k.

Subset samplers read b-sign blocks out of one shared biased string over
n*b positions; index i is included exactly when all b signs of block i
are -1, so a uniform underlying string gives inclusion probability
2^-b per index.

Field elements are integers whose binary digits are polynomial
coefficients over GF(2), reduced modulo the lexicographically smallest
irreducible polynomial of the given degree (computed once and cached,
so outputs are bit-exact across runs and platforms).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .signs import SignVector, walsh_hadamard

EXHAUSTIVE_N_LIMIT = 20
EXHAUSTIVE_SEED_BITS_LIMIT = 24


# ---------------------------------------------------------------------------
# GF(2^k) arithmetic
# ---------------------------------------------------------------------------

def _clmul(a: int, b: int) -> int:
    """Carryless multiplication of binary polynomials."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _poly_mod(a: int, mod: int) -> int:
    md = mod.bit_length() - 1
    while a.bit_length() - 1 >= md:
        a ^= mod << (a.bit_length() - 1 - md)
    return a


def _prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(poly: int, k: int) -> bool:
    # Irreducible over GF(2) iff x^(2^k) == x mod poly and, for every
    # prime p | k, gcd(x^(2^(k/p)) - x, poly) = 1.
    def powx(e: int) -> int:
        v = _poly_mod(2, poly)
        for _ in range(e):
            v = _poly_mod(_clmul(v, v), poly)
        return v

    def gcd(a: int, b: int) -> int:
        while b:
            a, b = b, _poly_mod(a, b)
        return a

    if powx(k) != _poly_mod(2, poly):
        return False
    for p in _prime_factors(k):
        if gcd(powx(k // p) ^ _poly_mod(2, poly), poly) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def irreducible_poly(k: int) -> int:
    """Lexicographically smallest irreducible binary polynomial of degree k."""
    if not 1 <= k <= 64:
        raise ValueError("field degree must be between 1 and 64")
    for low in range(1, 1 << k, 2):  # constant term must be 1
        cand = (1 << k) | low
        if _is_irreducible(cand, k):
            return cand
    raise AssertionError("no irreducible polynomial found")


class GF2k:
    """Arithmetic in GF(2^k) with canonical integer representation."""

    def __init__(self, k: int):
        self.k = k
        self.modulus = irreducible_poly(k)
        self.order = 1 << k

    def mul(self, a: int, b: int) -> int:
        return _poly_mod(_clmul(a, b), self.modulus)

    def pow(self, a: int, e: int) -> int:
        acc, base = 1, a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.order - 2)

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized mul; degree <= 31 so intermediate products fit in uint64."""
        if self.k > 31:
            raise ValueError("vectorized field ops support degree <= 31")
        a2, b2 = np.broadcast_arrays(np.asarray(a, np.uint64), np.asarray(b, np.uint64))
        acc = np.zeros(a2.shape, dtype=np.uint64)
        one = np.uint64(1)
        for bit in range(self.k):
            mask = ((b2 >> np.uint64(bit)) & one).astype(bool)
            acc[mask] ^= a2[mask] << np.uint64(bit)
        for bit in range(2 * self.k - 2, self.k - 1, -1):
            mask = ((acc >> np.uint64(bit)) & one).astype(bool)
            acc[mask] ^= np.uint64(self.modulus << (bit - self.k))
        return acc


# ---------------------------------------------------------------------------
# Exact rational log helpers
# ---------------------------------------------------------------------------

def ceil_log2_fraction(x: Fraction) -> int:
    """Exact ceil(log2(x)) for a positive rational."""
    if x <= 0:
        raise ValueError("log of non-positive value")
    num, den = x.numerator, x.denominator

    def le_pow2(e: int) -> bool:  # x <= 2^e ?
        return num <= den << e if e >= 0 else num << (-e) <= den

    e = num.bit_length() - den.bit_length() + 1  # x < 2^e always
    while le_pow2(e - 1):
        e -= 1
    return e


# ---------------------------------------------------------------------------
# Biased space specification and generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiasedSpaceSpec:
    """Parameters of one powering-construction sign distribution.

    ``uniform=True`` marks the degenerate zero-bias space: the seed has
    n bits and maps to signs directly (bit 1 -> -1).
    """

    n: int
    epsilon: Fraction
    field_degree: int
    uniform: bool = False

    @classmethod
    def for_bias(cls, n: int, epsilon) -> "BiasedSpaceSpec":
        """Default construction: k = ceil(log2(n/eps)) + 1, so (n-1)/2^k <= eps."""
        eps = Fraction(epsilon)
        if not 0 < eps < 1:
            raise ValueError("target bias must be in (0,1)")
        if n < 1:
            raise ValueError("n must be positive")
        k = ceil_log2_fraction(Fraction(n) / eps) + 1
        return cls(n=n, epsilon=eps, field_degree=k)

    @classmethod
    def with_degree(cls, n: int, k: int) -> "BiasedSpaceSpec":
        """Explicit field degree; epsilon records the bound (n-1)/2^k as-is."""
        return cls(n=n, epsilon=Fraction(max(n - 1, 0), 1 << k), field_degree=k)

    @classmethod
    def uniform_space(cls, n: int) -> "BiasedSpaceSpec":
        return cls(n=n, epsilon=Fraction(0), field_degree=0, uniform=True)

    @property
    def seed_bits(self) -> int:
        return self.n if self.uniform else 2 * self.field_degree

    @property
    def bias_bound(self) -> Fraction:
        if self.uniform:
            return Fraction(0)
        return Fraction(max(self.n - 1, 0), 1 << self.field_degree)

    def to_json(self) -> dict:
        data = {"n": self.n, "epsilon": str(self.epsilon), "fieldDegree": self.field_degree}
        if self.uniform:
            data["uniform"] = True
        return data


def generate_biased(spec: BiasedSpaceSpec, seed: int) -> SignVector:
    """Deterministically expand a seed into n signs."""
    if seed < 0 or seed >> spec.seed_bits:
        raise ValueError(f"seed must fit in {spec.seed_bits} bits")
    if spec.uniform:
        return SignVector(tuple(-1 if (seed >> i) & 1 else 1 for i in range(spec.n)))
    k = spec.field_degree
    gf = GF2k(k)
    mask = (1 << k) - 1
    r = seed & mask
    s = (seed >> k) & mask
    out = []
    power = 1  # s^0
    for _ in range(spec.n):
        out.append(-1 if bin(r & power).count("1") & 1 else 1)
        power = gf.mul(power, s)
    return SignVector(tuple(out))


def outputs_all_seeds(spec: BiasedSpaceSpec, positions: int | None = None) -> np.ndarray:
    """Sign matrix (2^seed_bits x positions), row index = seed value, int8.

    Vectorized counterpart of generate_biased; agrees with it bit for
    bit.  Intended for moderate seed spaces (the generator presets);
    use output_mask_histogram for the large exhaustive sweeps.  Seed
    spaces above EXHAUSTIVE_SEED_BITS_LIMIT bits raise ValueError before
    anything is allocated.
    """
    m = spec.n if positions is None else positions
    if m > spec.n:
        raise ValueError("cannot request more positions than the spec length")
    if spec.seed_bits > EXHAUSTIVE_SEED_BITS_LIMIT:
        raise ValueError(
            f"seed space of {spec.seed_bits} bits is too large to enumerate "
            f"(limit {EXHAUSTIVE_SEED_BITS_LIMIT} bits)"
        )
    if spec.uniform:
        seeds = np.arange(1 << spec.seed_bits, dtype=np.uint64)
        bits = (seeds[:, None] >> np.arange(m, dtype=np.uint64)[None, :]) & np.uint64(1)
        return np.where(bits == 1, -1, 1).astype(np.int8)
    k = spec.field_degree
    gf = GF2k(k)
    order = 1 << k
    r = np.arange(order, dtype=np.uint64)
    s = np.arange(order, dtype=np.uint64)
    out = np.empty((order * order, m), dtype=np.int8)
    power = np.ones(order, dtype=np.uint64)  # s^i per s value
    for i in range(m):
        par = np.bitwise_count(r[None, :] & power[:, None]).astype(np.uint8) & 1
        # row (s, r) corresponds to seed r + (s << k)
        out[:, i] = np.where(par, -1, 1).reshape(-1)
        power = gf.mul_vec(power, s)
    return out


class BiasedSpaceEnumerator:
    """Fast per-seed output extraction for repeated sweeps of one spec.

    Precomputes the power sequence s^0..s^(positions-1) for every field
    element s, after which any seed's signs are one vectorized parity.
    Agrees with generate_biased bit for bit.
    """

    def __init__(self, spec: BiasedSpaceSpec, positions: int | None = None):
        self.spec = spec
        self.positions = spec.n if positions is None else positions
        if self.positions > spec.n:
            raise ValueError("cannot request more positions than the spec length")
        if not spec.uniform:
            gf = GF2k(spec.field_degree)
            order = 1 << spec.field_degree
            table = np.empty((order, self.positions), dtype=np.uint64)
            for s in range(order):
                p = 1
                for i in range(self.positions):
                    table[s, i] = p
                    p = gf.mul(p, s)
            self._powers = table

    def signs(self, seed: int) -> np.ndarray:
        if seed < 0 or seed >> self.spec.seed_bits:
            raise ValueError(f"seed must fit in {self.spec.seed_bits} bits")
        if self.spec.uniform:
            bits = (np.uint64(seed) >> np.arange(self.positions, dtype=np.uint64)) & np.uint64(1)
            return np.where(bits == 1, -1, 1).astype(np.int8)
        k = self.spec.field_degree
        r = np.uint64(seed & ((1 << k) - 1))
        s = seed >> k
        par = np.bitwise_count(self._powers[s] & r).astype(np.uint8) & 1
        return np.where(par, -1, 1).astype(np.int8)


def output_mask_histogram(spec: BiasedSpaceSpec, positions: int) -> np.ndarray:
    """Histogram over packed outputs for every seed, memory-bounded.

    Returns int64 counts of length 2^positions where the packed value
    has bit i set iff output sign i is -1.  Walks the seed space in
    s-slices so the full sign matrix is never materialized.
    """
    if spec.uniform:
        if positions != spec.n:
            raise ValueError("uniform histogram expects the full width")
        return np.ones(1 << spec.n, dtype=np.int64)
    k = spec.field_degree
    gf = GF2k(k)
    order = 1 << k
    counts = np.zeros(1 << positions, dtype=np.int64)
    r = np.arange(order, dtype=np.int64)
    rbits = [((r >> j) & 1).astype(bool) for j in range(k)]
    for s in range(order):
        powers = []
        p = 1
        for _ in range(positions):
            powers.append(p)
            p = gf.mul(p, s)
        # row_j: mask over output positions toggled by bit j of r
        masks = np.zeros(order, dtype=np.int64)
        for j in range(k):
            row = 0
            for i, pw in enumerate(powers):
                if (pw >> j) & 1:
                    row |= 1 << i
            if row:
                masks[rbits[j]] ^= row
        counts += np.bincount(masks, minlength=1 << positions)
    return counts


def exact_bias(spec: BiasedSpaceSpec) -> tuple:
    """Max character bias over all nonempty index sets, by full enumeration.

    Returns (max_bias, witness) with the bias an exact Fraction and the
    witness a frozenset of coordinates attaining it.  The enumeration
    histograms every seed's output and applies a Walsh-Hadamard
    transform, so it does not rely on the construction's root-counting
    algebra.
    """
    if spec.n > EXHAUSTIVE_N_LIMIT or spec.seed_bits > EXHAUSTIVE_SEED_BITS_LIMIT:
        raise ValueError(
            "instance too large for exhaustive bias measurement "
            f"(n <= {EXHAUSTIVE_N_LIMIT}, seed bits <= {EXHAUSTIVE_SEED_BITS_LIMIT}); "
            "use a statistical estimate instead"
        )
    mags = np.abs(walsh_hadamard(output_mask_histogram(spec, spec.n)))
    mags[0] = -1  # exclude the empty set
    idx = int(np.argmax(mags))
    witness = frozenset(i for i in range(spec.n) if (idx >> i) & 1)
    return Fraction(int(mags[idx]), 1 << spec.seed_bits), witness


# ---------------------------------------------------------------------------
# Almost-independent subset sampler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsetSamplerSpec:
    """Block sampler over [n]: index i enters when its b signs are all -1."""

    n: int
    bits_per_index: int
    delta: Fraction
    base: BiasedSpaceSpec

    @classmethod
    def from_alpha(cls, n: int, alpha, delta, **kwargs) -> "SubsetSamplerSpec":
        """Same as build, but takes the inclusion probability, which must
        be an exact power of two."""
        a = Fraction(alpha)
        if a.numerator != 1 or a.denominator.bit_count() != 1:
            raise ValueError(f"inclusion probability {a} is not a power of two")
        return cls.build(n, a.denominator.bit_length() - 1, delta, **kwargs)

    @classmethod
    def build(cls, n: int, bits_per_index: int, delta, max_arity: int = 3,
              bias_floor: Fraction | None = None) -> "SubsetSamplerSpec":
        """Derive the underlying space at bias delta * 2^(-b * max_arity).

        Each joint event over j <= max_arity indices is a function of
        b*j biased positions, so this Vazirani-style budget targets
        joint deviations of at most delta; the achieved deviation is
        measured, never assumed.
        """
        d = Fraction(delta)
        eps = d * Fraction(1, 1 << (bits_per_index * max_arity))
        if bias_floor is not None and eps < bias_floor:
            eps = Fraction(bias_floor)
        return cls(n=n, bits_per_index=bits_per_index, delta=d,
                   base=BiasedSpaceSpec.for_bias(n * bits_per_index, eps))

    @classmethod
    def with_degree(cls, n: int, bits_per_index: int, k: int,
                    delta=Fraction(1)) -> "SubsetSamplerSpec":
        return cls(n=n, bits_per_index=bits_per_index, delta=Fraction(delta),
                   base=BiasedSpaceSpec.with_degree(n * bits_per_index, k))

    @classmethod
    def uniform(cls, n: int, bits_per_index: int) -> "SubsetSamplerSpec":
        return cls(n=n, bits_per_index=bits_per_index, delta=Fraction(0),
                   base=BiasedSpaceSpec.uniform_space(n * bits_per_index))

    @property
    def alpha(self) -> Fraction:
        return Fraction(1, 1 << self.bits_per_index)

    @property
    def seed_bits(self) -> int:
        return self.base.seed_bits

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "alpha": str(self.alpha),
            "bitsPerIndex": self.bits_per_index,
            "delta": str(self.delta),
            "base": self.base.to_json(),
        }


def sample_subset(spec: SubsetSamplerSpec, seed: int) -> frozenset:
    signs = generate_biased(spec.base, seed)
    b = spec.bits_per_index
    return frozenset(
        i for i in range(spec.n)
        if all(signs[i * b + q] == -1 for q in range(b))
    )


def subsets_all_seeds(spec: SubsetSamplerSpec) -> np.ndarray:
    """Membership masks (bit i set iff i in I) for every seed, in seed order."""
    signs = outputs_all_seeds(spec.base, positions=spec.n * spec.bits_per_index)
    blocks = signs.reshape(signs.shape[0], spec.n, spec.bits_per_index)
    member = (blocks == -1).all(axis=2)
    return (member.astype(np.int64) << np.arange(spec.n, dtype=np.int64)).sum(axis=1)


def exact_joint_deviation(spec: SubsetSamplerSpec, max_indices: int) -> Fraction:
    """Max |Pr[joint pattern] - prod Pr[marginal]| over small index tuples."""
    if spec.seed_bits > EXHAUSTIVE_SEED_BITS_LIMIT or spec.n > EXHAUSTIVE_N_LIMIT:
        raise ValueError("instance too large for exhaustive joint-deviation measurement")
    masks = subsets_all_seeds(spec)
    total = len(masks)
    marg = [Fraction(int(((masks >> i) & 1).sum()), total) for i in range(spec.n)]
    worst = Fraction(0)
    for arity in range(2, max_indices + 1):
        for tup in combinations(range(spec.n), arity):
            sub = np.zeros(total, dtype=np.int64)
            for j, i in enumerate(tup):
                sub |= ((masks >> i) & 1) << j
            joint = np.bincount(sub, minlength=1 << arity)
            for pattern in product((0, 1), repeat=arity):
                idx = sum(b << j for j, b in enumerate(pattern))
                pr = Fraction(int(joint[idx]), total)
                prod = Fraction(1)
                for j, i in enumerate(tup):
                    prod *= marg[i] if pattern[j] else 1 - marg[i]
                worst = max(worst, abs(pr - prod))
    return worst
