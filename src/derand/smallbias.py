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
so outputs are bit-exact across runs and platforms); degrees 1..64.

One kernel maps (r, s) to <r, s^i>.  Multiplying by a fixed s is
GF(2)-linear: ``PoweringSeed`` (one seed) tabulates it once, one
256-entry table per byte of the operand, jumps to a start position by
square and multiply (squaring is tabulated once per degree) and takes
parities with ``int.bit_count``.  A batch (``powering_signs``) or every
seed (``outputs_all_seeds``, ``output_mask_histogram``) builds the power
table s^0..s^(m-1) once per distinct s with ``GF2k.mul_vec`` and gathers
it.  The bit-serial ``GF2k.mul`` and ``pow`` are the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .signs import SignVector, bit_rows, walsh_hadamard

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


def _is_irreducible(poly: int, k: int) -> bool:
    # Irreducible over GF(2) iff x^(2^k) == x mod poly and, for every
    # prime p | k, gcd(x^(2^(k/p)) - x, poly) = 1.  Checking every divisor
    # d > 1 of k is equivalent: GF(2^(k/d)) lies in GF(2^(k/p)) for p | d.
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
    return all(gcd(powx(k // d) ^ _poly_mod(2, poly), poly) == 1
               for d in range(2, k + 1) if k % d == 0)


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
        """Vectorized mul (broadcasting), any degree up to 64."""
        a2, b2 = np.broadcast_arrays(np.asarray(a, np.uint64), np.asarray(b, np.uint64))
        acc = np.zeros(a2.shape, dtype=np.uint64)
        top, low = np.uint64(self.k - 1), np.uint64(self.modulus ^ self.order)
        for j in range(self.k):
            acc ^= b2 * ((a2 >> np.uint64(j)) & np.uint64(1))
            # b2 * x, reduced at once so it stays below 2^k <= 2^64
            b2 = ((b2 << np.uint64(1)) & np.uint64(self.order - 1)) ^ ((b2 >> top) * low)
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


# ---------------------------------------------------------------------------
# The powering kernel: (r, s) -> <r, s^i>
# ---------------------------------------------------------------------------

HISTOGRAM_CHUNK = 1 << 20  # seed masks output_mask_histogram holds at once
_SIGN = np.array([1, -1], dtype=np.int8)  # parity bit -> sign


def _byte_tables(images: list) -> list:
    """Tables of the GF(2)-linear map sending basis bit j to images[j]:
    table q maps byte q of the operand to its share of the image."""
    tables = []
    for q in range(0, len(images), 8):
        table = [0]
        for image in images[q:q + 8]:
            table += [v ^ image for v in table]
        tables.append(table)
    return tables


def _apply(tables: list, a: int) -> int:
    out = 0
    for table in tables:
        out ^= table[a & 0xFF]
        a >>= 8
    return out


def _times_tables(gf: GF2k, s: int) -> list:
    images = [s]
    for _ in range(gf.k - 1):
        s = (s << 1) ^ (gf.modulus if s >> (gf.k - 1) else 0)
        images.append(s)
    return _byte_tables(images)


@lru_cache(maxsize=None)
def _squaring_tables(k: int) -> list:
    mod = irreducible_poly(k)
    return _byte_tables([_poly_mod(1 << (2 * j), mod) for j in range(k)])


def _count(spec: BiasedSpaceSpec, positions: int | None) -> int:
    m = spec.n if positions is None else positions
    if m > spec.n:
        raise ValueError("cannot request more positions than the spec length")
    return m


class PoweringSeed:
    """One seed of a biased space, read at any run of positions; the
    tables are built once per seed, however many runs are read."""

    def __init__(self, spec: BiasedSpaceSpec, seed: int):
        if seed < 0 or seed >> spec.seed_bits:
            raise ValueError(f"seed must fit in {spec.seed_bits} bits")
        self.spec = spec
        self.seed = seed
        if not spec.uniform:
            k = spec.field_degree
            self._r = seed & ((1 << k) - 1)
            self._times_s = _times_tables(GF2k(k), seed >> k)

    def signs(self, start: int = 0, count: int | None = None) -> list:
        """Signs at positions start..start+count-1 (count defaults to the rest)."""
        n = self.spec.n
        count = n - start if count is None else count
        if start < 0 or count < 0 or start + count > n:
            raise ValueError(f"positions {start}..{start + count - 1} are outside 0..{n - 1}")
        if self.spec.uniform:
            return [-1 if (self.seed >> i) & 1 else 1 for i in range(start, start + count)]
        times_s, r, power = self._times_s, self._r, 1
        if start:
            square = _squaring_tables(self.spec.field_degree)
            for bit in bin(start)[2:]:  # left to right: s^(2e), then s^(2e+1)
                power = _apply(square, power)
                if bit == "1":
                    power = _apply(times_s, power)
        out = []
        for _ in range(count):
            out.append(-1 if (r & power).bit_count() & 1 else 1)
            power = _apply(times_s, power)
        return out


def generate_biased(spec: BiasedSpaceSpec, seed: int) -> SignVector:
    """Deterministically expand a seed into n signs."""
    return SignVector(tuple(PoweringSeed(spec, seed).signs()))


def _power_table(gf: GF2k, s: np.ndarray, count: int) -> np.ndarray:
    """(len(s), count) uint64 table of s^0..s^(count-1) for every s."""
    table = np.empty((len(s), count), dtype=np.uint64)
    power = np.ones(len(s), dtype=np.uint64)
    for i in range(count):
        table[:, i] = power
        power = gf.mul_vec(power, s)
    return table


def powering_signs(spec: BiasedSpaceSpec, seeds, positions: int | None = None) -> np.ndarray:
    """Sign matrix (len(seeds) x positions, int8) of a batch of seeds.

    Row j agrees with generate_biased(spec, seeds[j]); the power table
    is built once per distinct s in the batch and gathered.
    """
    m = _count(spec, positions)
    seeds = list(seeds)
    if any(seed < 0 or seed >> spec.seed_bits for seed in seeds):
        raise ValueError(f"seeds must fit in {spec.seed_bits} bits")
    if spec.uniform:
        return _SIGN[bit_rows(seeds, m)]
    k = spec.field_degree
    r = np.array([seed & ((1 << k) - 1) for seed in seeds], dtype=np.uint64)
    row_of = {s: i for i, s in enumerate(dict.fromkeys(seed >> k for seed in seeds))}
    which = np.array([row_of[seed >> k] for seed in seeds], dtype=np.intp)
    powers = _power_table(GF2k(k), np.array(list(row_of), dtype=np.uint64), m)
    out = np.empty((len(seeds), m), dtype=np.int8)
    for i in range(m):  # one position at a time keeps the gathered powers small
        out[:, i] = _SIGN[np.bitwise_count(powers[which, i] & r) & 1]
    return out


def outputs_all_seeds(spec: BiasedSpaceSpec, positions: int | None = None) -> np.ndarray:
    """Sign matrix (2^seed_bits x positions), row index = seed value, int8.

    Agrees with generate_biased bit for bit.  For the generator presets;
    use output_mask_histogram for large sweeps.  Seed spaces above
    EXHAUSTIVE_SEED_BITS_LIMIT bits raise ValueError before allocating.
    """
    m = _count(spec, positions)
    if spec.seed_bits > EXHAUSTIVE_SEED_BITS_LIMIT:
        raise ValueError(
            f"seed space of {spec.seed_bits} bits is too large to enumerate "
            f"(limit {EXHAUSTIVE_SEED_BITS_LIMIT} bits)"
        )
    if spec.uniform:
        seeds = np.arange(1 << spec.seed_bits, dtype=np.uint64)
        return _SIGN[(seeds[:, None] >> np.arange(m, dtype=np.uint64)[None, :]) & np.uint64(1)]
    gf = GF2k(spec.field_degree)
    field = np.arange(gf.order, dtype=np.uint64)
    powers = _power_table(gf, field, m)
    out = np.empty((gf.order * gf.order, m), dtype=np.int8)
    for i in range(m):  # one position at a time; row (s, r) is seed r + (s << k)
        out[:, i] = _SIGN[np.bitwise_count(powers[:, i, None] & field[None, :]) & 1].reshape(-1)
    return out


def output_mask_histogram(spec: BiasedSpaceSpec, positions: int) -> np.ndarray:
    """int64 counts of length 2^positions of the packed outputs of every
    seed, bit i set iff sign i is -1.  The packed value is GF(2)-linear
    in r: the XOR over set bits j of r of row (s, j), positions i where
    bit j of s^i is set.  Masks are built by doubling over the bits of r
    across s, in chunks of at most HISTOGRAM_CHUNK masks."""
    if spec.uniform:
        if positions != spec.n:
            raise ValueError("uniform histogram expects the full width")
        return np.ones(1 << spec.n, dtype=np.int64)
    k = spec.field_degree
    gf = GF2k(k)
    powers = _power_table(gf, np.arange(gf.order, dtype=np.uint64), positions)
    bits = (powers[:, None, :] >> np.arange(k, dtype=np.uint64)[None, :, None]) & np.uint64(1)
    rows = (bits << np.arange(positions, dtype=np.uint64)).sum(axis=2).astype(np.int64)  # (s, j)
    counts = np.zeros(1 << positions, dtype=np.int64)
    step = max(1, HISTOGRAM_CHUNK >> k)
    for lo in range(0, gf.order, step):
        part = rows[lo:lo + step]
        masks = np.zeros((len(part), gf.order), dtype=np.int64)  # (s, r)
        for j in range(k):
            masks[:, 1 << j:2 << j] = masks[:, :1 << j] ^ part[:, j, None]
        counts += np.bincount(masks.reshape(-1), minlength=1 << positions)
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
    signs = PoweringSeed(spec.base, seed).signs()
    b = spec.bits_per_index
    return frozenset(i for i in range(spec.n) if 1 not in signs[i * b:(i + 1) * b])


def _members(spec: SubsetSamplerSpec, signs: np.ndarray) -> np.ndarray:
    return (signs.reshape(len(signs), spec.n, spec.bits_per_index) == -1).all(axis=2)


def subset_members(spec: SubsetSamplerSpec, seeds) -> np.ndarray:
    """Membership rows (len(seeds) x n, bool) of a batch of seeds; row j
    holds sample_subset(spec, seeds[j])."""
    return _members(spec, powering_signs(spec.base, seeds, spec.n * spec.bits_per_index))


def subsets_all_seeds(spec: SubsetSamplerSpec) -> np.ndarray:
    """Membership masks (bit i set iff i in I) for every seed, in seed order."""
    member = _members(spec, outputs_all_seeds(spec.base, positions=spec.n * spec.bits_per_index))
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
            joint = np.bincount(sum(((masks >> i) & 1) << j for j, i in enumerate(tup)),
                                minlength=1 << arity)
            for pattern in range(1 << arity):  # bit j: index tup[j] included
                prod = Fraction(1)
                for j, i in enumerate(tup):
                    prod *= marg[i] if (pattern >> j) & 1 else 1 - marg[i]
                worst = max(worst, abs(Fraction(int(joint[pattern]), total) - prod))
    return worst
