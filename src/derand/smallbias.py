"""Small-bias sign distributions and almost-independent subset samplers.

The biased space is the classic powering construction over GF(2^k): a
seed is a pair (r, s) of field elements and output coordinate i is the
inner product of the bit representations of r and s^i, for i = 0..n-1,
mapped 0 -> +1 and 1 -> -1.  For a nonempty coordinate set S the
character expectation over the full seed space equals the fraction of s
that are roots of sum_{i in S} s^i, a nonzero polynomial with at most
n-1 roots, so the measured bias is at most (n-1)/2^k.

Every string the generators draw (z, y, the subset strings and the
rectangle stages) comes from such a space.  A reader takes a whole
string, a run of it or single positions: the rcnf generator reads a
round's z only where the round restricts.  Subset samplers read b-sign
blocks out of one shared biased string over n*b positions; index i is
included exactly when all b signs of block i are -1, with probability
2^-b per index up to the bias of the space.

Field elements are integers whose binary digits are polynomial
coefficients over GF(2), reduced modulo the lexicographically smallest
irreducible polynomial of the given degree (computed once and cached,
so outputs are bit-exact across runs and platforms); degrees 1..64.

One kernel maps (r, s) to <r, s^i>.  A small space, one whose
every-seed table has at most SMALL_SPACE_ENTRIES = 2^18 entries
(n << seed_bits), is expanded whole once per process by
``outputs_all_seeds`` and kept read-only, keyed by (n, k) and never by
seed: ``PoweringSeed`` reads its seed as a row slice and
``powering_signs`` gathers a batch's rows.  Larger spaces are powered
per read.  ``PoweringSeed`` (one seed) reads blocks of b signs: with
u = s^b, sign c of block j is <r_c, u^j> for r_c the transpose of
multiplying by s^c applied to r.  Held in slot form, bit i at bit
slot * i with 2^slot > k, a multiply by u and each r_c is one integer
product, and a read from block j jumps to u^j through the seed's
ladder of u^(2^i).  Strings are read at b = isqrt(n), subsets two
indices to a block and rectangle stages an entry to a block.  A batch or
every seed builds one position-major power table, row i holding s^i
for each distinct s, by doubling: the rows after s^h are the rows
before it times s^h, one call of the array multiply ``GF2k.mul_vec``.
``powering_signs`` gathers a batch's rows from it.  For every seed,
``parity_bits_all_seeds`` gathers the 2^k x 2^k table of parity(a & r)
by it once; the structured walk reads that as it is,
``subsets_all_seeds`` ANDs its b rows per index and
``outputs_all_seeds`` is its seed-major sign view.  The bit-serial
``GF2k.mul`` and ``pow`` are the tests' oracles.

``exact_bias`` measures a space by the first paragraph's root counting.
``root_counts`` reads the power table for every set a at once: the a
with sum_{i in a} s^i = 0 are the kernel of a GF(2)-linear map, reduced
by one elimination run across all s in numpy and enumerated by doubling.
Its oracle is ``output_mask_histogram``, the histogram of every seed's
packed output built from the transposed power table: the Walsh-Hadamard
transform of that histogram is 2^k times the counts.  The subset
samplers' joint deviation from independence is measured only by the
tests, which count ``sample_subset``'s patterns over every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .signs import SignVector

EXHAUSTIVE_N_LIMIT = 20
# seed bits of one space enumerated whole (all-seeds tables and histograms);
# the structured walk of harness is bounded by it on each component space
TABLE_SEED_BITS_LIMIT = 24
# subset_bias_budget budgets the sampler's bias for joint events over
# at most this many indices
SUBSET_MAX_ARITY = 3
# the generators' parameter recipes raise every demanded bias below this
# floor to it (floor_biases) and report the raised names as floor hits
DEFAULT_BIAS_FLOOR = Fraction(1, 1 << 24)


def floor_biases(demanded: dict, floor: Fraction | None) -> tuple:
    """(biases, raised): each demanded bias strictly below ``floor``
    raised to it, and the names raised, in order; None means no floor."""
    if floor is None:
        return demanded, ()
    raised = tuple(name for name, eps in demanded.items() if eps < floor)
    return {name: max(eps, floor) for name, eps in demanded.items()}, raised


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

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized mul (broadcasting), any degree up to 64: the XOR of
        the images b x^j picked by bit j of a.  b steps through them in
        its own shape, so a block times a row shifts only the row."""
        a = np.asarray(a, np.uint64)
        b = np.array(b, np.uint64)  # a copy, stepped in place
        acc = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
        tmp, hi = np.empty_like(acc), np.empty_like(b)
        top, red = np.uint64(self.k - 1), np.uint64(self.modulus & 0xFFFF_FFFF_FFFF_FFFF)
        for j in range(self.k):
            np.right_shift(a, np.uint64(j), out=tmp)
            tmp &= np.uint64(1)
            tmp *= b
            acc ^= tmp
            # b x, reduced at once; at k = 64 the shift drops x^64 itself
            np.right_shift(b, top, out=hi)
            hi *= red
            b <<= np.uint64(1)
            b ^= hi
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
    """Parameters of one powering-construction sign distribution."""

    n: int
    epsilon: Fraction
    field_degree: int
    # every space is a powering space; perfbench/workloads.py reads this
    uniform = False

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
        if n < 1:
            raise ValueError("n must be positive")
        return cls(n=n, epsilon=Fraction(n - 1, 1 << k), field_degree=k)

    @property
    def seed_bits(self) -> int:
        return 2 * self.field_degree

    @property
    def bias_bound(self) -> Fraction:
        return Fraction(max(self.n - 1, 0), 1 << self.field_degree)

    def to_json(self) -> dict:
        return {"n": self.n, "epsilon": str(self.epsilon), "fieldDegree": self.field_degree}


# ---------------------------------------------------------------------------
# The powering kernel: (r, s) -> <r, s^i>
# ---------------------------------------------------------------------------

HISTOGRAM_CHUNK = 1 << 20  # masks output_mask_histogram and root_counts hold at once
# a space with at most this many outputs over every seed (spec.n << seed_bits,
# 256 KB as int8) is read from its every-seed table, built once per process
SMALL_SPACE_ENTRIES = 1 << 18
_SIGN = np.array([1, -1], dtype=np.int8)  # parity bit -> sign


@lru_cache(maxsize=None)
def _spread_field(k: int) -> tuple:
    """GF(2^k) in slot form, 2^slot > k, as two closures over the slot
    width, the byte spreader, the masks and the spread modulus:
    spread(a), and mul(a, b), whose product holds each carryless
    coefficient, a count of at most k, in its own slot; the slots from
    top up, hi, fold back as hi times the modulus less x^k."""
    slot, spreader = k.bit_length(), [0]
    for i in range(8):
        spreader += [v | 1 << slot * i for v in spreader]
    low = sum(1 << slot * i for i in range(2 * k - 1))  # the low bit of 2k - 1 slots
    top, below = slot * k, (1 << slot * k) - 1

    def spread(a: int) -> int:
        out, shift = 0, 0
        while a:
            out |= spreader[a & 0xFF] << shift
            a, shift = a >> 8, shift + 8 * slot
        return out

    def mul(a: int, b: int) -> int:
        c = a * b & low
        while hi := c >> top:
            c = (c & below) + hi * mod & low
        return c

    mod = spread(irreducible_poly(k) ^ 1 << k)
    return spread, mul


@lru_cache(maxsize=None)
def _transposer(k: int):
    """transposes(r, ws): for each w, r_w with <r_w, v> = <r, w v>, all
    in slot form.  Bit i of r_w is sum_j w_j a_(i+j) for a_n = <r, x^n>
    mod m, n < 2k - 1: a obeys m's recurrence, so it is the power series
    (r m* mod x^k) / m*, m* the reversed modulus, and r_w is a times w
    reversed, read from the slot where w's slot 0 lands."""
    spread, _ = _spread_field(k)
    low_k, low = spread((1 << k) - 1), spread((1 << 2 * k - 1) - 1)
    recip, inverse = int(f"{irreducible_poly(k):b}"[::-1], 2), 1
    for n in range(1, 2 * k - 1):  # 1 / m* mod x^(2k - 1), a coefficient at a time
        inverse |= (_clmul(recip, inverse) >> n & 1) << n
    recip, inverse = spread(recip), spread(inverse)
    size = k.bit_length() * (k - 1) // 8 + 1  # bytes of a slot-form element
    flip = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))

    def transposes(r: int, ws) -> list:
        a = (r * recip & low_k) * inverse & low
        return [a * int.from_bytes(w.to_bytes(size, "little").translate(flip), "big")
                >> 8 * size - 1 & low_k for w in ws]
    return transposes


def _small_space_table(spec: BiasedSpaceSpec):
    """The read-only every-seed sign table of a space of at most
    SMALL_SPACE_ENTRIES entries, built once per process; None for a
    larger space, whose seeds are powered one by one."""
    if spec.n << spec.seed_bits > SMALL_SPACE_ENTRIES:
        return None
    return _output_table(spec.n, spec.field_degree)


@lru_cache(maxsize=None)
def _output_table(n: int, k: int) -> np.ndarray:
    table = outputs_all_seeds(BiasedSpaceSpec.with_degree(n, k))
    table.flags.writeable = False
    return table


class PoweringSeed:
    """One seed of a biased space, read in blocks of ``stride`` signs:
    sign c of block j is position j * stride + c.  A small space's seed
    is a row of its table.  Otherwise, with u = s^stride, the sign is
    parity(r_c & u^j) for r_c the transpose of multiplying by s^c
    applied to r, <r_c, v> = <r, s^c v>: one integer product each, by
    ``_transposer``.  A block costs one slot-form multiply by u, and a
    read from block j multiplies the rungs u^(2^i) of the set bits of j;
    the seed keeps its rungs.  A read checks its arguments once, before
    it takes either path."""

    def __init__(self, spec: BiasedSpaceSpec, seed: int, stride: int = 1):
        if seed < 0 or seed >> spec.seed_bits:
            raise ValueError(f"seed must fit in {spec.seed_bits} bits")
        if stride < 1:
            raise ValueError("stride must be positive")
        self.spec, self.seed, self.stride, self.blocks = spec, seed, stride, spec.n // stride
        table = _small_space_table(spec)
        self._row = None if table is None else table[seed]
        if self._row is not None:
            return
        k = spec.field_degree
        spread, self._mul = _spread_field(k)
        r, s = spread(seed & ((1 << k) - 1)), spread(seed >> k)
        powers = [s]  # s^1 .. s^stride
        while len(powers) < stride:
            powers.append(self._mul(powers[-1], s))
        self._r = [r, *_transposer(k)(r, powers[:-1])] if stride > 1 else [r]
        self._ladder = powers[-1:]

    def _powers(self, start: int, count: int):
        """u^start .. u^(start + count - 1), in slot form: a jump that
        multiplies the rungs u^(2^i) of start's set bits, the ladder built
        as far as a read needs it and kept, then count - 1 multiplies."""
        if count <= 0:
            return
        mul, ladder, u = self._mul, self._ladder, self._ladder[0]
        e = start % ((1 << self.spec.field_degree) - 1) if u else start
        while len(ladder) < e.bit_length():
            ladder.append(mul(ladder[-1], ladder[-1]))
        power = reduce(mul, [ladder[i] for i in range(e.bit_length()) if e >> i & 1] or [1])
        for _ in range(count - 1):
            yield power
            power = mul(power, u)
        yield power

    def signs(self, start: int, count: int) -> list:
        """Signs of blocks start..start+count-1 in position order; at
        stride 1 a block is one position."""
        if start < 0 or count < 0 or start + count > self.blocks:
            raise ValueError(f"blocks {start}..{start + count - 1} are outside 0..{self.blocks - 1}")
        return self._read(start * self.stride, (start + count) * self.stride)

    def string(self) -> list:
        """All n signs, the last n % stride of them a part of one block."""
        return self._read(0, self.spec.n)

    def _read(self, lo: int, hi: int) -> list:
        """Signs of positions lo..hi-1, lo at the start of a block."""
        if self._row is not None:
            return self._row[lo:hi].tolist()
        start = lo // self.stride
        return [-1 if (r & power).bit_count() & 1 else 1
                for power in self._powers(start, -(-hi // self.stride) - start)
                for r in self._r][:hi - lo]

    def minus_blocks(self, width: int) -> list:
        """Runs of ``width`` signs, a divisor of the stride, in whole
        blocks that are all -1, each read to its first +1."""
        if width < 1 or self.stride % width:
            raise ValueError(f"run width must divide the stride {self.stride}, not {width}")
        if self._row is not None:
            runs = self._row[:self.blocks * self.stride].reshape(-1, width)
            return np.flatnonzero((runs == -1).all(axis=1)).tolist()
        groups = [self._r[c:c + width] for c in range(0, self.stride, width)]
        out = []
        for j, power in enumerate(self._powers(0, self.blocks)):
            for g, rs in enumerate(groups, j * len(groups)):
                for r in rs:
                    if not (r & power).bit_count() & 1:
                        break
                else:
                    out.append(g)
        return out


def generate_biased(spec: BiasedSpaceSpec, seed: int) -> SignVector:
    """Deterministically expand a seed into n signs, read at stride isqrt(n)."""
    return SignVector(tuple(PoweringSeed(spec, seed, max(1, math.isqrt(spec.n))).string()))


def _power_table(gf: GF2k, s: np.ndarray, count: int) -> np.ndarray:
    """(count, len(s)) uint64 table of s^0..s^(count-1), row i holding s^i.

    Built by doubling: with rows 0..h known, rows h+1..2h are rows 1..h
    times s^h, one mul_vec of the block by the row; its last row is the
    square s^(2h) the next round multiplies by.  log2(count) rounds, not
    count."""
    table = np.empty((max(count, 2), len(s)), dtype=np.uint64)
    table[0], table[1] = 1, s
    h = 1
    while h < count - 1:
        block = table[1:1 + min(h, count - 1 - h)]
        table[h + 1:h + 1 + len(block)] = gf.mul_vec(block, table[h])
        h += len(block)
    return table[:count]


def powering_signs(spec: BiasedSpaceSpec, seeds) -> np.ndarray:
    """Sign matrix (len(seeds) x n, int8) of a batch of seeds.

    Row j agrees with generate_biased(spec, seeds[j]).  A small space's
    rows are gathered from its table; otherwise the power table is
    built once per distinct s in the batch and gathered.
    """
    seeds, width = list(seeds), spec.seed_bits
    if any(seed < 0 or seed >> width for seed in seeds):
        raise ValueError(f"seeds must fit in {width} bits")
    table = _small_space_table(spec)
    if table is not None:
        return table[np.array(seeds, dtype=np.intp)]
    k, n = spec.field_degree, spec.n
    r = np.array([seed & ((1 << k) - 1) for seed in seeds], dtype=np.uint64)
    row_of = {s: i for i, s in enumerate(dict.fromkeys(seed >> k for seed in seeds))}
    which = np.array([row_of[seed >> k] for seed in seeds], dtype=np.intp)
    powers = _power_table(GF2k(k), np.array(list(row_of), dtype=np.uint64), n)
    out = np.empty((len(seeds), n), dtype=np.int8)
    for i in range(n):  # one position at a time keeps the gathered powers small
        out[:, i] = _SIGN[np.bitwise_count(powers[i, which] & r) & 1]
    return out


def parity_bits_all_seeds(spec: BiasedSpaceSpec) -> np.ndarray:
    """Output bits of every seed, position-major: (n x 2^seed_bits) bool,
    entry [i, r + (s << k)] = parity(s^i & r), true iff sign i of that
    seed is -1.

    One gather of the 2^k x 2^k table of parity(a & r) by the power
    table.  Seed spaces above TABLE_SEED_BITS_LIMIT bits raise ValueError
    before allocating.
    """
    if spec.seed_bits > TABLE_SEED_BITS_LIMIT:
        raise ValueError(
            f"seed space of {spec.seed_bits} bits is too large to enumerate "
            f"(limit {TABLE_SEED_BITS_LIMIT} bits)"
        )
    gf, n = GF2k(spec.field_degree), spec.n
    parity = np.zeros((gf.order, gf.order), dtype=bool)  # [a, r] = parity(a & r)
    h = 1
    while h < gf.order:  # one more bit of a and r: parity flips where both are set
        parity[h:2 * h, :h] = parity[:h, h:2 * h] = parity[:h, :h]
        parity[h:2 * h, h:2 * h] = ~parity[:h, :h]
        h *= 2
    return parity[_power_table(gf, np.arange(gf.order, dtype=np.uint64), n)].reshape(n, -1)


def outputs_all_seeds(spec: BiasedSpaceSpec) -> np.ndarray:
    """Sign matrix (2^seed_bits x n, int8), row index = seed value:
    the seed-major view of parity_bits_all_seeds.  Agrees with
    generate_biased bit for bit."""
    return _SIGN[np.ascontiguousarray(parity_bits_all_seeds(spec).T).view(np.uint8)]


def output_mask_histogram(spec: BiasedSpaceSpec) -> np.ndarray:
    """int64 counts of length 2^n of the packed outputs of every seed,
    bit i set iff sign i is -1.  The packed value is GF(2)-linear in r:
    the XOR over set bits j of r of row (s, j), positions i where bit j
    of s^i is set.  Masks are built by doubling over the bits of r
    across s, in chunks of at most HISTOGRAM_CHUNK masks."""
    k, n = spec.field_degree, spec.n
    gf = GF2k(k)
    powers = _power_table(gf, np.arange(gf.order, dtype=np.uint64), n).T
    bits = (powers[:, None, :] >> np.arange(k, dtype=np.uint64)[None, :, None]) & np.uint64(1)
    rows = (bits << np.arange(n, dtype=np.uint64)).sum(axis=2).astype(np.int64)  # (s, j)
    counts = np.zeros(1 << n, dtype=np.int64)
    step = max(1, HISTOGRAM_CHUNK >> k)
    for lo in range(0, gf.order, step):
        part = rows[lo:lo + step]
        masks = np.zeros((len(part), gf.order), dtype=np.int64)  # (s, r)
        for j in range(k):
            masks[:, 1 << j:2 << j] = masks[:, :1 << j] ^ part[:, j, None]
        counts += np.bincount(masks.reshape(-1), minlength=1 << n)
    return counts


def root_counts(spec: BiasedSpaceSpec) -> np.ndarray:
    """int64 counts of length 2^n: entry a is the number of s in GF(2^k)
    with sum_{i in a} s^i = 0, so the transform of output_mask_histogram
    is these counts times 2^k.

    For one s those masks are the kernel of the GF(2)-linear map sending
    bit i to s^i.  s and s^2 are roots of the same binary polynomials
    (P(s)^2 = P(s^2)), so one lane stands for each Frobenius orbit
    {s, s^2, s^4, ..} and its kernel counts the orbit's size times.  The
    elimination reduces s^0 .. s^min(n-1, k) to echelon form, one slot
    per pivot bit holding a value and the mask that produced it, each
    step one numpy op over every lane; a column that reduces to 0 leaves
    its mask as a kernel vector.  A lane's first dependent column d <= k
    leaves the minimal polynomial of s, and each column i > k takes it
    shifted by i - d instead: leading bit i, so the same span.  Each
    lane's kernel is then enumerated by doubling over its basis, a
    lane's masks side by side, in chunks of at most HISTOGRAM_CHUNK
    masks or one lane's kernel.  The lanes s = 0 and s = 1, half of
    every set each, are counted in closed form: s = 0 is a root of the
    sets without index 0 (0^0 = 1), s = 1 of the sets of even size."""
    k, n = spec.field_degree, spec.n
    gf = GF2k(k)
    cols = min(n, k + 1)  # column k is dependent in every lane
    table = _power_table(gf, np.arange(gf.order, dtype=np.uint64), max(cols, 3))
    square, orbit = table[2].astype(np.intp), np.arange(gf.order)
    image = orbit
    for _ in range(k - 1):  # orbit[s]: the least element of s's orbit
        image = square[image]
        np.minimum(orbit, image, out=orbit)
    lanes, weight = np.unique(orbit, return_counts=True)
    lanes, weight = lanes[2:], weight[2:]  # drop s = 0 and s = 1, each its own orbit
    powers = table[:cols, lanes].astype(np.int64)
    slot_value = np.zeros((k, len(lanes)), dtype=np.int64)  # leading bit p, or 0 if empty
    slot_mask = np.zeros_like(slot_value)
    kernel = np.zeros((n, len(lanes)), dtype=np.int64)
    for i in range(cols):
        value, mask = powers[i], np.full(len(lanes), 1 << i, dtype=np.int64)
        for p in reversed(range(k)):
            hit = -((value >> p) & 1)  # all ones where bit p is set
            fill = hit * (slot_value[p] == 0)  # ... and slot p is empty
            slot_value[p] |= value & fill
            slot_mask[p] |= mask & fill
            value ^= slot_value[p] & hit  # a column that fills a slot clears itself
            mask ^= slot_mask[p] & hit
        kernel[i] = mask  # nonzero only where column i reduced to 0
    first = np.argmax(kernel[:cols] != 0, axis=0)  # each lane's first dependent column
    minpoly = kernel[first, np.arange(len(lanes))]
    kernel[cols:] = minpoly << (np.arange(cols, n)[:, None] - first)
    dims = np.count_nonzero(kernel, axis=0)
    basis = np.take_along_axis(kernel, np.argsort(kernel == 0, axis=0, kind="stable"), axis=0)
    odd = np.zeros(1 << n, dtype=bool)  # odd[a]: a has an odd number of members
    h = 1
    while h < len(odd):
        np.logical_not(odd[:h], out=odd[h:2 * h])
        h *= 2
    counts = (~odd).astype(np.int64)
    counts[::2] += 1
    for d, w in set(zip(dims.tolist(), weight.tolist())):
        group = basis[:d, (dims == d) & (weight == w)].T  # (lanes, d)
        step = max(1, HISTOGRAM_CHUNK >> d)
        for lo in range(0, len(group), step):
            part = group[lo:lo + step]
            span = np.zeros((len(part), 1 << d), dtype=np.int32)  # half of int64, as fast
            for j in range(d):
                np.bitwise_xor(span[:, :1 << j], part[:, j, None], out=span[:, 1 << j:2 << j])
            np.add.at(counts, span.reshape(-1), w)
    return counts


def exact_bias(spec: BiasedSpaceSpec) -> tuple:
    """Max character bias over all nonempty index sets, by counting roots.

    Returns (max_bias, witness) with the bias an exact Fraction and the
    witness the first frozenset of coordinates attaining it.  The
    character of set a has expectation Pr_s[sum_{i in a} s^i = 0] over
    the full seed space, read from root_counts.  The histogram of every
    seed's output and its Walsh-Hadamard transform
    (output_mask_histogram) are the oracle the tests hold it to.
    """
    if spec.n > EXHAUSTIVE_N_LIMIT or spec.seed_bits > TABLE_SEED_BITS_LIMIT:
        raise ValueError(
            "instance too large for exhaustive bias measurement "
            f"(n <= {EXHAUSTIVE_N_LIMIT}, seed bits <= {TABLE_SEED_BITS_LIMIT})"
        )
    counts = root_counts(spec)
    counts[0] = -1  # exclude the empty set
    idx = int(np.argmax(counts))
    witness = frozenset(i for i in range(spec.n) if (idx >> i) & 1)
    return Fraction(int(counts[idx]), 1 << spec.field_degree), witness


# ---------------------------------------------------------------------------
# Almost-independent subset sampler
# ---------------------------------------------------------------------------

def subset_bias_budget(delta, bits_per_index: int) -> Fraction:
    """The subset sampler's space bias delta * 2^(-b * SUBSET_MAX_ARITY).

    Each joint event over j <= SUBSET_MAX_ARITY indices is a function of
    b*j biased positions, so this Vazirani-style budget targets
    joint deviations of at most delta; the achieved deviation is
    measured, never assumed.
    """
    return Fraction(delta) / (1 << (bits_per_index * SUBSET_MAX_ARITY))


@dataclass(frozen=True)
class SubsetSamplerSpec:
    """Block sampler over [n]: index i enters when its b signs are all -1."""

    n: int
    bits_per_index: int
    delta: Fraction
    base: BiasedSpaceSpec

    @classmethod
    def with_degree(cls, n: int, bits_per_index: int, k: int,
                    delta=Fraction(1)) -> "SubsetSamplerSpec":
        if bits_per_index < 1:
            raise ValueError(f"bits_per_index must be at least 1, not {bits_per_index}")
        return cls(n=n, bits_per_index=bits_per_index, delta=Fraction(delta),
                   base=BiasedSpaceSpec.with_degree(n * bits_per_index, k))

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
    """The indices whose b-sign block is all -1, two indices to a
    multiply when their count is even."""
    b = spec.bits_per_index
    return frozenset(PoweringSeed(spec.base, seed, (2 - spec.n % 2) * b).minus_blocks(b))


def subset_members(spec: SubsetSamplerSpec, seeds) -> np.ndarray:
    """Membership rows (len(seeds) x n, bool) of a batch of seeds; row j
    holds sample_subset(spec, seeds[j])."""
    signs = powering_signs(spec.base, seeds)
    return (signs.reshape(len(signs), spec.n, spec.bits_per_index) == -1).all(axis=2)


def subsets_all_seeds(spec: SubsetSamplerSpec) -> np.ndarray:
    """Membership masks (bit i set iff i in I) for every seed, in seed order:
    the b bit rows of each index reduced by AND, then packed across i.
    Masks are int64, so samplers over more than 64 indices raise ValueError."""
    if spec.n > 64:
        raise ValueError(f"subset masks hold at most 64 indices, not {spec.n}")
    bits = parity_bits_all_seeds(spec.base)
    member = bits.reshape(spec.n, spec.bits_per_index, -1).all(axis=1)
    packed = np.packbits(member, axis=0, bitorder="little").astype(np.int64)
    return (packed << np.arange(0, 8 * len(packed), 8, dtype=np.int64)[:, None]).sum(axis=0)
