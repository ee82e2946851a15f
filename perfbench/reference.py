"""Reference computations written apart from the derand package.

Nothing here imports derand.  The powering construction, the seed
layouts of the three generators, closed-form expectations and a naive
seed walk are rebuilt from their documented definitions, so the
benchmark can check the program's outputs against code that shares
none of its implementation.  Parameter records and formulas are read
only through their data fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# GF(2^k) from first principles
# ---------------------------------------------------------------------------

def clmul(a: int, b: int) -> int:
    """Carryless product of two binary polynomials, one bit of a at a time."""
    acc = 0
    shift = 0
    while a:
        if a & 1:
            acc ^= b << shift
        a >>= 1
        shift += 1
    return acc


def poly_rem(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_rem(a, b)
    return a


def is_irreducible_ben_or(f: int, k: int) -> bool:
    """Ben-Or's test: f of degree k is irreducible over GF(2) iff
    gcd(x^(2^i) - x mod f, f) = 1 for every i in 1..k//2."""
    xp = 2  # x^(2^i) mod f, starting at i = 0
    for _ in range(k // 2):
        xp = poly_rem(clmul(xp, xp), f)
        if poly_gcd(xp ^ 2, f) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(k: int) -> int:
    """The lexicographically smallest irreducible polynomial of degree k."""
    for low in range(1, 1 << k, 2):
        f = (1 << k) | low
        if is_irreducible_ben_or(f, k):
            return f
    raise ValueError(f"no irreducible polynomial of degree {k}")


class Field:
    def __init__(self, k: int):
        self.k = k
        self.modulus = smallest_irreducible(k)

    def mul(self, a: int, b: int) -> int:
        return poly_rem(clmul(a, b), self.modulus)

    def power(self, a: int, e: int) -> int:
        acc = 1
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc


@lru_cache(maxsize=None)
def field(k: int) -> Field:
    return Field(k)


def powering_signs(k: int, seed: int, start: int, count: int) -> list:
    """Signs <r, s^i> for i = start..start+count-1 of the seed (r, s):
    r is the low k bits, s the next k bits; parity 1 maps to -1."""
    gf = field(k)
    mask = (1 << k) - 1
    r, s = seed & mask, (seed >> k) & mask
    p = gf.power(s, start)
    out = []
    for _ in range(count):
        out.append(-1 if (r & p).bit_count() & 1 else 1)
        p = gf.mul(p, s)
    return out


def bias_of_set(k: int, index_set) -> Fraction:
    """Exact bias of the character over ``index_set``, by root counting:
    E over r of (-1)^<r, v> is 1 when v = 0 and 0 otherwise, so the bias
    is the share of s with sum_{i in S} s^i = 0."""
    gf = field(k)
    roots = 0
    for s in range(1 << k):
        acc = 0
        for i in index_set:
            acc ^= gf.power(s, i)
        roots += acc == 0
    return Fraction(roots, 1 << k)


# ---------------------------------------------------------------------------
# Generators, rebuilt from their documented seed layouts
# ---------------------------------------------------------------------------

def _take(seed: int, pos: int, bits: int) -> int:
    return (seed >> pos) & ((1 << bits) - 1)


def rcnf_seed_bits(params) -> int:
    kz = params.z_spec.field_degree
    kj = params.subset_spec.base.field_degree
    ky = params.y_spec.field_degree
    return params.rounds * (2 * kz + 2 * kj) + 2 * ky


def rcnf_sample(params, seed: int) -> tuple:
    """The rcnf generator: the T z-blocks in round order occupy the lowest
    bits, then the T subset blocks, then y.  Index i joins round t's
    subset when its b subset signs are all -1; fresh indices take that
    round's z sign and the rest take y."""
    n, b, rounds = params.n, params.bits_per_index, params.rounds
    kz = params.z_spec.field_degree
    kj = params.subset_spec.base.field_degree
    ky = params.y_spec.field_degree
    if seed < 0 or seed >> rcnf_seed_bits(params):
        raise ValueError("seed outside the generator's seed space")
    pos = 0
    zs, js = [], []
    for _ in range(rounds):
        zs.append(_take(seed, pos, 2 * kz))
        pos += 2 * kz
    for _ in range(rounds):
        js.append(_take(seed, pos, 2 * kj))
        pos += 2 * kj
    out = powering_signs(ky, _take(seed, pos, 2 * ky), 0, n)
    covered = set()
    for t in range(rounds):
        z = powering_signs(kz, zs[t], 0, n)
        j = powering_signs(kj, js[t], 0, n * b)
        for i in range(n):
            if i not in covered and all(j[i * b + q] == -1 for q in range(b)):
                covered.add(i)
                out[i] = z[i]
    return tuple(out)


def hsg_sample(n: int, params, seed: int) -> tuple:
    """The width-3 hitting generator: the low ceil(log2 n) bits, reduced
    mod n, give a prefix of false signs; the rest of the seed drives the
    inner rcnf generator, whose output fills the remaining positions."""
    rbits = max(1, (n - 1).bit_length())
    r = (seed & ((1 << rbits) - 1)) % n
    inner = rcnf_sample(params, seed >> rbits)
    return (-1,) * r + inner[: n - r]


def _pack_msb(signs) -> int:
    acc = 0
    for v in signs:
        acc = (acc << 1) | (v == 1)
    return acc


def cr_sample(params, seed: int) -> tuple:
    """The rectangle sampler: one seed block per stage, in stage order.
    The direct stage gives m blocks; walking the inner stages backwards,
    block i selects row ``block`` of column i of that stage's matrix,
    stored column-major with entries most significant sign first."""
    specs, sched, m = params.stage_specs, params.schedule, params.m
    parts, pos = [], 0
    for spec in specs:
        parts.append(_take(seed, pos, 2 * spec.field_degree))
        pos += 2 * spec.field_degree
    if seed < 0 or seed >> pos:
        raise ValueError("seed outside the sampler's seed space")
    dw = sched[-2] if len(sched) >= 2 else sched[0]
    direct = powering_signs(specs[-1].field_degree, parts[-1], 0, m * dw)
    blocks = [_pack_msb(direct[i * dw:(i + 1) * dw]) for i in range(m)]
    for stage in range(len(specs) - 2, -1, -1):
        rows, ew = 1 << sched[stage + 1], sched[stage]
        k = specs[stage].field_degree
        blocks = [_pack_msb(powering_signs(k, parts[stage], i * rows * ew + blocks[i] * ew, ew))
                  for i in range(m)]
    w = sched[0]
    return tuple(1 if (blk >> (w - 1 - q)) & 1 else -1 for blk in blocks for q in range(w))


# ---------------------------------------------------------------------------
# Formulas, rectangles and programs: evaluation and closed forms
# ---------------------------------------------------------------------------

def _terms(f):
    """(kind, ((index, negated), ...), target) for a read-once or parity CNF."""
    if hasattr(f, "clauses"):
        return [("or", tuple((l.index, l.negated) for l in c), 1) for c in f.clauses]
    return [(t.kind, tuple((l.index, l.negated) for l in t.literals), t.target)
            for t in f.terms]


def formula_value(f, x) -> int:
    if f.is_false:
        return 0
    for kind, lits, target in _terms(f):
        truths = [(x[i] == 1) != neg for i, neg in lits]
        if kind == "or" and not any(truths):
            return 0
        if kind == "xor" and sum(truths) % 2 != target:
            return 0
    return 1


def formula_values(f, signs: np.ndarray) -> np.ndarray:
    """formula_value over the rows of an int8 sign matrix."""
    acc = np.full(signs.shape[0], not f.is_false)
    for kind, lits, target in ([] if f.is_false else _terms(f)):
        truths = [(signs[:, i] == 1) != neg for i, neg in lits]
        if kind == "or":
            acc &= np.logical_or.reduce(truths)
        else:
            acc &= (np.sum(truths, axis=0) % 2) == target
    return acc


def formula_expectation(f) -> Fraction:
    """Closed form: an OR of w literals on fresh variables misses with
    probability 2^-w and a parity holds with probability 1/2."""
    if f.is_false:
        return Fraction(0)
    acc = Fraction(1)
    for kind, lits, _target in _terms(f):
        acc *= Fraction(1, 2) if kind == "xor" else 1 - Fraction(1, 1 << len(lits))
    return acc


def rect_expectation(rect) -> Fraction:
    """Closed form: coordinate i accepts popcount(table_i) of 2^w blocks."""
    acc = Fraction(1)
    for table in rect.tables:
        acc *= Fraction(table.bit_count(), 1 << rect.w)
    return acc


def robp_accept_count(prog) -> int:
    """Accepted inputs of a layered program, by forward path counting."""
    counts = [0] * prog.d
    counts[0] = 1
    for t in range(prog.n):
        nxt = [0] * prog.d
        for slot, c in enumerate(counts):
            nxt[prog.next0[t][slot]] += c
            nxt[prog.next1[t][slot]] += c
        counts = nxt
    return counts[0]


def robp_expectation(prog) -> Fraction:
    return Fraction(robp_accept_count(prog), 1 << prog.n)


def robp_values(prog, signs: np.ndarray) -> np.ndarray:
    """Acceptance of every row of a sign matrix (column i = variable i)."""
    state = np.zeros(signs.shape[0], dtype=np.int64)
    for t in range(prog.n):
        table = np.array([prog.next0[t], prog.next1[t]], dtype=np.int64)
        state = table[(signs[:, prog.order[t]] == 1).astype(np.int64), state]
    return state == 0


def all_signs(n: int) -> np.ndarray:
    """Every point of {-1,1}^n, row j with sign +1 at i iff bit i of j is set."""
    rows = np.arange(1 << n, dtype=np.int64)
    return np.where((rows[:, None] >> np.arange(n)) & 1, 1, -1).astype(np.int8)


def naive_generator_mean(params, f) -> Fraction:
    """Acceptance of f averaged over every seed of the rcnf generator."""
    total = 1 << rcnf_seed_bits(params)
    hits = sum(formula_value(f, rcnf_sample(params, seed)[: f.n]) for seed in range(total))
    return Fraction(hits, total)


def composed_mean(block_widths, table) -> Fraction:
    """Exact mean of table[mask] when block i is an OR of w_i fresh
    literals (true with probability 1 - 2^-w_i) and sets bit i of mask."""
    probs = [1 - Fraction(1, 1 << w) for w in block_widths]
    acc = Fraction(0)
    for mask, value in enumerate(table):
        weight = Fraction(1)
        for i, p in enumerate(probs):
            weight *= p if (mask >> i) & 1 else 1 - p
        acc += Fraction(value) * weight
    return acc
