"""Corpus generation, exact advantage measurement and reporting.

Exhaustive advantage walks a generator's entire seed space and compares
the induced acceptance to the exact expectation; the result is a
rational, reproducible across runs.  The one-round restriction
generator is walked through its seed's product structure on read-only
tables cached for the last parameter record, y packed 64 seeds to a
word: per subset seed J, a term with no z-literal narrows a packed y
vector, one with no y-literal a z vector, and only split terms meet
the (live z) x y-words grid, counted by popcount.  Its output histogram
is, per J, the outer product of the z-part and y-part counts.  The
hitting sweep builds one such histogram, at its longest length, folds
it to each shorter length, and walks each length's programs in one
batched prefix doubling.  Seed spaces too large to walk fall back to a
declared-size random sample.
``advantage_report`` builds every ``AdvantageReport``, for the
structured walk and both modes of the naive one; a report derives its
advantage from its two expectations.
``advantage_sweep`` is the one landmark sweep: ``desk_advantage_sweep`` and the CLI's
``advantage`` command both run it.  ``cr_generator`` walks the rectangle
generator seed by seed: criterion 6 holds the acceptance it sums over
every inner seed's restriction to it, and it stays the oracle of the
planned structured rectangle walk.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import bp3, cr_prg, formats, rcnf_prg
from .models import (CombRect, Literal, ReadOnceCnf, Robp, Term, XorCnf,
                     and_chain_program, batch_prefix_slots, parity_program, tribes)
from .signs import all_sign_rows
from .smallbias import BiasedSpaceSpec, exact_bias, parity_bits_all_seeds, subsets_all_seeds
from .smallbias import outputs_all_seeds  # noqa: F401 (perfbench/selftest.py traces it here)

NAIVE_WALK_SEED_BITS_LIMIT = 26  # generator seed bits exhaustive_advantage walks one by one
OUTPUT_HISTOGRAM_MAX_N = 24  # longest output rcnf_output_histogram tabulates, 2^n counts
HIT_WALK_SLOTS = 1 << 22  # final-layer slots one batched walk of hsg_hit_stats holds
STATISTICAL_SAMPLES = 1 << 14
BATCH_SEEDS = 2048  # seeds expanded and scored at once by exhaustive_advantage


# ---------------------------------------------------------------------------
# Generator handles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorHandle:
    """A generator as the advantage walk sees it: ``sample_batch`` maps a
    sequence of seeds to their outputs, one int8 sign row per seed."""

    name: str
    seed_bits: int
    sample_batch: Callable[[Sequence[int]], np.ndarray]


def rcnf_generator(params: rcnf_prg.RcnfGenParams) -> GeneratorHandle:
    name = params.preset or f"rcnf{params.n}"
    return GeneratorHandle(name=name, seed_bits=params.seed_bits,
                           sample_batch=lambda seeds: rcnf_prg.sample_batch(params, seeds))


def cr_generator(params: cr_prg.CrGenParams) -> GeneratorHandle:
    name = params.preset or f"cr{params.m}x{params.w}"

    def sample_batch(seeds):
        rows = [cr_prg.sample_cr(params, seed).values for seed in seeds]
        return np.array(rows, dtype=np.int8).reshape(len(rows), params.m * params.w)
    return GeneratorHandle(name=name, seed_bits=params.seed_bits, sample_batch=sample_batch)


# ---------------------------------------------------------------------------
# Advantage measurement
# ---------------------------------------------------------------------------

@dataclass
class AdvantageReport:
    instance: str
    klass: str
    n: int
    m: int
    w: int
    eps: Fraction
    seed_bits: int
    exact_e: Fraction
    gen_e: Fraction
    mode: str
    samples: int
    time_ms: int
    confidence: float = 1.0       # 1 for exhaustive runs
    ci_half_width: float = 0.0    # Hoeffding half-width in statistical mode

    @property
    def advantage(self) -> Fraction:
        return abs(self.gen_e - self.exact_e)

    def csv_row(self, keep_time: bool = False) -> list:
        return [
            self.klass, self.instance, self.n, self.m, self.w,
            _fmt(self.eps), self.seed_bits, _fmt(self.exact_e),
            _fmt(self.gen_e), _fmt(self.advantage), self.mode, self.samples,
            self.time_ms if keep_time else 0,
        ]


CSV_COLUMNS = ["class", "instance", "n", "m", "w", "eps", "seed_bits",
               "exact_E", "gen_E", "advantage", "mode", "samples", "time_ms"]


def _fmt(x) -> str:
    return format(float(x), ".12g")


def advantage_report(f, name: str, eps: Fraction, seed_bits: int,
                     walk: Callable[[], Tuple[int, int, str]]) -> AdvantageReport:
    """The report of ``walk()``, which returns (accepted seeds, seeds
    walked, mode) and alone is timed, over a read-once or parity formula
    or a rectangle f; any other f is refused with ValueError before the
    walk, as the structured walk refuses a non-formula.  A
    statistical walk gets confidence 0.99 and its Hoeffding half-width."""
    if isinstance(f, (ReadOnceCnf, XorCnf)):
        klass = "rcnf" if isinstance(f, ReadOnceCnf) else "xorcnf"
        m, w = f.size, max((len(t.literals) for t in f.terms), default=0)
    elif isinstance(f, CombRect):
        klass, m, w = "rect", f.m, f.w
    else:
        raise ValueError(f"advantage needs a read-once or parity formula or a rectangle, "
                         f"not {type(f).__name__}")
    exact = f.exact_expectation()
    t0 = time.monotonic()
    hits, samples, mode = walk()
    ms = int((time.monotonic() - t0) * 1000)
    confidence, half = 1.0, 0.0
    if mode == "statistical":
        confidence = 0.99
        half = math.sqrt(math.log(2 / (1 - confidence)) / (2 * samples))
    return AdvantageReport(instance=name, klass=klass, n=f.n, m=m, w=w, eps=eps,
                           seed_bits=seed_bits, exact_e=exact, gen_e=Fraction(hits, samples),
                           mode=mode, samples=samples, time_ms=ms, confidence=confidence,
                           ci_half_width=half)


def exhaustive_advantage(gen: GeneratorHandle, f, name: str = "",
                         limit_bits: int = NAIVE_WALK_SEED_BITS_LIMIT,
                         rng_seed: int = 0) -> AdvantageReport:
    """Walk every seed (or sample when the generator has more than
    ``limit_bits`` seed bits) and compare the induced acceptance to the
    exact expectation.

    Seeds are expanded and scored BATCH_SEEDS at a time; the statistical
    branch draws the same ``rng.getrandbits`` seeds in the same order as
    a one-at-a-time walk would.
    """
    def accepted(seeds) -> int:
        # longer generators serve narrower instances by prefix
        return int(f.eval_batch(gen.sample_batch(seeds)[:, :f.n]).sum())

    def walk():
        if gen.seed_bits <= limit_bits:
            total = 1 << gen.seed_bits
            batches = (range(start, min(start + BATCH_SEEDS, total))
                       for start in range(0, total, BATCH_SEEDS))
            return sum(map(accepted, batches)), total, "exhaustive"
        rng = random.Random(rng_seed)
        batches = ([rng.getrandbits(gen.seed_bits)
                    for _ in range(min(BATCH_SEEDS, STATISTICAL_SAMPLES - done))]
                   for done in range(0, STATISTICAL_SAMPLES, BATCH_SEEDS))
        return sum(map(accepted, batches)), STATISTICAL_SAMPLES, "statistical"
    return advantage_report(f, name or gen.name, Fraction(0), gen.seed_bits, walk)


@dataclass(frozen=True)
class RoundTables:
    """All seeds' outputs of one one-round parameter record: ``z[v, s]``
    true iff output v of z-seed s is true, ``y`` the same for the y-seeds
    packed into (n, ceil(Y/64)) uint64 words (seed 64w + b at bit b of
    word w) with ``y_valid`` setting the bits that are seeds, ``j`` the
    subset membership masks in seed order.  Built and cached only by
    ``round_tables``; the arrays are read-only."""

    z: np.ndarray
    y: np.ndarray
    y_valid: np.ndarray
    j: np.ndarray


def _pack_seeds(bits: np.ndarray) -> np.ndarray:
    """(n, seeds) bool -> (n, ceil(seeds/64)) uint64, seed s at bit s % 64 of word s // 64."""
    packed = np.packbits(bits, axis=1, bitorder="little")  # (n, ceil(seeds/8)) bytes
    packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
    return packed.view("<u8").astype(np.uint64)


@lru_cache(maxsize=1)
def round_tables(params: rcnf_prg.RcnfGenParams) -> RoundTables:
    """The z, y and J tables of one-round parameters, each read
    position-major from smallbias.parity_bits_all_seeds (parity 1 is
    sign -1, so an output is true where the bit is clear).  Cached for
    the last record: walks of many formulas over one record share one
    expansion, and a new record evicts it."""
    if params.rounds != 1:
        raise ValueError("the structured walk supports one-round parameters")
    ytrue = ~parity_bits_all_seeds(params.y_spec)
    arrays = (~parity_bits_all_seeds(params.z_spec), _pack_seeds(ytrue),
              _pack_seeds(np.ones_like(ytrue[:1]))[0], subsets_all_seeds(params.subset_spec))
    for array in arrays:
        array.setflags(write=False)
    return RoundTables(*arrays)


def _ones_where(flags: np.ndarray) -> np.ndarray:
    return np.where(flags, np.uint64(0xFFFF_FFFF_FFFF_FFFF), np.uint64(0))


def _term_rows(f, tables: RoundTables) -> list:
    """Per OR or parity term: its reduction (bitwise OR or XOR), its
    literals' bits and their truth rows in z and in packed y.  Each term
    is read with target 1 (``Term.target_one_literals``), so it is
    satisfied when its reduction is 1."""
    rows = []
    for term in f.terms:
        lits = term.target_one_literals
        var = np.array([l.index for l in lits], dtype=np.intp)
        neg = np.array([l.negated for l in lits], dtype=bool)
        rows.append((np.bitwise_or if term.kind == "or" else np.bitwise_xor,
                     np.uint64(1) << var.astype(np.uint64),
                     tables.z[var] ^ neg[:, None], tables.y[var] ^ _ones_where(neg)[:, None]))
    return rows


def _structured_count(f, tables: RoundTables) -> int:
    """Accepted seeds over the (J, z, y) product, each distinct J once.
    Per live z, a split term with y-part X allows all of y (an OR term z
    satisfies), X or ~X (the y parity must be 1 xor the z parity)."""
    terms = _term_rows(f, tables)
    term_masks = np.array([np.bitwise_or.reduce(bits) for _op, bits, _z, _y in terms], np.uint64)
    y_only = np.array([op.reduce(y, axis=0) for op, _bits, _z, y in terms],
                      dtype=np.uint64).reshape(len(terms), tables.y.shape[1])
    masks, mult = np.unique(tables.j.view(np.uint64), return_counts=True)
    count = 0
    for jm, times in zip(masks, mult):
        touched = (term_masks & jm) != 0
        vec_y = tables.y_valid & np.bitwise_and.reduce(y_only[~touched], axis=0)
        vec_z = np.ones(tables.z.shape[1], dtype=bool)
        split = []
        for op, bits, zrows, yrows in (terms[t] for t in np.flatnonzero(touched)):
            in_z = (bits & jm) != 0
            zpart = op.reduce(zrows[in_z], axis=0)
            if in_z.all():
                vec_z &= zpart
            else:
                split.append((op, zpart, op.reduce(yrows[~in_z], axis=0)))
        live = np.flatnonzero(vec_z)
        if not split:
            hits = len(live) * int(np.bitwise_count(vec_y).sum())
        else:
            grid = np.tile(vec_y, (len(live), 1))
            for op, zpart, ypart in split:
                grid &= op(ypart, _ones_where(zpart[live])[:, None])
            hits = int(np.bitwise_count(grid).sum())
        count += int(times) * hits
    return count


def rcnf_structured_advantage(params: rcnf_prg.RcnfGenParams, f, name: str = "") -> AdvantageReport:
    """Exact exhaustive advantage of the one-round restriction generator
    on a read-once or parity formula, via the seed product structure.

    Agrees with the naive seed walk bit for bit (the tests cross-check).
    It enumerates only the z, y and subset seed spaces, so the limit is
    smallbias.TABLE_SEED_BITS_LIMIT on each of them, not the naive
    walk's NAIVE_WALK_SEED_BITS_LIMIT on their sum.  The seed tables
    come from ``round_tables``, which expands them once per record.
    """
    if not isinstance(f, (ReadOnceCnf, XorCnf)):
        raise ValueError(f"structured advantage needs a read-once or parity formula, "
                         f"not {type(f).__name__}")
    if f.n > params.n:
        raise ValueError("formula is wider than the generator output")
    return advantage_report(f, name, params.epsilon, params.seed_bits, lambda: (
        0 if f.is_false else _structured_count(f, round_tables(params)),
        1 << params.seed_bits, "exhaustive"))


# ---------------------------------------------------------------------------
# Output histograms and hitting sweeps
# ---------------------------------------------------------------------------

def rcnf_output_histogram(params: rcnf_prg.RcnfGenParams) -> np.ndarray:
    """Counts of every output pattern over the full seed space, packed
    little-endian with bit i set iff output i is true; needs one-round
    parameters and n small enough for a 2^n table.

    Per subset mask J the z and y parts of an output occupy disjoint
    bits, so the counts are the outer product of the z-part and y-part
    counts, each pattern a distinct sum."""
    if params.n > OUTPUT_HISTOGRAM_MAX_N:
        raise ValueError(f"output histogram needs n <= {OUTPUT_HISTOGRAM_MAX_N}")
    tables = round_tables(params)
    weights = np.int64(1) << np.arange(params.n, dtype=np.int64)
    ybits = np.unpackbits(tables.y.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    zfull = weights @ tables.z
    yfull = (weights @ ybits)[:1 << params.y_spec.seed_bits]
    hist = np.zeros(1 << params.n, dtype=np.int64)
    masks, mult = np.unique(tables.j, return_counts=True)
    for jm, times in zip(masks, mult):
        zpat, zcount = np.unique(zfull & jm, return_counts=True)
        ypat, ycount = np.unique(yfull & ~jm, return_counts=True)
        hist[(zpat[:, None] | ypat).ravel()] += times * np.outer(zcount, ycount).ravel()
    return hist


def _fold(hist: np.ndarray, n: int) -> np.ndarray:
    """The histogram of the low n output bits, one top bit folded away
    at a time."""
    while hist.size > 1 << n:
        hist = hist.reshape(2, -1).sum(axis=0)
    return hist


def _hsg_output_counts(n: int, inner_hist: np.ndarray) -> np.ndarray:
    """How many bp3.hsg_sample seeds output each input of length n: per
    zero-prefix length r, weighted by the prefix codes that decode to
    it, the inner histogram folded to n - r bits and shifted past the
    prefix."""
    rweight = [0] * n
    for raw in range(1 << bp3.hsg_prefix_bits(n)):
        rweight[bp3.hsg_prefix_length(n, raw)] += 1
    counts = np.zeros(1 << n, dtype=np.int64)
    for r in range(n):
        inner_hist = _fold(inner_hist, n - r)
        counts[::1 << r] += rweight[r] * inner_hist
    return counts


def _dense_programs(progs: Sequence[Robp], eps: Fraction) -> list:
    """(index in progs, E[f], accept flags in variable order) of each
    program of progs, which share n and d, that accepts at least eps of
    its inputs.  One batched prefix doubling gives every accept table,
    HIT_WALK_SLOTS final slots at a time, and E[f] is its row count."""
    n = progs[0].n
    step = max(1, HIT_WALK_SLOTS >> n)
    out = []
    for lo in range(0, len(progs), step):
        batch = progs[lo:lo + step]
        for slots in batch_prefix_slots(batch):
            pass
        accepts = slots == Robp.ACC
        for i, (prog, row, count) in enumerate(zip(batch, accepts, accepts.sum(axis=1))):
            expectation = Fraction(int(count), 1 << n)
            if expectation >= eps:
                out.append((lo + i, expectation, prog.in_variable_order(row)))
    return out


@dataclass(frozen=True)
class HitStats:
    instance: str
    n: int
    expectation: Fraction
    hit_fraction: Fraction
    seed_bits: int


def hsg_hit_stats(programs: Sequence[Tuple[str, Robp]], epsilon) -> List[HitStats]:
    """Exhaustive hitting sweep: per program, the exact fraction of
    bp3.hsg_sample seeds whose output it accepts, by length, then in
    input order within a length.

    Programs below the expectation threshold are excluded (the hitting
    contract only covers dense functions).  The programs of each (n, d)
    are walked together by one batched prefix doubling, which gives
    every accept table and, by row count, every E[f].  One output
    histogram is built, at the longest kept length, and a shorter length
    folds its top bits away: every ``hsg_inner_preset(n)`` has the same
    rounds, field degrees and bits per index, so a shorter preset's
    outputs are prefixes of a longer one's.  A program's hits are the
    seeds outputting each input, summed over its accept flags.  A
    program too long for the histogram is not walked: it is refused if
    dense and left out otherwise.
    """
    if not programs:
        raise ValueError("hitting sweep needs a nonempty corpus")
    eps = Fraction(epsilon)
    shapes: Dict[Tuple[int, int], List[int]] = {}
    for pos, (_name, prog) in enumerate(programs):
        shapes.setdefault((prog.n, prog.d), []).append(pos)
    hist = None  # the inner output histogram at the last length kept
    rows = []
    for n, d in sorted(shapes, reverse=True):
        positions = shapes[n, d]
        group = [programs[pos][1] for pos in positions]
        if n > OUTPUT_HISTOGRAM_MAX_N:
            if any(prog.exact_expectation() >= eps for prog in group):
                raise ValueError(f"output histogram needs n <= {OUTPUT_HISTOGRAM_MAX_N}")
            continue
        kept = _dense_programs(group, eps)
        if not kept:
            continue
        hist = (rcnf_output_histogram(bp3.hsg_inner_preset(n)) if hist is None
                else _fold(hist, n))
        counts = _hsg_output_counts(n, hist)
        seed_bits = bp3.hsg_seed_bits(n)
        for i, expectation, accepts in kept:
            pos = positions[i]
            rows.append((n, pos, HitStats(
                instance=programs[pos][0], n=n, expectation=expectation,
                hit_fraction=Fraction(int(counts[accepts].sum()), 1 << seed_bits),
                seed_bits=seed_bits)))
    return [stats for _n, _pos, stats in sorted(rows, key=lambda row: row[:2])]


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------

MAX_TRIES = 10000  # random programs drawn before giving up on the expectation floor


def _random_terms(rng: random.Random, n: int, max_width: int, xor_chance: float,
                  stop_chance: float) -> tuple:
    """Terms over a shuffled cover of [n] in chunks of 1..max_width,
    stopping after each term with probability stop_chance; a term is a
    parity with probability xor_chance (no draw when that is 0)."""
    vars_ = list(range(n))
    rng.shuffle(vars_)
    terms, pos = [], 0
    while pos < n:
        width = rng.randint(1, max_width)
        lits = tuple(Literal(v, rng.randrange(2) == 1) for v in vars_[pos:pos + width])
        terms.append(Term("xor" if xor_chance and rng.random() < xor_chance else "or", lits))
        pos += width
        if rng.random() < stop_chance:
            break
    return tuple(terms)


def random_read_once_cnf(rng: random.Random, n: int, max_width: int = 4) -> ReadOnceCnf:
    terms = _random_terms(rng, n, max_width, xor_chance=0, stop_chance=0.15)
    return ReadOnceCnf(n=n, clauses=tuple(t.literals for t in terms))


def random_xorcnf(rng: random.Random, n: int, max_width: int = 4) -> XorCnf:
    return XorCnf(n=n, terms=_random_terms(rng, n, max_width, xor_chance=0.4, stop_chance=0.2))


def random_rect(rng: random.Random, m: int, w: int) -> CombRect:
    return CombRect(m=m, w=w,
                    tables=tuple(rng.getrandbits(1 << w) for _ in range(m)))


def random_program(rng: random.Random, n: int, d: int,
                   min_expectation: Optional[Fraction] = None) -> Robp:
    for _ in range(MAX_TRIES):
        next0 = [[rng.randrange(d) for _ in range(d)] for _ in range(n)]
        next1 = [[rng.randrange(d) for _ in range(d)] for _ in range(n)]
        prog = Robp(n=n, d=d, next0=next0, next1=next1)
        if min_expectation is None or prog.exact_expectation() >= min_expectation:
            return prog
    raise ValueError(f"no program in {MAX_TRIES} draws reached the expectation floor "
                     f"{min_expectation}")


def random_width3(rng: random.Random, n: int,
                  min_expectation: Optional[Fraction] = None) -> Robp:
    return random_program(rng, n, 3, min_expectation)


def bad_heavy_program(n: int) -> Robp:
    """Hand-built sudden-death program with a frequently visited state
    feeding the dead bottom row (its conditional visit probability is
    one half, landing it in the large-bad partition)."""
    next0, next1 = [], []
    for t in range(n):
        if t == 0:
            next0.append((1, 2, 2))  # split start between the two live slots
            next1.append((0, 2, 2))
        elif t == n // 2:
            next0.append((0, 2, 2))  # slot 1 escapes only on bit 1
            next1.append((0, 0, 2))
        else:
            next0.append((0, 1, 2))
            next1.append((0, 1, 2))
    return Robp(n=n, d=3, next0=next0, next1=next1)


def landmark_formulas(n_limit: int = 64) -> List[Tuple[str, object]]:
    """Deterministic instances every sweep includes: the hard read-once
    AND-of-ORs family, parities, chains and seeded random formulas."""
    rng = random.Random(0xD0C0)
    out: List[Tuple[str, object]] = [
        ("tribes-w2", tribes(2)),
        ("tribes-w3", tribes(3)),
        ("or-chain-12", ReadOnceCnf(12, (tuple(Literal(i) for i in range(12)),))),
        ("and-chain-10", ReadOnceCnf(10, tuple((Literal(i),) for i in range(10)))),
        ("parity-3", XorCnf(3, (Term("xor", (Literal(0), Literal(1), Literal(2))),))),
        ("parity-17", XorCnf(17, (Term("xor", tuple(Literal(i) for i in range(17))),))),
        ("parity-mixed", XorCnf(12, (
            Term("xor", (Literal(0), Literal(1), Literal(2, True))),
            Term("or", (Literal(4), Literal(5, True), Literal(6))),
            Term("xor", (Literal(8), Literal(9)), 0),
        ))),
    ]
    for idx in range(3):
        out.append((f"random-rcnf-{idx}", random_read_once_cnf(rng, n_limit, max_width=5)))
    for idx in range(2):
        out.append((f"random-xorcnf-{idx}", random_xorcnf(rng, n_limit, max_width=5)))
    return [(name, f) for name, f in out if f.n <= n_limit]


def width3_corpus(count: int = 100, n_max: int = 14,
                  min_expectation: Fraction = Fraction(1, 4),
                  seed: int = 0xB3) -> List[Tuple[str, Robp]]:
    if n_max < 4:
        raise ValueError(f"random corpus programs have n from 4 to n_max, so n_max must be "
                         f"at least 4, not {n_max}")
    rng = random.Random(seed)
    out: List[Tuple[str, Robp]] = [
        ("and-chain-3", and_chain_program(3)),
        ("parity-6", parity_program(6)),
        ("bad-heavy-8", bad_heavy_program(8)),
    ]
    out = [(name, p) for name, p in out
           if p.n <= n_max and p.exact_expectation() >= min_expectation]
    idx = 0
    while len(out) < count:
        n = rng.randint(4, n_max)
        out.append((f"rand-w3-{idx}", random_width3(rng, n, min_expectation)))
        idx += 1
    return out[:count]


def corpus_generate(out_dir: str, count: int = 8, n: int = 16, max_width: int = 4,
                    seed: int = 1) -> List[str]:
    """Write a deterministic corpus (landmarks plus ``count`` seeded random
    instances of length about ``n``) in the text and JSON formats; same
    arguments, same bytes."""
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(seed)
    items: List[Tuple[str, object]] = [
        ("tribes-w2", tribes(2)),
        ("parity-5", XorCnf(5, (Term("xor", tuple(Literal(i) for i in range(5))),))),
        ("and-chain-4", and_chain_program(4)),
        ("bad-heavy-6", bad_heavy_program(6)),
    ]
    for i in range(count):
        kind = i % 4
        if kind == 0:
            items.append((f"rcnf-{i}", random_read_once_cnf(rng, n, max_width)))
        elif kind == 1:
            items.append((f"xorcnf-{i}", random_xorcnf(rng, n, max_width)))
        elif kind == 2:
            items.append((f"rect-{i}", random_rect(rng, max(2, n // 8), 4)))
        else:
            items.append((f"robp-{i}", random_width3(rng, min(n, 12))))
    paths = []
    for name, obj in items:
        path = os.path.join(out_dir, f"{name}.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(formats.dumps(obj))
        jpath = os.path.join(out_dir, f"{name}.json")
        with open(jpath, "w", encoding="ascii") as fh:
            fh.write(formats.dump_json(obj))
        paths.extend([path, jpath])
    return paths


# ---------------------------------------------------------------------------
# Reports: CSV and SVG
# ---------------------------------------------------------------------------

def write_csv(reports: Iterable[AdvantageReport], path: str,
              keep_time: bool = False) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for rep in reports:
        lines.append(",".join(str(v) for v in rep.csv_row(keep_time=keep_time)))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _scatter_panel(points, xlabel, ylabel, width, height, x_off) -> list:
    pad = 48
    parts = [
        f'<line x1="{x_off + pad}" y1="{height - pad}" x2="{x_off + width - pad}" '
        f'y2="{height - pad}" stroke="black" stroke-width="1"/>',
        f'<line x1="{x_off + pad}" y1="{pad}" x2="{x_off + pad}" y2="{height - pad}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{x_off + width // 2}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="{x_off + 14}" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 {x_off + 14} {height // 2})">{ylabel}</text>',
    ]
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x0, y0 = min(xs), min(ys)
        xr = (max(xs) - x0) or 1.0
        yr = (max(ys) - y0) or 1.0
        for x, y, label in points:
            px = x_off + pad + (x - x0) / xr * (width - 2 * pad)
            py = height - pad - (y - y0) / yr * (height - 2 * pad)
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="steelblue">'
                         f'<title>{label}</title></circle>')
    return parts


SVG_PANEL_WIDTH, SVG_HEIGHT = 480, 320


def render_report_svg(reports: Sequence[AdvantageReport]) -> str:
    """Two deterministic panels: advantage against seed bits and against
    the target error."""
    width, height = SVG_PANEL_WIDTH, SVG_HEIGHT
    total = 2 * width
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total}" height="{height}" '
        f'viewBox="0 0 {total} {height}">',
        f'<rect x="0" y="0" width="{total}" height="{height}" fill="white"/>',
    ]
    by_bits = [(float(r.seed_bits), float(r.advantage), r.instance) for r in reports]
    by_eps = [(float(r.eps), float(r.advantage), r.instance) for r in reports]
    parts += _scatter_panel(by_bits, "seed bits", "advantage", width, height, 0)
    parts += _scatter_panel(by_eps, "target error", "advantage", width, height, width)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Property suites (shared by the CLI `check` command and the tests)
# ---------------------------------------------------------------------------

def _suite_result(name: str, seed: int, ok: bool, detail: str) -> dict:
    return {"name": name, "seed": seed, "pass": ok, "detail": detail}


def check_smallbias(seed: int = 7) -> dict:
    """Sweep 19 random specs and n = 20 at k = 12, and verify the measured
    bias never exceeds (n-1)/2^k, exactly."""
    rng = random.Random(seed)
    cases = [(rng.randint(1, 12), rng.randint(2, 8)) for _ in range(19)] + [(20, 12)]
    margins = []
    for n, k in cases:
        spec = BiasedSpaceSpec.with_degree(n, k)
        bias, _wit = exact_bias(spec)
        bound = spec.bias_bound
        if bias > bound:
            return _suite_result("smallbias", seed, False,
                                 f"n={n} k={k}: bias {bias} > bound {bound}")
        margins.append(bound - bias)
    return _suite_result("smallbias", seed, True, f"{len(cases)} specs, min margin {min(margins)}")


def check_sympoly(seed: int = 11) -> dict:
    from .sympoly import (check_s1s2_bound, elem_sym_all, elem_sym_enumerated,
                          newton_girard_residual)

    rng = random.Random(seed)
    for t in range(1000):
        m = rng.randint(1, 12)
        z = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(m)]
        if newton_girard_residual(z, m) != 0:
            return _suite_result("sympoly", seed, False, f"newton residual at trial {t}")
    for t in range(200):
        m = rng.randint(1, 12)
        z = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(m)]
        S = elem_sym_all(z, m)
        for k in range(m + 1):
            if S[k] != elem_sym_enumerated(z, k):
                return _suite_result("sympoly", seed, False, f"S_{k} mismatch at trial {t}")
    violations = 0
    for t in range(1000):
        m = rng.randint(2, 10)
        z = [Fraction(rng.randint(-100, 100), 100) for _ in range(m)]
        mu = Fraction(rng.randint(1, 50), 50)
        s1 = abs(sum(z))
        sq = sum(v * v for v in z)
        root = Fraction(math.isqrt(sq.numerator * sq.denominator) + 1, sq.denominator)
        lam = mu / (s1 + root + Fraction(1, 1000))
        res = check_s1s2_bound([lam * v for v in z], mu, m)
        if not (res.hypotheses_ok and res.ok):
            violations += 1
    if violations:
        return _suite_result("sympoly", seed, False, f"{violations} bound violations")
    return _suite_result("sympoly", seed, True, "1000 random inputs clean")


def check_models(seed: int = 13) -> dict:
    """Each class's exact expectation against its brute-force acceptance
    count, on 100 random instances per class."""
    rng = random.Random(seed)
    for t in range(100):
        n = rng.randint(2, 14)
        cases = [("rcnf", random_read_once_cnf(rng, n)), ("xorcnf", random_xorcnf(rng, n)),
                 ("robp", random_program(rng, min(n, 12), d=2 + t % 3)),  # widths 2..4
                 ("rect", random_rect(rng, rng.randint(1, 3), rng.randint(1, 4)))]
        for klass, obj in cases:
            accepted = int(obj.eval_batch(all_sign_rows(obj.n)).sum())
            if Fraction(accepted, 1 << obj.n) != obj.exact_expectation():
                return _suite_result("models", seed, False, f"{klass} mismatch {t}")
    return _suite_result("models", seed, True, "100 instances per class")


def check_approx(seed: int = 17) -> dict:
    from .approx import SandwichPair, rcnf_poly, verify_sandwich, xor_compose

    rng = random.Random(seed)
    for t in range(50):
        k = rng.randint(1, 3)
        blocks, n = [], 0
        for _i in range(k):
            width = rng.randint(1, 4)
            blocks.append(tuple(Literal(n + j, rng.randrange(2) == 1) for j in range(width)))
            n += width
        eps = Fraction(rng.randint(0, 4), 100)
        cnfs = [ReadOnceCnf(n, (lits,)) for lits in blocks]
        pairs = [SandwichPair.of(p - eps / 2, p + eps / 2) if eps else SandwichPair.exact(p)
                 for p in map(rcnf_poly, cnfs)]
        table = [Fraction(rng.randint(0, 4), 4) for _ in range(1 << k)]
        out = xor_compose(n, table, pairs)

        def target(x, cnfs=cnfs, table=table):
            # the combiner's multilinear extension at the 0/1 block values
            # is the table entry of their bitmask
            return table[sum(f.evaluate(x) << i for i, f in enumerate(cnfs))]

        rep = verify_sandwich(target, out, n)
        t_norm = max(p.max_l1() for p in pairs)
        if not rep.pointwise_ok:
            return _suite_result("approx", seed, False, f"pointwise failure {t}")
        if rep.gap > Fraction(16) ** k * eps:
            return _suite_result("approx", seed, False, f"gap budget failure {t}")
        if max(rep.l1_lower, rep.l1_upper) > Fraction(4) ** k * (t_norm + 1) ** k:
            return _suite_result("approx", seed, False, f"l1 budget failure {t}")
    return _suite_result("approx", seed, True, "50 compositions verified")


# ---------------------------------------------------------------------------
# Advantage sweeps
# ---------------------------------------------------------------------------

def advantage_sweep(params: rcnf_prg.RcnfGenParams,
                    instances: Iterable[Tuple[str, object]]) -> List[AdvantageReport]:
    """Exact advantage of the one-round generator ``params`` on each
    (name, formula) pair, in order, its seed tables expanded once by
    ``round_tables``.  Parameters that are multi-round or too large to
    enumerate raise ValueError, also when ``instances`` is empty."""
    round_tables(params)
    return [rcnf_structured_advantage(params, f, name=name) for name, f in instances]


def desk_advantage_sweep() -> List[AdvantageReport]:
    """The frozen landmark sweep at the exhaustive desk preset."""
    params = rcnf_prg.desk_preset()
    return advantage_sweep(params, landmark_formulas(params.n))
