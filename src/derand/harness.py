"""Corpus generation, exact advantage measurement and reporting.

Exhaustive advantage walks a generator's entire seed space and compares
the induced acceptance to the exact expectation; the result is a
rational, reproducible across runs and worker chunk counts.  For the
one-round restriction generator the walk exploits the product structure
of the seed (subset block x fill blocks): per subset seed, clauses
split into a part answered by the z string and a part answered by y,
and the count over the (z, y) grid is a broadcast of per-source
satisfaction vectors.  Seed spaces too large to walk fall back to a
declared-size random sample.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import bp3, cr_prg, rcnf_prg
from .models import (CombRect, Literal, ReadOnceCnf, Robp, Term, XorCnf,
                     and_chain_program, parity_program, tribes)
from .signs import SignVector, bit_rows
from .smallbias import outputs_all_seeds, subsets_all_seeds

EXHAUSTIVE_SEED_LIMIT_BITS = 26
STATISTICAL_SAMPLES = 1 << 14
BATCH_SEEDS = 2048  # seeds expanded and scored at once by exhaustive_advantage
_PLUS_IF_SET = np.array([-1, 1], dtype=np.int8)  # bit -> sign, 1 meaning true


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


def uniform_generator(n: int) -> GeneratorHandle:
    return GeneratorHandle(name=f"uniform{n}", seed_bits=n,
                           sample_batch=lambda seeds: _PLUS_IF_SET[bit_rows(seeds, n)])


def constant_generator(signs: SignVector) -> GeneratorHandle:
    row = signs.as_array()
    return GeneratorHandle(name="constant", seed_bits=0,
                           sample_batch=lambda seeds: np.tile(row, (len(seeds), 1)))


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


def hsg_generator(n: int, epsilon, params: rcnf_prg.RcnfGenParams | None = None) -> GeneratorHandle:
    params = params or rcnf_prg.hsg_inner_preset(n)
    return GeneratorHandle(
        name=f"hsg{n}", seed_bits=bp3.hsg_seed_bits(n, params),
        sample_batch=lambda seeds: bp3.hsg_sample_batch(n, seeds, params))


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
    advantage: Fraction
    mode: str
    samples: int
    time_ms: int
    confidence: float = 1.0       # 1 for exhaustive runs
    ci_half_width: float = 0.0    # Hoeffding half-width in statistical mode

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


def _instance_shape(f) -> tuple:
    if isinstance(f, ReadOnceCnf):
        return "rcnf", f.n, f.size, f.width
    if isinstance(f, XorCnf):
        return "xorcnf", f.n, f.size, max((len(t.literals) for t in f.terms), default=0)
    if isinstance(f, CombRect):
        return "rect", f.n, f.m, f.w
    if isinstance(f, Robp):
        return "robp", f.n, f.d, 0
    raise TypeError(type(f).__name__)


def exhaustive_advantage(gen: GeneratorHandle, f, name: str = "",
                         limit_bits: int = EXHAUSTIVE_SEED_LIMIT_BITS,
                         workers: int = 1, rng_seed: int = 0) -> AdvantageReport:
    """Walk every seed (or sample when over the limit) and compare the
    induced acceptance to the exact expectation.

    Seeds are expanded and scored BATCH_SEEDS at a time; the statistical
    branch draws the same ``rng.getrandbits`` seeds in the same order as
    a one-at-a-time walk would.  ``workers`` has no effect.
    """
    klass, n, m, w = _instance_shape(f)
    exact = f.exact_expectation()

    def accepted(seeds) -> int:
        # longer generators serve narrower instances by prefix
        return int(f.eval_batch(gen.sample_batch(seeds)[:, :f.n]).sum())

    t0 = time.monotonic()
    if gen.seed_bits <= limit_bits:
        total = 1 << gen.seed_bits
        hits = sum(accepted(range(start, min(start + BATCH_SEEDS, total)))
                   for start in range(0, total, BATCH_SEEDS))
        mean = Fraction(hits, total)
        mode, samples = "exhaustive", total
        confidence, half = 1.0, 0.0
    else:
        rng = random.Random(rng_seed)
        samples = STATISTICAL_SAMPLES
        hits = sum(accepted([rng.getrandbits(gen.seed_bits)
                             for _ in range(min(BATCH_SEEDS, samples - done))])
                   for done in range(0, samples, BATCH_SEEDS))
        mean = Fraction(hits, samples)
        mode = "statistical"
        confidence = 0.99
        half = math.sqrt(math.log(2 / (1 - confidence)) / (2 * samples))
    ms = int((time.monotonic() - t0) * 1000)
    return AdvantageReport(instance=name or gen.name, klass=klass, n=n, m=m, w=w,
                           eps=Fraction(0), seed_bits=gen.seed_bits, exact_e=exact,
                           gen_e=mean, advantage=abs(mean - exact), mode=mode,
                           samples=samples, time_ms=ms, confidence=confidence,
                           ci_half_width=half)


def _term_views(f) -> List[Tuple[str, Tuple[Tuple[int, bool], ...], int]]:
    if isinstance(f, ReadOnceCnf):
        return [("or", tuple((l.index, l.negated) for l in c), 1) for c in f.clauses]
    if isinstance(f, XorCnf):
        return [(t.kind, tuple((l.index, l.negated) for l in t.literals), t.target)
                for t in f.terms]
    raise TypeError("structured advantage needs a read-once or parity formula")


@dataclass(frozen=True)
class RoundTables:
    """Every seed's output of the three sources of a one-round generator,
    in seed order: z and y sign matrices and the J membership masks."""

    z: np.ndarray
    y: np.ndarray
    j: np.ndarray


def round_tables(params: rcnf_prg.RcnfGenParams) -> RoundTables:
    if params.rounds != 1:
        raise ValueError("the structured walk supports one-round parameters")
    return RoundTables(z=outputs_all_seeds(params.z_spec), y=outputs_all_seeds(params.y_spec),
                       j=subsets_all_seeds(params.subset_spec))


def rcnf_structured_advantage(params: rcnf_prg.RcnfGenParams, f, name: str = "",
                              workers: int = 1,
                              tables: RoundTables | None = None) -> AdvantageReport:
    """Exact exhaustive advantage of the one-round restriction generator
    on a read-once or parity formula, via the seed product structure.

    Agrees with the naive seed walk bit for bit (the tests cross-check);
    the speedup is that the (z, y) grid only materializes for clauses
    split across both sources.  A sweep over many formulas expands
    ``tables`` once and passes them in.
    """
    if params.rounds != 1:
        raise ValueError("the structured walk supports one-round parameters")
    if f.n > params.n:
        raise ValueError("formula is wider than the generator output")
    klass, n, m, w = _instance_shape(f)
    exact = f.exact_expectation()
    t0 = time.monotonic()
    tables = tables or round_tables(params)
    zout, yout, jmasks = tables.z, tables.y, tables.j
    Z, Y = zout.shape[0], yout.shape[0]
    total = Z * Y * len(jmasks)
    if getattr(f, "is_false", False):
        ms = int((time.monotonic() - t0) * 1000)
        return AdvantageReport(instance=name, klass=klass, n=n, m=m, w=w,
                               eps=params.epsilon, seed_bits=params.seed_bits,
                               exact_e=exact, gen_e=Fraction(0), advantage=abs(exact),
                               mode="exhaustive", samples=total, time_ms=ms)
    terms = _term_views(f)

    def lit_vec(out, var, neg):
        return out[:, var] == (-1 if neg else 1)

    count = 0
    chunk = max(1, len(jmasks) // max(workers, 1))
    for cstart in range(0, len(jmasks), chunk):
        for jm in jmasks[cstart:cstart + chunk]:
            jm = int(jm)
            vec_z = np.ones(Z, dtype=bool)
            vec_y = np.ones(Y, dtype=bool)
            grid = None
            for kind, lits, target in terms:
                in_z = [(v, neg) for v, neg in lits if (jm >> v) & 1]
                in_y = [(v, neg) for v, neg in lits if not (jm >> v) & 1]
                if kind == "or":
                    if not in_z:
                        sat = np.zeros(Y, dtype=bool)
                        for v, neg in in_y:
                            sat |= lit_vec(yout, v, neg)
                        vec_y &= sat
                    elif not in_y:
                        sat = np.zeros(Z, dtype=bool)
                        for v, neg in in_z:
                            sat |= lit_vec(zout, v, neg)
                        vec_z &= sat
                    else:
                        satz = np.zeros(Z, dtype=bool)
                        for v, neg in in_z:
                            satz |= lit_vec(zout, v, neg)
                        saty = np.zeros(Y, dtype=bool)
                        for v, neg in in_y:
                            saty |= lit_vec(yout, v, neg)
                        g = satz[:, None] | saty[None, :]
                        grid = g if grid is None else (grid & g)
                else:
                    parz = np.zeros(Z, dtype=np.int8)
                    for v, neg in in_z:
                        parz ^= ((zout[:, v] == 1) != neg).astype(np.int8)
                    pary = np.zeros(Y, dtype=np.int8)
                    for v, neg in in_y:
                        pary ^= ((yout[:, v] == 1) != neg).astype(np.int8)
                    if not in_z:
                        vec_y &= pary == target
                    elif not in_y:
                        vec_z &= parz == target
                    else:
                        g = (parz[:, None] ^ pary[None, :]) == target
                        grid = g if grid is None else (grid & g)
            if grid is None:
                count += int(vec_z.sum()) * int(vec_y.sum())
            else:
                count += int((grid & vec_z[:, None] & vec_y[None, :]).sum())
    mean = Fraction(count, total)
    ms = int((time.monotonic() - t0) * 1000)
    return AdvantageReport(instance=name, klass=klass, n=n, m=m, w=w,
                           eps=params.epsilon, seed_bits=params.seed_bits,
                           exact_e=exact, gen_e=mean, advantage=abs(mean - exact),
                           mode="exhaustive", samples=total, time_ms=ms)


# ---------------------------------------------------------------------------
# Output histograms and hitting sweeps
# ---------------------------------------------------------------------------

def rcnf_output_histogram(params: rcnf_prg.RcnfGenParams) -> np.ndarray:
    """Counts of every output pattern over the full seed space, packed
    little-endian with bit i set iff output i is true; needs one-round
    parameters and n small enough for a 2^n table."""
    if params.rounds != 1:
        raise ValueError("histogram walk supports one-round parameters")
    if params.n > 24:
        raise ValueError("output histogram needs n <= 24")
    n = params.n
    zbits = (outputs_all_seeds(params.z_spec) == 1).astype(np.int64)
    ybits = (outputs_all_seeds(params.y_spec) == 1).astype(np.int64)
    jmasks = subsets_all_seeds(params.subset_spec)
    weights = 1 << np.arange(n, dtype=np.int64)
    hist = np.zeros(1 << n, dtype=np.int64)
    for jm in jmasks:
        jm = int(jm)
        zsel = np.array([(jm >> i) & 1 for i in range(n)], dtype=np.int64)
        zpart = (zbits * (weights * zsel)).sum(axis=1)
        ypart = (ybits * (weights * (1 - zsel))).sum(axis=1)
        grid = zpart[:, None] | ypart[None, :]
        hist += np.bincount(grid.reshape(-1), minlength=1 << n)
    return hist


@dataclass(frozen=True)
class HitStats:
    instance: str
    n: int
    expectation: Fraction
    hit_fraction: Fraction
    seed_bits: int


def hsg_hit_stats(programs: Sequence[Tuple[str, Robp]], epsilon,
                  params_for: Callable[[int], rcnf_prg.RcnfGenParams] | None = None
                  ) -> List[HitStats]:
    """Exhaustive hitting sweep: per program, the exact fraction of
    generator seeds whose output it accepts.

    Programs below the expectation threshold are excluded (the hitting
    contract only covers dense functions).  The walk shares one output
    histogram per distinct program length.
    """
    if not programs:
        raise ValueError("hitting sweep needs a nonempty corpus")
    eps = Fraction(epsilon)
    params_for = params_for or rcnf_prg.hsg_inner_preset
    by_n: Dict[int, list] = {}
    for name, prog in programs:
        if prog.exact_expectation() >= eps:
            by_n.setdefault(prog.n, []).append((name, prog))
    out: List[HitStats] = []
    for n, progs in sorted(by_n.items()):
        params = params_for(n)
        inner_hist = rcnf_output_histogram(params)
        rbits = max(1, (n - 1).bit_length())
        seed_bits = rbits + params.seed_bits
        final = np.zeros(1 << n, dtype=np.int64)
        rweight = [0] * n
        for raw in range(1 << rbits):
            rweight[raw % n] += 1
        for r in range(n):
            if not rweight[r]:
                continue
            low = n - r
            trunc = inner_hist.reshape(1 << r, 1 << low).sum(axis=0) if r else inner_hist
            idx = np.arange(1 << low, dtype=np.int64) << r
            final[idx] += rweight[r] * trunc
        total = (1 << rbits) * (1 << params.seed_bits)
        for name, prog in progs:
            acc = prog.eval_all()
            hits = int(final[acc].sum())
            out.append(HitStats(instance=name, n=n,
                                expectation=prog.exact_expectation(),
                                hit_fraction=Fraction(hits, total),
                                seed_bits=seed_bits))
    return out


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------

def random_read_once_cnf(rng: random.Random, n: int, max_width: int = 4,
                         stop_chance: float = 0.15) -> ReadOnceCnf:
    vars_ = list(range(n))
    rng.shuffle(vars_)
    clauses = []
    pos = 0
    while pos < n:
        width = rng.randint(1, max_width)
        chunk = vars_[pos:pos + width]
        if not chunk:
            break
        clauses.append(tuple(Literal(v, rng.randrange(2) == 1) for v in chunk))
        pos += width
        if rng.random() < stop_chance:
            break
    if not clauses:
        clauses.append((Literal(vars_[0]),))
    return ReadOnceCnf(n=n, clauses=tuple(clauses))


def random_xorcnf(rng: random.Random, n: int, max_width: int = 4,
                  xor_chance: float = 0.4) -> XorCnf:
    vars_ = list(range(n))
    rng.shuffle(vars_)
    terms = []
    pos = 0
    while pos < n:
        width = rng.randint(1, max_width)
        chunk = vars_[pos:pos + width]
        if not chunk:
            break
        lits = tuple(Literal(v, rng.randrange(2) == 1) for v in chunk)
        terms.append(Term("xor" if rng.random() < xor_chance else "or", lits))
        pos += width
        if rng.random() < 0.2:
            break
    if not terms:
        terms.append(Term("or", (Literal(vars_[0]),)))
    return XorCnf(n=n, terms=tuple(terms))


def random_rect(rng: random.Random, m: int, w: int) -> CombRect:
    return CombRect(m=m, w=w,
                    tables=tuple(rng.getrandbits(1 << w) for _ in range(m)))


def random_program(rng: random.Random, n: int, d: int,
                   min_expectation: Optional[Fraction] = None,
                   max_tries: int = 10000) -> Robp:
    for _ in range(max_tries):
        next0 = tuple(tuple(rng.randrange(d) for _ in range(d)) for _ in range(n))
        next1 = tuple(tuple(rng.randrange(d) for _ in range(d)) for _ in range(n))
        prog = Robp(n=n, d=d, next0=next0, next1=next1)
        if min_expectation is None or prog.exact_expectation() >= min_expectation:
            return prog
    raise RuntimeError("could not draw a program above the expectation floor")


def random_width3(rng: random.Random, n: int,
                  min_expectation: Optional[Fraction] = None,
                  max_tries: int = 10000) -> Robp:
    return random_program(rng, n, 3, min_expectation, max_tries)


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
    return Robp(n=n, d=3, next0=tuple(next0), next1=tuple(next1))


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
    rng = random.Random(seed)
    out: List[Tuple[str, Robp]] = [
        ("and-chain-3", and_chain_program(3)),
        ("parity-6", parity_program(6)),
        ("bad-heavy-8", bad_heavy_program(8)),
    ]
    out = [(name, p) for name, p in out if p.exact_expectation() >= min_expectation]
    idx = 0
    while len(out) < count:
        n = rng.randint(4, n_max)
        out.append((f"rand-w3-{idx}", random_width3(rng, n, min_expectation)))
        idx += 1
    return out[:count]


@dataclass(frozen=True)
class CorpusDescriptor:
    count: int = 8
    n: int = 16
    max_width: int = 4
    seed: int = 1


def corpus_generate(descriptor: CorpusDescriptor, out_dir: str) -> List[str]:
    """Write a deterministic corpus (landmarks plus seeded random
    instances) in the text format; same descriptor, same bytes."""
    import os

    from . import formats

    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(descriptor.seed)
    items: List[Tuple[str, object]] = [
        ("tribes-w2", tribes(2)),
        ("parity-5", XorCnf(5, (Term("xor", tuple(Literal(i) for i in range(5))),))),
        ("and-chain-4", and_chain_program(4)),
        ("bad-heavy-6", bad_heavy_program(6)),
    ]
    for i in range(descriptor.count):
        kind = i % 4
        if kind == 0:
            items.append((f"rcnf-{i}", random_read_once_cnf(rng, descriptor.n, descriptor.max_width)))
        elif kind == 1:
            items.append((f"xorcnf-{i}", random_xorcnf(rng, descriptor.n, descriptor.max_width)))
        elif kind == 2:
            items.append((f"rect-{i}", random_rect(rng, max(2, descriptor.n // 8), 4)))
        else:
            items.append((f"robp-{i}", random_width3(rng, min(descriptor.n, 12))))
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


def render_scatter_svg(points: Sequence[Tuple[float, float, str]],
                       xlabel: str, ylabel: str,
                       width: int = 480, height: int = 320) -> str:
    """Deterministic single-panel scatter plot; points are (x, y, label)."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    parts += _scatter_panel(points, xlabel, ylabel, width, height, 0)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_report_svg(reports: Sequence[AdvantageReport],
                      panel_width: int = 480, height: int = 320) -> str:
    """Two deterministic panels: advantage against seed bits and against
    the target error."""
    total = 2 * panel_width
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total}" height="{height}" '
        f'viewBox="0 0 {total} {height}">',
        f'<rect x="0" y="0" width="{total}" height="{height}" fill="white"/>',
    ]
    by_bits = [(float(r.seed_bits), float(r.advantage), r.instance) for r in reports]
    by_eps = [(float(r.eps), float(r.advantage), r.instance) for r in reports]
    parts += _scatter_panel(by_bits, "seed bits", "advantage", panel_width, height, 0)
    parts += _scatter_panel(by_eps, "target error", "advantage", panel_width, height,
                            panel_width)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def report(reports: Sequence[AdvantageReport], csv_path: str,
           svg_path: Optional[str] = None, keep_time: bool = False) -> None:
    write_csv(reports, csv_path, keep_time=keep_time)
    if svg_path:
        with open(svg_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(render_report_svg(reports))


# ---------------------------------------------------------------------------
# Property suites (shared by the CLI `check` command and the tests)
# ---------------------------------------------------------------------------

def check_smallbias(spec_count: int = 20, seed: int = 7,
                    big_pairs: Sequence[Tuple[int, int]] = ((20, 12),)) -> dict:
    """Sweep random specs and verify the measured bias never exceeds
    (n-1)/2^k, exactly."""
    from .smallbias import BiasedSpaceSpec, exact_bias

    rng = random.Random(seed)
    cases = [(rng.randint(1, 12), rng.randint(2, 8)) for _ in range(spec_count - len(big_pairs))]
    cases += [tuple(p) for p in big_pairs]
    worst_margin = None
    for n, k in cases:
        spec = BiasedSpaceSpec.with_degree(n, k)
        bias, _wit = exact_bias(spec)
        bound = spec.bias_bound
        if bias > bound:
            return {"name": "smallbias", "pass": False,
                    "detail": f"n={n} k={k}: bias {bias} > bound {bound}"}
        margin = bound - bias
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    return {"name": "smallbias", "pass": True,
            "detail": f"{len(cases)} specs, min margin {worst_margin}"}


def check_sympoly(trials: int = 1000, seed: int = 11, m_max: int = 12) -> dict:
    from .sympoly import (check_s1s2_bound, elem_sym_all, elem_sym_enumerated,
                          newton_girard_residual)

    rng = random.Random(seed)
    for t in range(trials):
        m = rng.randint(1, m_max)
        z = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(m)]
        if newton_girard_residual(z, m) != 0:
            return {"name": "sympoly", "pass": False, "detail": f"newton residual at trial {t}"}
    for t in range(200):
        m = rng.randint(1, m_max)
        z = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(m)]
        S = elem_sym_all(z, m)
        for k in range(m + 1):
            if S[k] != elem_sym_enumerated(z, k):
                return {"name": "sympoly", "pass": False, "detail": f"S_{k} mismatch at trial {t}"}
    violations = 0
    for t in range(trials):
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
        return {"name": "sympoly", "pass": False, "detail": f"{violations} bound violations"}
    return {"name": "sympoly", "pass": True, "detail": f"{trials} random inputs clean"}


def check_models(per_class: int = 100, seed: int = 13, n_max: int = 14) -> dict:
    rng = random.Random(seed)
    for t in range(per_class):
        n = rng.randint(2, n_max)
        f = random_read_once_cnf(rng, n)
        signs = _all_sign_rows(n)
        if Fraction(int(f.eval_batch(signs).sum()), 1 << n) != f.exact_expectation():
            return {"name": "models", "pass": False, "detail": f"rcnf mismatch {t}"}
        g = random_xorcnf(rng, n)
        if Fraction(int(g.eval_batch(signs).sum()), 1 << n) != g.exact_expectation():
            return {"name": "models", "pass": False, "detail": f"xorcnf mismatch {t}"}
        prog = random_program(rng, min(n, 12), d=2 + t % 3)  # widths 2..4
        if Fraction(int(prog.eval_all().sum()), 1 << prog.n) != prog.exact_expectation():
            return {"name": "models", "pass": False, "detail": f"robp mismatch {t}"}
        fast = prog.accept_probabilities_float()[0][0]
        if abs(fast - float(prog.exact_expectation())) > 1e-12:
            return {"name": "models", "pass": False, "detail": f"float dp drift {t}"}
        m, w = rng.randint(1, 3), rng.randint(1, 4)
        if m * w <= n_max:
            r = random_rect(rng, m, w)
            signs_r = _all_sign_rows(m * w)
            if Fraction(int(r.eval_batch(signs_r).sum()), 1 << (m * w)) != r.exact_expectation():
                return {"name": "models", "pass": False, "detail": f"rect mismatch {t}"}
    return {"name": "models", "pass": True, "detail": f"{per_class} instances per class"}


def check_approx(instances: int = 50, seed: int = 17) -> dict:
    from .approx import SandwichPair, rcnf_poly, verify_sandwich, xor_compose

    rng = random.Random(seed)
    for t in range(instances):
        k = rng.randint(1, 3)
        blocks = []
        base = 0
        for _i in range(k):
            width = rng.randint(1, 4)
            lits = tuple(Literal(base + j, rng.randrange(2) == 1) for j in range(width))
            blocks.append(lits)
            base += width
        n = base
        eps = Fraction(rng.randint(0, 4), 100)
        cnfs = [ReadOnceCnf(n, (lits,)) for lits in blocks]
        pairs = []
        for f in cnfs:
            poly = rcnf_poly(f)
            if eps:
                pairs.append(SandwichPair.of(poly - eps / 2, poly + eps / 2))
            else:
                pairs.append(SandwichPair.exact(poly))
        table = [Fraction(rng.randint(0, 4), 4) for _ in range(1 << k)]
        out = xor_compose(n, table, pairs)

        def target(x, cnfs=cnfs, table=table):
            # the combiner's multilinear extension at the 0/1 block values
            # is the table entry of their bitmask
            return table[sum(f.evaluate(x) << i for i, f in enumerate(cnfs))]

        rep = verify_sandwich(target, out, n)
        t_norm = max(p.max_l1() for p in pairs)
        if not rep.pointwise_ok:
            return {"name": "approx", "pass": False, "detail": f"pointwise failure {t}"}
        if rep.gap > Fraction(16) ** k * eps:
            return {"name": "approx", "pass": False, "detail": f"gap budget failure {t}"}
        if max(rep.l1_lower, rep.l1_upper) > Fraction(4) ** k * (t_norm + 1) ** k:
            return {"name": "approx", "pass": False, "detail": f"l1 budget failure {t}"}
    return {"name": "approx", "pass": True, "detail": f"{instances} compositions verified"}


def _all_sign_rows(n: int) -> np.ndarray:
    masks = np.arange(1 << n, dtype=np.int64)
    return np.where(((masks[:, None] >> np.arange(n)) & 1) == 1, 1, -1).astype(np.int8)


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """One measurement run: which class, which generator, which corpus.

    Exhaustive mode requires the generator seed space to fit under the
    configured bit limit; larger spaces degrade to statistical runs.
    """

    target_class: str            # rcnf | xorcnf | landmarks
    generator: str               # "desk" or "derived"
    corpus_count: int = 0
    corpus_n: int = 16
    corpus_seed: int = 1
    mode: str = "exhaustive"
    seed_limit_bits: int = EXHAUSTIVE_SEED_LIMIT_BITS

    def __post_init__(self):
        if self.mode == "exhaustive" and self.generator == "derived":
            raise ValueError("derived parameters exceed the exhaustive seed limit; "
                             "use the desk preset or statistical mode")


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> List[AdvantageReport]:
    params = rcnf_prg.desk_preset()
    if spec.target_class == "landmarks":
        instances = landmark_formulas(params.n)
    else:
        rng = random.Random(spec.corpus_seed)
        make = random_read_once_cnf if spec.target_class == "rcnf" else random_xorcnf
        instances = [(f"{spec.target_class}-{i}", make(rng, spec.corpus_n))
                     for i in range(spec.corpus_count)]
    tables = round_tables(params)
    return [rcnf_structured_advantage(params, f, name=name, workers=workers, tables=tables)
            for name, f in instances]


def desk_advantage_sweep(workers: int = 1) -> List[AdvantageReport]:
    """The frozen landmark sweep at the exhaustive desk preset."""
    return run_experiment(ExperimentSpec(target_class="landmarks", generator="desk"),
                          workers=workers)
