"""The three workloads: seeded inputs, the timed operations and their checks.

``build(name, seed)`` is the whole set-up of a run: it imports derand,
draws the inputs from the seed, derives the generator parameters and
runs the search for every irreducible polynomial the operations need.
Each operation calls public functions of derand through their modules,
so that the traced run sees every call.  Its check compares the output
with the benchmark's own reference computations and the theorem bounds
and returns a message when they disagree.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

import numpy as np

import reference as ref
from derand import approx, bp3, cr_prg, harness, rcnf_prg, smallbias
from derand.models import CombRect, Literal, ReadOnceCnf, Robp, Term, XorCnf

WORKLOADS = ("exhaustive", "certify", "sample")
HIT_EPS = Fraction(1, 4)
DESK_LIMIT = Fraction(1, 10)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    key: Callable[[object], object] = lambda out: out  # the part that must repeat exactly


@dataclass
class Workload:
    name: str
    ops: List[Op]
    inputs: dict         # the make-up of the inputs, printed by every run
    degrees: set         # field degrees whose irreducible polynomial set-up finds
    # wraps the benchmark's own callables that derand calls back, so a
    # trace can keep their time out of the caller's self time
    wrap: Callable = field(default=lambda name, fn: fn)


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    wl = {"exhaustive": _exhaustive, "certify": _certify, "sample": _sample}[name](rng)
    for k in sorted(wl.degrees):
        smallbias.GF2k(k)  # the irreducible-polynomial search belongs to set-up
    return wl


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _clauses(rng, n: int, widths) -> list:
    """Literal groups of the given widths on a seeded permutation of [n]."""
    order = list(range(n))
    rng.shuffle(order)
    widths = list(widths)
    rng.shuffle(widths)
    out, pos = [], 0
    for w in widths:
        out.append(tuple(Literal(v, rng.random() < 0.5) for v in order[pos:pos + w]))
        pos += w
    return out


def _rcnf(rng, n, widths) -> ReadOnceCnf:
    return ReadOnceCnf(n, tuple(_clauses(rng, n, widths)))


def _xorcnf(rng, n, widths, xor_terms) -> XorCnf:
    kinds = ["xor"] * xor_terms + ["or"] * (len(widths) - xor_terms)
    rng.shuffle(kinds)
    return XorCnf(n, tuple(Term(kind, lits, rng.randrange(2) if kind == "xor" else 1)
                           for kind, lits in zip(kinds, _clauses(rng, n, widths))))


def _width3_corpus(rng, count=100, n_lo=4, n_hi=14) -> list:
    """Random width-3 programs accepting at least 1/4 of their inputs.

    The lengths cycle through n_lo..n_hi, so every seed gives the same
    mix of lengths and only the transitions are drawn."""
    out = []
    for i in range(count):
        n = n_lo + i % (n_hi - n_lo + 1)
        while True:
            rows = [tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(n))
                    for _ in (0, 1)]
            prog = Robp(n=n, d=3, next0=rows[0], next1=rows[1])
            if ref.robp_expectation(prog) >= HIT_EPS:
                out.append(prog)
                break
    return out


def _spec_degrees(spec) -> set:
    return set() if spec.uniform else {spec.field_degree}


def _rcnf_degrees(params) -> set:
    return (_spec_degrees(params.z_spec) | _spec_degrees(params.subset_spec.base)
            | _spec_degrees(params.y_spec))


# ---------------------------------------------------------------------------
# Checks shared by several operations
# ---------------------------------------------------------------------------

def _advantage_problems(rep, f, params, exhaustive=True) -> Optional[str]:
    if rep.exact_e != ref.formula_expectation(f):
        return f"{rep.instance}: exact E {rep.exact_e} != closed form {ref.formula_expectation(f)}"
    if rep.advantage != abs(rep.gen_e - rep.exact_e):
        return f"{rep.instance}: advantage is not |gen E - exact E|"
    if exhaustive and (rep.mode, rep.samples) != ("exhaustive", 1 << ref.rcnf_seed_bits(params)):
        return f"{rep.instance}: walk was {rep.mode} over {rep.samples} seeds"
    return None


def _desk_bound_problems(rep, params) -> Optional[str]:
    limit = min(Fraction(1), params.bias_budget(), DESK_LIMIT)
    if rep.advantage > limit:
        return f"{rep.instance}: desk advantage {rep.advantage} above {limit}"
    return None


def _report_key(rep):
    return (rep.instance, rep.exact_e, rep.gen_e, rep.advantage, rep.mode, rep.samples,
            rep.ci_half_width)


# ---------------------------------------------------------------------------
# exhaustive: every seed of a generator is walked
# ---------------------------------------------------------------------------

def _exhaustive(rng) -> Workload:
    desk = rcnf_prg.desk_preset()
    landmarks = dict(harness.landmark_formulas(desk.n))
    widths64 = [2, 3, 4, 5, 6] * 3 + [4]
    corpus = [(f"rcnf64-{i}", _rcnf(rng, 64, widths64)) for i in range(2)]
    corpus += [(f"xorcnf64-{i}", _xorcnf(rng, 64, widths64, 5)) for i in range(2)]
    tiny = rcnf_prg.explicit_params(6, Fraction(1, 4), k_subset=2, k_z=2, k_y=2,
                                    bits_per_index=1, preset="tiny6")
    tiny_formulas = [("tiny-rcnf", _rcnf(rng, 6, [1, 2, 3])),
                     ("tiny-xorcnf", _xorcnf(rng, 6, [2, 2, 2], 1))]
    programs = [(f"w3-{i}", p) for i, p in enumerate(_width3_corpus(rng))]
    # two fixed specs reach n = 20 and 2k = 24; seeded small ones vary the
    # shape while costing too little to make the round's time depend on the seed
    specs = [(20, 8), (8, 12)] + [(rng.randint(2, 12), rng.randint(3, 6)) for _ in range(6)]
    degrees = _rcnf_degrees(desk) | _rcnf_degrees(tiny) | {k for _n, k in specs}
    for n in {p.n for _name, p in programs}:
        degrees |= _rcnf_degrees(rcnf_prg.hsg_inner_preset(n))

    def check_sweep(reports):
        if [r.instance for r in reports] != list(landmarks):
            return "the sweep did not report every landmark in order"
        for rep in reports:
            problem = (_advantage_problems(rep, landmarks[rep.instance], desk)
                       or _desk_bound_problems(rep, desk))
            if problem:
                return problem
        return None

    def corpus_op(name, f):
        def check(rep):
            return _advantage_problems(rep, f, desk) or _desk_bound_problems(rep, desk)
        return Op(name, lambda: harness.rcnf_structured_advantage(desk, f, name=name),
                  check, _report_key)

    def tiny_op(name, f):
        def check(rep):
            naive = ref.naive_generator_mean(tiny, f)
            if rep.gen_e != naive:
                return f"{name}: structured walk {rep.gen_e} != naive walk {naive}"
            return _advantage_problems(rep, f, tiny)
        return Op(name, lambda: harness.rcnf_structured_advantage(tiny, f, name=name),
                  check, _report_key)

    by_name = dict(programs)

    def check_hits(stats):
        # the sweep groups the programs by length, keeping their order within a length
        if [s.instance for s in stats] != sorted(by_name, key=lambda name: by_name[name].n):
            return "the hitting sweep dropped or reordered a program"
        for s in stats:
            prog = by_name[s.instance]
            inner = rcnf_prg.hsg_inner_preset(prog.n)
            if s.expectation != ref.robp_expectation(prog):
                return f"{s.instance}: E {s.expectation} != path count {ref.robp_expectation(prog)}"
            if s.hit_fraction <= 0:
                return f"{s.instance}: no generator output is accepted (a miss)"
            if s.seed_bits != max(1, (prog.n - 1).bit_length()) + ref.rcnf_seed_bits(inner):
                return f"{s.instance}: seed length {s.seed_bits} disagrees with the layout"
        return None

    def bias_op(n, k):
        spec = smallbias.BiasedSpaceSpec.with_degree(n, k)

        def check(out):
            bias, witness = out
            if bias > Fraction(n - 1, 1 << k):
                return f"n={n} k={k}: bias {bias} above (n-1)/2^k"
            if not witness or not witness <= set(range(n)):
                return f"n={n} k={k}: witness {sorted(witness)} is not a nonempty index set"
            if ref.bias_of_set(k, witness) != bias:
                return f"n={n} k={k}: witness bias by root counting != {bias}"
            return None
        return Op(f"bias-n{n}-k{k}", lambda: smallbias.exact_bias(spec), check)

    ops = [Op("desk-sweep", lambda: harness.desk_advantage_sweep(), check_sweep,
              lambda reports: [_report_key(r) for r in reports])]
    ops += [corpus_op(name, f) for name, f in corpus]
    ops += [tiny_op(name, f) for name, f in tiny_formulas]
    ops.append(Op("hit-sweep", lambda: harness.hsg_hit_stats(programs, HIT_EPS), check_hits))
    ops += [bias_op(n, k) for n, k in specs]
    return Workload("exhaustive", ops, {
        "desk landmarks": len(landmarks),
        "n=64 corpus": [name for name, _f in corpus],
        "tiny naive-walk formulas": len(tiny_formulas),
        "width-3 programs": len(programs),
        "exact_bias specs (n, k)": specs,
    }, degrees)


# ---------------------------------------------------------------------------
# certify: exact certificates in rationals
# ---------------------------------------------------------------------------

# block widths of the sandwich compositions: at most 3 blocks, n <= 8
SANDWICH_SHAPES = [(4,), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3)]
# (m, w) of the rectangles whose exact expectation is checked
RECT_SHAPES = [(8, 8), (8, 4), (4, 6), (3, 2)]


def _l1(poly) -> Fraction:
    return sum((abs(c) for c in poly.terms.values()), Fraction(0))


def _mean(poly) -> Fraction:
    return poly.terms.get(frozenset(), Fraction(0))


def _certify(rng) -> Workload:
    wl = Workload("certify", [], {}, set())

    def sandwich_op(shape):
        n, blocks, base = sum(shape), [], 0
        for w in shape:
            blocks.append(tuple(Literal(base + j, rng.random() < 0.5) for j in range(w)))
            base += w
        # combiner values 2^v / 2^(2^k) for a seeded permutation v: no signed
        # sum of them vanishes, so every Walsh coefficient of the table is
        # nonzero and the composed polynomials are equally dense for any seed
        size = 1 << len(shape)
        table = [Fraction(1 << v, 1 << size) for v in rng.sample(range(size), size)]
        eps = Fraction(1, 64)
        pairs = []
        for lits in blocks:
            poly = approx.rcnf_poly(ReadOnceCnf(n, (lits,)))
            pairs.append(approx.SandwichPair.of(poly - eps / 2, poly + eps / 2))
        k = len(shape)
        t_norm = max(max(_l1(p.lower), _l1(p.upper)) for p in pairs)

        def target(x):
            mask = 0
            for i, lits in enumerate(blocks):
                if any((x[l.index] == 1) != l.negated for l in lits):
                    mask |= 1 << i
            return table[mask]

        def run():
            out = approx.xor_compose(n, table, pairs)
            return out, approx.verify_sandwich(wl.wrap("bench.sandwich_target", target), out, n)

        def check(result):
            out, rep = result
            lo, hi = _mean(out.lower), _mean(out.upper)
            mean = ref.composed_mean(shape, table)
            if not (rep.pointwise_ok and rep.exhaustive and rep.points_checked == 1 << n):
                return f"shape {shape}: lower <= target <= upper fails or was not exhaustive"
            if rep.gap != hi - lo or rep.l1_lower != _l1(out.lower) or rep.l1_upper != _l1(out.upper):
                return f"shape {shape}: reported gap or L1 disagrees with the polynomials"
            if rep.gap > Fraction(16) ** k * eps:
                return f"shape {shape}: gap {rep.gap} above 16^k eps"
            if max(rep.l1_lower, rep.l1_upper) > Fraction(4) ** k * (t_norm + 1) ** k:
                return f"shape {shape}: L1 above 4^k (t+1)^k"
            if not lo <= mean <= hi:
                return f"shape {shape}: target mean {mean} outside [{lo}, {hi}]"
            return None

        def key(result):
            out, rep = result
            return rep, frozenset(out.lower.terms.items()), frozenset(out.upper.terms.items())
        return Op(f"sandwich-{'-'.join(map(str, shape))}", run, check, key)

    programs = _width3_corpus(rng)

    def reduce_op(i, prog):
        def run():
            cert = bp3.full_reduce(prog, HIT_EPS)
            return cert, cert.verify_subset(prog)

        def check(result):
            cert, verified = result
            if not verified:
                return f"program {i}: verify_subset rejected its own certificate"
            if cert.source_expectation != ref.robp_expectation(prog):
                return f"program {i}: source E {cert.source_expectation} != path count"
            if cert.formula_expectation != ref.formula_expectation(cert.formula):
                return f"program {i}: formula E != closed form"
            if cert.formula_expectation <= 0:
                return f"program {i}: the certificate formula accepts nothing"
            n2 = cert.formula.n
            signs = ref.all_signs(n2)
            good = signs[ref.formula_values(cert.formula, signs)]
            full = np.full((len(good), prog.n), -1, dtype=np.int8)
            for t in range(n2):
                full[:, cert.read_order[cert.k + t]] = good[:, t]
            if not ref.robp_values(prog, full).all():
                return f"program {i}: a formula-accepted input is rejected by the program"
            return None

        def key(result):
            cert, verified = result
            return (cert.k, cert.formula, cert.read_order, cert.source_expectation,
                    cert.formula_expectation, verified)
        return Op(f"reduce-{i}", run, check, key)

    def rect_op(m, w):
        rect = CombRect(m=m, w=w, tables=tuple(rng.getrandbits(1 << w) for _ in range(m)))

        def check(e):
            closed = ref.rect_expectation(rect)
            return None if e == closed else f"rect {m}x{w}: E {e} != closed form {closed}"
        return Op(f"rect-{m}x{w}", lambda: rect.exact_expectation(), check)

    wl.ops = [sandwich_op(shape) for shape in SANDWICH_SHAPES]
    wl.ops += [reduce_op(i, p) for i, p in enumerate(programs)]
    wl.ops += [rect_op(m, w) for m, w in RECT_SHAPES]
    wl.inputs.update({"sandwich shapes": SANDWICH_SHAPES, "width-3 programs": len(programs),
                      "rectangles (m, w)": RECT_SHAPES})
    return wl


# ---------------------------------------------------------------------------
# sample: per-seed generator outputs at desk and derived parameters
# ---------------------------------------------------------------------------

def _sample(rng) -> Workload:
    desk = rcnf_prg.desk_preset()
    derived = rcnf_prg.derive_params(64, Fraction(1, 16))
    rect_desk = cr_prg.desk_cr_preset(8, 8)
    rect_derived = cr_prg.derive_cr_params(8, 8, Fraction(1, 16))
    hsg_n = 14
    hsg_inner = rcnf_prg.hsg_inner_preset(hsg_n)
    hsg_bits = max(1, (hsg_n - 1).bit_length()) + ref.rcnf_seed_bits(hsg_inner)
    stat_params = rcnf_prg.explicit_params(16, Fraction(1, 4), k_subset=2, k_z=3, k_y=6,
                                           preset="stat16")
    stat_formula = _rcnf(rng, 16, [2] * 8)
    stat_rng_seed = rng.getrandbits(32)
    degrees = _rcnf_degrees(desk) | _rcnf_degrees(derived) | _rcnf_degrees(hsg_inner)
    degrees |= _rcnf_degrees(stat_params)
    for params in (rect_desk, rect_derived):
        for spec in params.stage_specs:
            degrees |= _spec_degrees(spec)

    def seeds(bits, count):
        return [rng.getrandbits(bits) for _ in range(count)]

    def sample_op(name, run, expect):
        def check(sv):
            want = expect()
            return None if sv.values == want else f"{name}: output differs from the reference"
        return Op(name, run, check, lambda sv: sv.values)

    ops = []
    for s in seeds(ref.rcnf_seed_bits(desk), 300):
        ops.append(sample_op(f"rcnf-desk-{s:x}", lambda s=s: rcnf_prg.sample(desk, s),
                             lambda s=s: ref.rcnf_sample(desk, s)))
    for s in seeds(ref.rcnf_seed_bits(derived), 150):
        ops.append(sample_op(f"rcnf-derived64-{s:x}", lambda s=s: rcnf_prg.sample(derived, s),
                             lambda s=s: ref.rcnf_sample(derived, s)))
    for params, count, label in ((rect_desk, 600, "desk"), (rect_derived, 400, "derived")):
        for s in seeds(params.seed_bits, count):
            ops.append(sample_op(f"rect-{label}-{s:x}",
                                 lambda s=s, p=params: cr_prg.sample_cr(p, s),
                                 lambda s=s, p=params: ref.cr_sample(p, s)))
    for s in seeds(hsg_bits, 600):
        ops.append(sample_op(f"hsg{hsg_n}-{s:x}", lambda s=s: bp3.hsg_sample(hsg_n, HIT_EPS, s),
                             lambda s=s: ref.hsg_sample(hsg_n, hsg_inner, s)))

    def run_stat():
        gen = harness.rcnf_generator(stat_params)
        return harness.exhaustive_advantage(gen, stat_formula, name="stat16", limit_bits=16,
                                            rng_seed=stat_rng_seed)

    def check_stat(rep):
        if (rep.mode, rep.samples) != ("statistical", 16384):
            return f"statistical estimate ran as {rep.mode} with {rep.samples} samples"
        half = math.sqrt(math.log(2 / (1 - rep.confidence)) / (2 * rep.samples))
        if rep.confidence != 0.99 or abs(rep.ci_half_width - half) > 1e-12:
            return "the reported interval is not the 99% Hoeffding interval"
        exact = harness.rcnf_structured_advantage(stat_params, stat_formula).gen_e
        if abs(float(rep.gen_e - exact)) > rep.ci_half_width:
            return f"statistical estimate {float(rep.gen_e)} misses exact {float(exact)}"
        return _advantage_problems(rep, stat_formula, stat_params, exhaustive=False)

    ops.append(Op("statistical-estimate", run_stat, check_stat, _report_key))
    return Workload("sample", ops, {
        "per-seed outputs": {"rcnf desk": 300, "rcnf derived-64": 150, "rect desk 8x8": 600,
                             "rect derived 8x8": 400, f"hsg n={hsg_n}": 600},
        "statistical estimate": "16384 samples of the n=16 one-round generator",
    }, degrees)
