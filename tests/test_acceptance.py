"""The nine acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure); tolerances are pinned here, not configurable.  Everything
asserted is computed in exact rational arithmetic unless the criterion
itself states a float tolerance.
"""

import os
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from derand import bp3, cr_prg, rcnf_prg
from derand.harness import (check_approx, check_models, check_sympoly, cr_generator,
                            desk_advantage_sweep, exhaustive_advantage, hsg_hit_stats,
                            random_rect, width3_corpus, write_csv)
from derand.smallbias import BiasedSpaceSpec, exact_bias, generate_biased, outputs_all_seeds
from derand.signs import pack_block, pack_blocks

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return ok


def test_criterion_1_small_bias_soundness():
    t0 = time.monotonic()
    rng = random.Random(101)
    cases = [(rng.randint(1, 14), rng.randint(2, 8)) for _ in range(18)]
    cases += [(16, 10), (20, 12)]  # up to the stated limits n<=20, 2k<=24
    ok = True
    for n, k in cases:
        spec = BiasedSpaceSpec.with_degree(n, k)
        bias, _ = exact_bias(spec)
        if bias > spec.bias_bound:
            ok = False
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    assert _verdict(1, "small-bias soundness", ok,
                    f"{len(cases)} specs in {elapsed:.1f}s"), \
        "a measured bias exceeded (n-1)/2^k or the sweep overran 60s"


def test_criterion_2_symmetric_polynomial_kernel():
    res = check_sympoly(seed=11)
    assert _verdict(2, "symmetric-polynomial kernel", res["pass"], res["detail"]), res


def test_criterion_3_xor_lemma_composition():
    res = check_approx(seed=17)
    assert _verdict(3, "sandwich composition", res["pass"], res["detail"]), res


def test_criterion_4_exact_analytics():
    res = check_models(seed=13)
    assert _verdict(4, "exact analytics vs brute force", res["pass"], res["detail"]), res


def test_criterion_5_rcnf_generator_fooling():
    t0 = time.monotonic()
    params = rcnf_prg.desk_preset()
    assert params.seed_bits <= 26
    reports = desk_advantage_sweep()
    budget = min(Fraction(1), params.bias_budget())
    worst = max(reports, key=lambda r: r.advantage)
    ok = all(r.advantage <= budget for r in reports)
    ok = ok and all(r.advantage <= Fraction(1, 10) for r in reports)
    elapsed = time.monotonic() - t0
    assert _verdict(5, "restriction generator fooling", ok,
                    f"max advantage {float(worst.advantage):.4f} on "
                    f"{worst.instance}, {len(reports)} landmarks, {elapsed:.0f}s"), \
        "an exhaustive landmark advantage exceeded the budget"


def test_criterion_6_cr_sampler():
    params = cr_prg.desk_cr_preset()
    rng = random.Random(106)
    # the first rectangle spans all m blocks, so its every-seed sum of
    # the left side is the generator's exact acceptance
    rects = [random_rect(rng, params.m, 8)]
    rects += [random_rect(rng, rng.randint(1, 8), 8) for _ in range(19)]
    inner_spec, direct_spec = params.stage_specs
    inner_out = outputs_all_seeds(inner_spec)
    (rows, entry_w), (_one, dw) = params.stage_shapes
    direct_blocks = pack_blocks(outputs_all_seeds(direct_spec).reshape(-1, params.m, dw))
    ok = True
    for rect in rects:
        hits = 0
        for inner_seed in range(1 << inner_spec.seed_bits):
            matrix = cr_prg.pack_matrix(inner_out[inner_seed, : rows * rect.m * entry_w],
                                        rows, rect.m, entry_w)
            restricted = cr_prg.restrict_rect(rect, matrix)
            left = np.ones(direct_blocks.shape[0], dtype=bool)
            right = np.ones(direct_blocks.shape[0], dtype=bool)
            for i in range(rect.m):
                left &= rect.accepts_at(i, matrix[direct_blocks[:, i], i])
                right &= restricted.accepts_at(i, direct_blocks[:, i])
            ok &= bool((left == right).all())
            hits += int(left.sum())
        if rect is rects[0]:
            oracle = exhaustive_advantage(cr_generator(params), rect)
            ok &= Fraction(hits, 1 << params.seed_bits) == oracle.gen_e
    # bias function equals enumeration at v <= 4
    for _ in range(10):
        rect = random_rect(rng, 3, 4)
        spec = BiasedSpaceSpec.with_degree((1 << 3) * 3 * 4, 5)
        signs = generate_biased(spec, rng.randrange(1 << spec.seed_bits)).values
        matrix = cr_prg.pack_matrix(signs, 8, 3, 4)
        value = cr_prg.bias_function_cr(rect, matrix)
        restricted = cr_prg.restrict_rect(rect, matrix)
        total = 0
        for y in product((-1, 1), repeat=9):
            good = 1
            for i in range(3):
                good &= restricted.coordinate_accepts(i, pack_block(y[3 * i:3 * i + 3]))
            total += good
        if value != Fraction(total, 512):
            ok = False
    # the 8x8 advantage is a finding, not a bound: 8x8 rectangles above
    # 1/10 exist at this preset
    assert _verdict(6, "rectangle sampler identities", ok,
                    f"20 rectangles x full seed space, 8x8 advantage "
                    f"{float(oracle.advantage):.4f}"), \
        "a composition identity, the exact acceptance or a bias-function enumeration failed"


def test_criterion_7_reduction_chain():
    corpus = width3_corpus(count=100, n_max=14, min_expectation=Fraction(1, 4))
    ok = True
    detail = ""
    for name, prog in corpus:
        cert = bp3.full_reduce(prog, Fraction(1, 4))
        if cert.formula_expectation <= 0 or not cert.verify_subset(prog):
            ok, detail = False, f"certificate failure on {name}"
            break
        stage1 = bp3.sudden_death_reduce(prog, Fraction(1, 4))
        g = stage1.program
        counts = bp3.bad_visit_counts(g)
        total = 1 << g.n
        for t in range(1, int(counts.max()) + 1):
            if Fraction(int((counts >= t).sum()), total) > Fraction(2, 1 << t):
                ok, detail = False, f"tail bound failure on {name}"
                break
        acc = g.eval_all()
        p = g.exact_expectation()
        if acc.any():
            ebad = Fraction(int(counts[acc].sum()), int(acc.sum()))
            if not bp3.pow2_leq(ebad / 2, 2 / p):
                ok, detail = False, f"conditional bad bound failure on {name}"
        if not ok:
            break
    assert _verdict(7, "width-3 reduction chain", ok,
                    detail or "100 certificates verified exhaustively"), detail


def test_criterion_8_hsg_hitting():
    corpus = width3_corpus(count=100, n_max=14, min_expectation=Fraction(1, 4))
    eps = Fraction(1, 4)
    stats = hsg_hit_stats(corpus, eps)
    ok = len(stats) == len(corpus)
    worst = min(stats, key=lambda s: s.hit_fraction)
    ok = ok and worst.hit_fraction > 0
    # the achieved density must trivially clear one seed's weight, and is
    # reported against the (eps/n)^c scale for the implemented exponent
    ok = ok and all(s.hit_fraction > Fraction(1, 1 << s.seed_bits) for s in stats)
    c_scale = (eps / 14) ** 2
    above_scale = sum(1 for s in stats if s.hit_fraction >= c_scale)
    assert _verdict(8, "width-3 hitting", ok,
                    f"min hit fraction {float(worst.hit_fraction):.4f} "
                    f"({worst.instance}); {above_scale}/{len(stats)} above (eps/n)^2"), \
        "some program was missed by the hitting sweep"


def test_criterion_9_determinism(tmp_path):
    ok = True
    detail = []
    # golden parameter records and generator outputs reproduce bit-exactly
    import json

    derived = json.dumps(rcnf_prg.derive_params(64, Fraction(1, 16)).to_json(),
                         indent=1, sort_keys=True) + "\n"
    with open(os.path.join(GOLDEN, "rcnf_derived_64.json"), encoding="ascii") as fh:
        if fh.read() != derived:
            ok = False
            detail.append("derived params drifted")
    params = rcnf_prg.desk_preset()
    from derand.signs import parse_seed_hex
    lines = []
    for seed_hex in ("00fab102", "04234501", "ffffff03"):
        out = rcnf_prg.sample(params, parse_seed_hex(seed_hex, params.seed_bits))
        lines.append(seed_hex + " " + "".join("+" if v == 1 else "-" for v in out.values))
    with open(os.path.join(GOLDEN, "rcnf_desk_samples.txt"), encoding="ascii") as fh:
        if fh.read() != "\n".join(lines) + "\n":
            ok = False
            detail.append("generator outputs drifted")
    # CSV/SVG reports identical across runs and to the frozen full-sweep
    # goldens
    from derand.harness import render_report_svg
    runs = []
    for run in (1, 2):
        reports = desk_advantage_sweep()
        csv_path = tmp_path / f"run{run}.csv"
        svg_path = tmp_path / f"run{run}.svg"
        write_csv(reports, str(csv_path))
        svg_path.write_text(render_report_svg(reports))
        runs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    if runs[0] != runs[1]:
        ok = False
        detail.append("reports differ across runs")
    with open(os.path.join(GOLDEN, "desk_sweep.csv"), "rb") as fh:
        if fh.read() != runs[0][0]:
            ok = False
            detail.append("desk sweep CSV drifted from the golden")
    with open(os.path.join(GOLDEN, "desk_sweep.svg"), "rb") as fh:
        if fh.read() != runs[0][1]:
            ok = False
            detail.append("desk sweep SVG drifted from the golden")
    # corpus files byte-identical across generations
    from derand.harness import corpus_generate
    d1 = corpus_generate(str(tmp_path / "c1"), count=4, seed=9)
    d2 = corpus_generate(str(tmp_path / "c2"), count=4, seed=9)
    for p1, p2 in zip(d1, d2):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            if f1.read() != f2.read():
                ok = False
                detail.append("corpus bytes differ")
                break
    assert _verdict(9, "determinism and goldens", ok,
                    "; ".join(detail) or "all byte-identical"), detail
