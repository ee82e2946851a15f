import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from derand import bp3, cr_prg, rcnf_prg
from derand.harness import (STATISTICAL_SAMPLES, AdvantageReport, CorpusDescriptor,
                            check_approx, check_models, check_smallbias, check_sympoly,
                            constant_generator, corpus_generate, cr_generator,
                            exhaustive_advantage, hsg_generator, hsg_hit_stats,
                            landmark_formulas, random_read_once_cnf,
                            rcnf_generator, rcnf_output_histogram,
                            rcnf_structured_advantage, render_scatter_svg,
                            report, uniform_generator, width3_corpus, write_csv)
from derand.models import Literal, ReadOnceCnf, Robp, and_chain_program
from derand.signs import SignVector


def test_uniform_generator_has_zero_advantage():
    rng = random.Random(71)
    f = random_read_once_cnf(rng, 10)
    rep = exhaustive_advantage(uniform_generator(10), f)
    assert rep.advantage == 0 and rep.mode == "exhaustive"


def test_constant_generator_advantage():
    f = ReadOnceCnf(4, ((Literal(0), Literal(1)),))
    point = SignVector((1, 1, -1, -1))
    rep = exhaustive_advantage(constant_generator(point), f)
    assert rep.gen_e == f.evaluate(point.values)
    assert rep.advantage == abs(Fraction(f.evaluate(point.values)) - f.exact_expectation())


def test_statistical_fallback_over_limit():
    params = rcnf_prg.desk_preset()
    f = landmark_formulas(64)[0][1]
    rep = exhaustive_advantage(rcnf_generator(params), f, limit_bits=10)
    assert rep.mode == "statistical"


def test_worker_chunking_never_changes_results():
    params = rcnf_prg.explicit_params(16, Fraction(1, 8), k_subset=2, k_z=2, k_y=3)
    rng = random.Random(72)
    f = random_read_once_cnf(rng, 16)
    base = rcnf_structured_advantage(params, f, name="x", workers=1)
    for workers in (2, 3, 7):
        other = rcnf_structured_advantage(params, f, name="x", workers=workers)
        assert other.gen_e == base.gen_e
    naive = exhaustive_advantage(rcnf_generator(params), f, workers=5)
    assert naive.gen_e == base.gen_e


def test_histogram_matches_direct_enumeration():
    params = rcnf_prg.explicit_params(8, Fraction(1, 4), k_subset=2, k_z=2, k_y=3)
    hist = rcnf_output_histogram(params)
    ref = np.zeros(1 << 8, dtype=np.int64)
    for seed in range(1 << params.seed_bits):
        out = rcnf_prg.sample(params, seed)
        ref[sum((1 << i) for i, v in enumerate(out.values) if v == 1)] += 1
    assert (hist == ref).all()


def test_hit_stats_basics():
    corpus = [("and3", and_chain_program(3))]
    stats = hsg_hit_stats(corpus, Fraction(1, 16))
    assert stats and stats[0].hit_fraction > 0
    # instances under the threshold are excluded by definition
    stats_high = hsg_hit_stats(corpus, Fraction(1, 2))
    assert not stats_high


def test_corpus_generation_is_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    desc = CorpusDescriptor(count=6, n=16, seed=5)
    paths1 = corpus_generate(desc, str(d1))
    paths2 = corpus_generate(desc, str(d2))
    assert [os.path.basename(p) for p in paths1] == [os.path.basename(p) for p in paths2]
    for p1, p2 in zip(paths1, paths2):
        with open(p1, "rb") as fh1, open(p2, "rb") as fh2:
            assert fh1.read() == fh2.read()


def test_csv_and_svg_reports(tmp_path):
    reports = [AdvantageReport(instance="x", klass="rcnf", n=4, m=2, w=2,
                               eps=Fraction(1, 4), seed_bits=8,
                               exact_e=Fraction(1, 2), gen_e=Fraction(5, 8),
                               advantage=Fraction(1, 8), mode="exhaustive",
                               samples=256, time_ms=123)]
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    report(reports, str(csv_path), str(svg_path))
    text = csv_path.read_text()
    assert text.splitlines()[0].startswith("class,instance")
    assert text.splitlines()[1].endswith(",0")  # time zeroed by default
    assert svg_path.read_text().startswith("<svg")
    # empty report still writes the header and an axes-only plot
    empty_csv = tmp_path / "empty.csv"
    write_csv([], str(empty_csv))
    assert empty_csv.read_text().strip().count("\n") == 0
    assert render_scatter_svg([], "x", "y").startswith("<svg")


def test_property_suites_pass():
    assert check_smallbias(spec_count=8, big_pairs=())["pass"]
    assert check_sympoly(trials=50)["pass"]
    assert check_models(per_class=10)["pass"]
    assert check_approx(instances=10)["pass"]


def test_width3_corpus_shape():
    corpus = width3_corpus(count=20)
    assert len(corpus) == 20
    assert all(p.exact_expectation() >= Fraction(1, 4) for _n, p in corpus)
    # deterministic
    again = width3_corpus(count=20)
    assert [(n, p) for n, p in corpus] == [(n, p) for n, p in again]


def test_cli_reproducible_outputs(tmp_path):
    env = dict(os.environ)
    cmd = [sys.executable, "-m", "derand.cli", "gen", "rcnf", "--preset", "desk",
           "--seed", "01020302"]
    r1 = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
    assert r1.stdout == r2.stdout and r1.stdout.strip()

    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    svg1 = tmp_path / "r1.svg"
    svg2 = tmp_path / "r2.svg"
    for out, svg, workers in ((out1, svg1, "1"), (out2, svg2, "3")):
        subprocess.run([sys.executable, "-m", "derand.cli", "report",
                        "--csv", str(out), "--svg", str(svg),
                        "--workers", workers],
                       capture_output=True, text=True, env=env, check=True)
    assert out1.read_bytes() == out2.read_bytes()
    assert svg1.read_bytes() == svg2.read_bytes()


def test_cli_check_exit_code():
    proc = subprocess.run([sys.executable, "-m", "derand.cli", "check", "smallbias"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert '"pass": true' in proc.stdout


def test_cli_advantage_refuses_unenumerable_seed_space():
    # one-round derived parameters with 54-bit z and y seed spaces
    proc = subprocess.run([sys.executable, "-m", "derand.cli", "advantage",
                           "--preset", "derived", "--n", "4", "--eps", "1/4"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 2
    assert "too large to enumerate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_statistical_interval_contains_exhaustive_value():
    # spot check: run the same instance both ways; the declared interval
    # around the sampled mean must contain the exhaustive mean
    params = rcnf_prg.explicit_params(16, Fraction(1, 8), k_subset=2, k_z=2, k_y=4)
    rng = random.Random(73)
    f = random_read_once_cnf(rng, 16)
    full = exhaustive_advantage(rcnf_generator(params), f)
    sampled = exhaustive_advantage(rcnf_generator(params), f, limit_bits=10)
    assert sampled.mode == "statistical" and full.mode == "exhaustive"
    assert abs(float(sampled.gen_e) - float(full.gen_e)) <= sampled.ci_half_width


def test_statistical_batches_equal_per_seed_average():
    # the batched walk draws the same seeds in the same order as a
    # one-at-a-time average of rcnf_prg.sample over random.Random(rng_seed)
    params = rcnf_prg.explicit_params(16, Fraction(1, 4), k_subset=2, k_z=3, k_y=6)
    f = random_read_once_cnf(random.Random(74), 16)
    rep = exhaustive_advantage(rcnf_generator(params), f, limit_bits=16, rng_seed=75)
    rng = random.Random(75)
    hits = sum(f.evaluate(rcnf_prg.sample(params, rng.getrandbits(params.seed_bits)).values)
               for _ in range(STATISTICAL_SAMPLES))
    assert rep.mode == "statistical" and rep.samples == STATISTICAL_SAMPLES
    assert rep.gen_e == Fraction(hits, STATISTICAL_SAMPLES)


def test_exhaustive_walk_over_several_batches():
    # 2^13 seeds span four batches; the uniform generator is unbiased
    f = random_read_once_cnf(random.Random(76), 13)
    rep = exhaustive_advantage(uniform_generator(13), f)
    assert rep.samples == 1 << 13 and rep.gen_e == f.exact_expectation()


def test_generator_batches_match_per_seed_outputs():
    params = cr_prg.desk_cr_preset()
    rng = random.Random(77)
    seeds = [rng.getrandbits(params.seed_bits) for _ in range(20)]
    assert [tuple(r) for r in cr_generator(params).sample_batch(seeds)] == \
        [cr_prg.sample_cr(params, s).values for s in seeds]
    hsg = hsg_generator(9, Fraction(1, 4))
    seeds = [rng.getrandbits(hsg.seed_bits) for _ in range(20)]
    assert [tuple(r) for r in hsg.sample_batch(seeds)] == \
        [bp3.hsg_sample(9, Fraction(1, 4), s).values for s in seeds]
    assert [tuple(r) for r in uniform_generator(5).sample_batch([0, 19])] == \
        [SignVector.from_int(0, 5).values, SignVector.from_int(19, 5).values]


def test_all_accepting_program_hit_fraction_one():
    always = Robp(n=4, d=3,
                  next0=tuple((0, 0, 2) for _ in range(4)),
                  next1=tuple((0, 0, 2) for _ in range(4)))
    stats = hsg_hit_stats([("always", always)], Fraction(1, 2))
    assert stats[0].hit_fraction == 1


def test_experiment_spec_modes():
    from derand.harness import ExperimentSpec, run_experiment
    with pytest.raises(ValueError):
        ExperimentSpec(target_class="rcnf", generator="derived")
    spec = ExperimentSpec(target_class="rcnf", generator="desk",
                          corpus_count=2, corpus_n=20, corpus_seed=3)
    reports = run_experiment(spec)
    assert len(reports) == 2
    assert all(r.mode == "exhaustive" for r in reports)


def test_hit_stats_refuses_empty_corpus():
    with pytest.raises(ValueError):
        hsg_hit_stats([], Fraction(1, 4))
