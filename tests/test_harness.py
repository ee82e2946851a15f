import functools
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from derand import bp3, cli, cr_prg, formats, harness, rcnf_prg
from derand.harness import (STATISTICAL_SAMPLES, AdvantageReport, GeneratorHandle,
                            advantage_sweep, check_models, corpus_generate,
                            cr_generator, exhaustive_advantage, hsg_hit_stats,
                            landmark_formulas, random_program, random_read_once_cnf, random_width3,
                            random_xorcnf, rcnf_generator, rcnf_output_histogram,
                            rcnf_structured_advantage, render_report_svg, report,
                            round_tables, width3_corpus, write_csv)
from derand.models import (CombRect, Literal, ReadOnceCnf, Robp, Term, XorCnf,
                           and_chain_program)
from derand.signs import all_sign_rows
from derand.smallbias import powering_signs, subset_members


def _uniform_generator(n: int) -> GeneratorHandle:
    """Seed m maps to the point whose coordinate i is +1 iff bit i of m is set."""
    rows = all_sign_rows(n)
    return GeneratorHandle(name=f"uniform{n}", seed_bits=n,
                           sample_batch=lambda seeds: rows[list(seeds)])


def _constant_generator(signs) -> GeneratorHandle:
    row = np.array(signs, dtype=np.int8)
    return GeneratorHandle(name="constant", seed_bits=0,
                           sample_batch=lambda seeds: np.tile(row, (len(seeds), 1)))


def test_uniform_generator_has_zero_advantage():
    rng = random.Random(71)
    f = random_read_once_cnf(rng, 10)
    rep = exhaustive_advantage(_uniform_generator(10), f)
    assert rep.advantage == 0 and rep.mode == "exhaustive"


def test_constant_generator_advantage():
    f = ReadOnceCnf(4, ((Literal(0), Literal(1)),))
    point = (1, 1, -1, -1)
    rep = exhaustive_advantage(_constant_generator(point), f)
    assert rep.gen_e == f.evaluate(point)
    assert rep.advantage == abs(Fraction(f.evaluate(point)) - f.exact_expectation())


def test_statistical_fallback_over_limit():
    params = rcnf_prg.desk_preset()
    f = landmark_formulas(64)[0][1]
    rep = exhaustive_advantage(rcnf_generator(params), f, limit_bits=10)
    assert rep.mode == "statistical"


def _mixed_formula(rng: random.Random, n: int):
    """A read-once or parity CNF on a random subset of [n]: widths 1..4,
    random negations, OR and parity terms with both targets."""
    vars_ = rng.sample(range(n), rng.randint(1, n))
    groups = []
    while vars_:
        width = rng.randint(1, 4)
        groups.append([Literal(v, rng.random() < 0.5) for v in vars_[:width]])
        vars_ = vars_[width:]
    if rng.random() < 0.3:
        return ReadOnceCnf(n, tuple(tuple(g) for g in groups))
    return XorCnf(n, tuple(Term(rng.choice(("or", "xor")), tuple(g), rng.randrange(2))
                           for g in groups))


def test_structured_walk_matches_naive_walk():
    # tiny6 has 16 y-seeds, fewer than one word; the others have 4 words.
    # With one bit per index about half the variables join J, so terms
    # fall inside J, outside it and across it.
    rng = random.Random(72)
    kinds = set()
    for params in (
        rcnf_prg.explicit_params(6, Fraction(1, 4), k_subset=2, k_z=2, k_y=2, bits_per_index=1),
        rcnf_prg.explicit_params(8, Fraction(1, 4), k_subset=2, k_z=2, k_y=4),
        rcnf_prg.explicit_params(8, Fraction(1, 4), k_subset=2, k_z=2, k_y=4, bits_per_index=1),
    ):
        tables = round_tables(params)
        rows = rcnf_prg.sample_batch(params, range(1 << params.seed_bits))
        # the naive walk, its generator outputs expanded once
        naive = GeneratorHandle("rows", params.seed_bits,
                                lambda seeds, rows=rows: rows[np.array(seeds, dtype=np.int64)])
        formulas = [_mixed_formula(rng, params.n) for _ in range(66)]
        formulas += [ReadOnceCnf.constant_zero(params.n), XorCnf.constant_zero(params.n)]
        for f in formulas:
            fast = rcnf_structured_advantage(params, f)
            assert fast.gen_e == exhaustive_advantage(naive, f).gen_e, f
            assert fast.samples == 1 << params.seed_bits
            for jm in map(int, tables.j):
                for term in f.terms:
                    inside = sum((jm >> lit.index) & 1 for lit in term.literals)
                    kinds.add("y" if not inside else
                              "z" if inside == len(term.literals) else "split")
    assert kinds == {"y", "z", "split"}


def _seed_major_round_tables(params):
    """round_tables built as before the position-major kernel: seed-major
    sign rows of the batch path, z transposed, y packed by a transposed
    packbits, J masks summed from membership rows."""
    def pack(bits):  # (seeds, n) bool -> (n, words)
        packed = np.packbits(bits, axis=0, bitorder="little")
        packed = np.pad(packed, ((0, -len(packed) % 8), (0, 0)))
        return np.ascontiguousarray(packed.T).view("<u8").astype(np.uint64)

    def rows(spec):
        return powering_signs(spec, range(1 << spec.seed_bits)) == 1
    ytrue = rows(params.y_spec)
    sub = params.subset_spec
    member = subset_members(sub, range(1 << sub.seed_bits))
    return {"z": np.ascontiguousarray(rows(params.z_spec).T), "y": pack(ytrue),
            "y_valid": pack(np.ones_like(ytrue[:, :1]))[0],
            "j": (member.astype(np.int64) << np.arange(sub.n, dtype=np.int64)).sum(axis=1)}


def test_round_tables_match_seed_major_construction():
    # tiny6 has 16 y-seeds, under one word; desk and the hsg presets more
    presets = [rcnf_prg.explicit_params(6, Fraction(1, 4), k_subset=2, k_z=2, k_y=2,
                                        bits_per_index=1), rcnf_prg.desk_preset()]
    presets += [rcnf_prg.hsg_inner_preset(n) for n in range(4, 15)]
    for params in presets:
        tables = round_tables(params)
        for field, want in _seed_major_round_tables(params).items():
            got = getattr(tables, field)
            assert got.dtype == want.dtype and got.shape == want.shape, (params.preset, field)
            assert (got == want).all(), (params.preset, field)


def test_round_tables_expand_once_per_record():
    # the landmark sweep and four more walks over a fresh but equal
    # desk record share one expansion
    rng = random.Random(78)
    round_tables.cache_clear()
    advantage_sweep(rcnf_prg.desk_preset(), landmark_formulas(64))
    for f in [random_read_once_cnf(rng, 64) for _ in range(2)] + \
             [random_xorcnf(rng, 64) for _ in range(2)]:
        rcnf_structured_advantage(rcnf_prg.desk_preset(), f)
    info = round_tables.cache_info()
    assert (info.misses, info.hits) == (1, 12 + 4)
    # a new record evicts the old one, and asking again expands again
    tiny = rcnf_prg.explicit_params(8, Fraction(1, 4), k_subset=2, k_z=2, k_y=3)
    round_tables(tiny)
    round_tables(rcnf_prg.desk_preset())
    assert round_tables.cache_info().misses == 3


def test_round_tables_are_read_only():
    tables = round_tables(rcnf_prg.desk_preset())
    for array in (tables.z, tables.y, tables.y_valid, tables.j):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_histogram_matches_direct_enumeration():
    params = rcnf_prg.explicit_params(8, Fraction(1, 4), k_subset=2, k_z=2, k_y=3)
    hist = rcnf_output_histogram(params)
    ref = np.zeros(1 << 8, dtype=np.int64)
    for seed in range(1 << params.seed_bits):
        out = rcnf_prg.sample(params, seed)
        ref[sum((1 << i) for i, v in enumerate(out.values) if v == 1)] += 1
    assert (hist == ref).all()
    # a bincount of every seed's output at other widths, index rates and
    # y-seed counts (16, 64 and 256: within one word and across words)
    for n, bits_per_index, k_y in ((2, 1, 2), (5, 5, 3), (11, 1, 4), (14, 5, 4)):
        params = rcnf_prg.explicit_params(n, Fraction(1, 4), k_subset=2, k_z=2, k_y=k_y,
                                          bits_per_index=bits_per_index)
        rows = rcnf_prg.sample_batch(params, range(1 << params.seed_bits))
        packed = ((rows == 1) << np.arange(n)).sum(axis=1)
        assert (rcnf_output_histogram(params) == np.bincount(packed, minlength=1 << n)).all()


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
    paths1 = corpus_generate(str(d1), count=6, n=16, seed=5)
    paths2 = corpus_generate(str(d2), count=6, n=16, seed=5)
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
    assert render_report_svg([]).startswith("<svg")


def test_width3_corpus_shape():
    corpus = width3_corpus(count=20)
    assert len(corpus) == 20
    assert all(p.exact_expectation() >= Fraction(1, 4) for _n, p in corpus)
    # deterministic
    again = width3_corpus(count=20)
    assert [(n, p) for n, p in corpus] == [(n, p) for n, p in again]


def test_random_program_refuses_an_unreachable_floor():
    with pytest.raises(ValueError, match="expectation floor 2"):
        random_program(random.Random(0), 2, 3, Fraction(2))


def test_width3_corpus_keeps_landmarks_within_n_max():
    # the default n_max keeps every landmark dense enough (and-chain-3 is
    # not); a small one drops the landmarks longer than it
    assert [name for name, _p in width3_corpus(count=3)] == \
        ["parity-6", "bad-heavy-8", "rand-w3-0"]
    small = width3_corpus(count=6, n_max=5)
    assert all(p.n <= 5 for _name, p in small)
    assert not [name for name, _p in small if not name.startswith("rand-w3-")]


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
    for out, svg in ((out1, svg1), (out2, svg2)):
        subprocess.run([sys.executable, "-m", "derand.cli", "report",
                        "--csv", str(out), "--svg", str(svg)],
                       capture_output=True, text=True, env=env, check=True)
    assert out1.read_bytes() == out2.read_bytes()
    assert svg1.read_bytes() == svg2.read_bytes()


def test_cli_check_exit_code():
    proc = subprocess.run([sys.executable, "-m", "derand.cli", "check", "smallbias"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert '"pass": true' in proc.stdout


def test_cli_check_runs_each_suite_at_its_own_seed(capsys):
    assert cli.main(["check", "all"]) == 0
    assert [(r["name"], r["seed"]) for r in json.loads(capsys.readouterr().out)] == \
        [("smallbias", 7), ("sympoly", 11), ("models", 13), ("approx", 17)]
    assert cli.main(["check", "models", "--corpus-seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out) == [check_models(seed=5)]


def test_cli_advantage_refuses_unenumerable_seed_space():
    # one-round derived parameters with 54-bit z and y seed spaces
    proc = subprocess.run([sys.executable, "-m", "derand.cli", "advantage",
                           "--preset", "derived", "--n", "4", "--eps", "1/4"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 2
    assert "too large to enumerate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_gen_hsg_refuses_eps(capsys):
    assert cli.main(["gen", "hsg", "--n", "14", "--seed", "3a7f0001"]) == 0
    assert capsys.readouterr().out == "-----------++-\n"
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "hsg", "--n", "14", "--seed", "3a7f0001", "--eps", "1/4"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --eps 1/4\n")


def test_cli_hit_corpus_with_wide_program(tmp_path, capsys):
    # x0 = 0 or x1 = 1, carried in slots 0 and `high`, every other slot
    # dead: at d = 130 it is hit exactly as its width-3 relabeling (high = 1)
    def program(d, high):
        stay = tuple(range(d))
        return Robp(n=3, d=d,
                    next0=((0,) * d, stay, stay),
                    next1=((high,) * d, (0,) * d, stay))

    (tmp_path / "wide.txt").write_text(formats.dumps(program(130, 129)))
    assert cli.main(["hit", "--corpus", str(tmp_path), "--eps", "1/16"]) == 0
    [narrow] = hsg_hit_stats([("narrow", program(3, 1))], Fraction(1, 16))
    assert json.loads(capsys.readouterr().out) == {
        "programs": 1, "misses": 0, "minHitFraction": str(narrow.hit_fraction),
        "minInstance": "wide.txt"}


@pytest.mark.parametrize("argv, reason", [
    pytest.param(["advantage", "--formula", "{rect}"], "read-once or parity formula, not CombRect",
                 id="advantage-rect"),
    pytest.param(["advantage", "--formula", "{robp}"], "read-once or parity formula, not Robp",
                 id="advantage-robp"),
    pytest.param(["reduce", "--in", "{rcnf}"], "expects width-3 programs", id="reduce-rcnf"),
    pytest.param(["reduce", "--in", "{rect}"], "expects width-3 programs", id="reduce-rect"),
    pytest.param(["gen", "hsg", "--n", "0"], "n must be positive", id="gen-hsg-n0"),
    pytest.param(["gen", "hsg", "--n", "0", "--dump-params"], "n must be positive",
                 id="gen-hsg-n0-dump"),
    pytest.param(["eval", "{xorcnf}", "+-x?z"], "string of '+' and '-' signs", id="eval-chars"),
    pytest.param(["hit", "--n", "3"], "n_max must be at least 4", id="hit-n3"),
    pytest.param(["gen", "rcnf", "--preset", "derived", "--constants", "{list}", "--dump-params"],
                 "must be a JSON object", id="constants-list"),
    pytest.param(["gen", "rcnf", "--preset", "derived", "--constants", "{misspelled}"],
                 "unknown generator constants ['gama']", id="constants-misspelled"),
    pytest.param(["advantage", "--preset", "derived", "--constants", "{fractional}"],
                 "constant c2 must be an integer", id="constants-fractional"),
    pytest.param(["gen", "rcnf", "--constants", "{list}", "--dump-params"],
                 "--constants: read only under --preset derived", id="constants-gen-rcnf-desk"),
    pytest.param(["advantage", "--constants", "{list}"],
                 "--constants: read only under --preset derived",
                 id="constants-advantage-desk"),
    pytest.param(["gen", "rect", "--preset", "derived", "--constants", "{list}"],
                 "unrecognized arguments: --constants", id="constants-gen-rect"),
    pytest.param(["gen", "hsg", "--constants", "{list}", "--dump-params"],
                 "unrecognized arguments: --constants", id="constants-gen-hsg"),
    pytest.param(["gen", "rcnf", "--m", "3", "--seed", "00fab102"],
                 "unrecognized arguments: --m 3", id="gen-rcnf-m"),
    pytest.param(["gen", "rcnf", "--n", "8", "--seed", "00fab102"],
                 "--n: read only under --preset derived", id="gen-rcnf-n-desk"),
    pytest.param(["gen", "rect", "--n", "8", "--seed", "0000"],
                 "unrecognized arguments: --n 8", id="gen-rect-n"),
    pytest.param(["gen", "rect", "--delta", "1/2", "--seed", "0000"],
                 "--delta: read only under --preset derived", id="gen-rect-delta-desk"),
    pytest.param(["gen", "hsg", "--preset", "derived"],
                 "unrecognized arguments: --preset derived", id="gen-hsg-preset"),
    pytest.param(["gen", "rcnf"], "gen rcnf needs --seed: 8 hex digits for its 26 seed bits",
                 id="gen-rcnf-no-seed"),
    pytest.param(["gen", "rect", "--seed", "0000", "--dump-params"],
                 "argument --dump-params: not allowed with argument --seed",
                 id="gen-seed-and-dump"),
    pytest.param(["gen", "rect", "--m", "0", "--seed", "00"], "need m, w >= 1", id="gen-rect-m0"),
    pytest.param(["gen", "rect", "--w", "0", "--dump-params"], "need m, w >= 1",
                 id="gen-rect-w0"),
    pytest.param(["advantage", "--eps", "1/2"], "--eps: read only under --preset derived",
                 id="advantage-eps-desk"),
    pytest.param(["advantage", "--n", "8", "--eps", "1/2"],
                 "--n, --eps: read only under --preset derived", id="advantage-n-eps-desk"),
    pytest.param(["advantage", "--timing"], "--timing keeps times in the CSV: it needs --csv",
                 id="advantage-timing"),
    pytest.param(["hit", "--corpus", "{dir}", "--count", "3"],
                 "--count: read only for the generated corpus",
                 id="hit-corpus-count"),
    pytest.param(["hit", "--count", "-1"], "--count must be at least 1, not -1",
                 id="hit-count-negative"),
    pytest.param(["hit", "--count", "0"], "--count must be at least 1, not 0", id="hit-count0"),
    pytest.param(["hit", "--eps", "2"], "--eps must be in (0, 1], not 2", id="hit-eps2"),
    pytest.param(["hit", "--corpus", "{dir}", "--eps", "0"], "--eps must be in (0, 1], not 0",
                 id="hit-corpus-eps0"),
    pytest.param(["hit", "--corpus", "{dir}"],
                 "no program under {dir} accepts at least --eps 1/4 of its inputs",
                 id="hit-corpus-none-dense"),
    pytest.param(["hit", "--corpus", "{stray}"], "{stray}/stray.txt: line 0: empty input",
                 id="hit-corpus-stray-file"),
    pytest.param(["hit", "bp3"], "unrecognized arguments: bp3", id="hit-target"),
    pytest.param(["reduce", "--in", "{robp}", "--eps", "-1"], "--eps must be in (0, 1], not -1",
                 id="reduce-eps-negative"),
    pytest.param(["reduce", "--in", "{robp}", "--eps", "0"], "--eps must be in (0, 1], not 0",
                 id="reduce-eps0"),
    pytest.param(["reduce", "--in", "{n0}"],
                 "the reduction chain expects a program of at least one layer", id="reduce-n0"),
    pytest.param(["eval", "{d0}", "+"], "{d0}: line 1: a layer needs at least one slot, not d=0",
                 id="eval-d0"),
    pytest.param(["reduce", "bp3", "--in", "{robp}"], "unrecognized arguments: bp3",
                 id="reduce-target"),
    pytest.param(["corpus", "--out", "{dir}", "--max-width", "0"],
                 "--max-width must be at least 1, not 0", id="corpus-max-width0"),
    pytest.param(["corpus", "--out", "{dir}", "--n", "0"], "--n must be at least 1, not 0",
                 id="corpus-n0"),
    pytest.param(["corpus", "--out", "{dir}", "--count", "-3"],
                 "--count must be at least 0, not -3", id="corpus-count-negative"),
    pytest.param(["eval", "{json_no_n}", "++"], "rcnf object has no 'n' field",
                 id="json-rcnf-no-n"),
    pytest.param(["eval", "{json_tables}", "++"], "malformed rect object", id="json-rect-tables"),
    pytest.param(["advantage", "--formula", "{json_no_lits}"], "xorcnf object has no 'lits' field",
                 id="json-xorcnf-no-lits"),
    pytest.param(["eval", "{json_float_lit}", "++"], "field 'clauses' holds 1.5, not an integer",
                 id="json-rcnf-float-literal"),
    pytest.param(["eval", "{json_bool_lit}", "++"], "field 'clauses' holds true, not an integer",
                 id="json-rcnf-bool-literal"),
    pytest.param(["eval", "{json_float_m}", "+-"], "field 'm' holds 1.0, not an integer",
                 id="json-rect-float-m"),
    pytest.param(["eval", "{json_float_d}", "+"], "field 'd' holds 3.0, not an integer",
                 id="json-robp-float-d"),
    pytest.param(["eval", "{neg_w}", "+"],
                 "{neg_w}: line 1: block width w must be at least 0, not -1", id="rect-negative-w"),
])
def test_cli_refuses_bad_input(tmp_path, capsys, argv, reason):
    rng = random.Random(5)
    files = {"rect": CombRect(m=2, w=2, tables=(0b0110, 0b1110)),
             "robp": and_chain_program(4),
             "rcnf": random_read_once_cnf(rng, 5),
             "xorcnf": random_xorcnf(rng, 5)}
    paths = {"dir": tmp_path}
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(formats.dumps(obj))
    for name, text in (("list.json", "[1]"), ("misspelled.json", '{"gama": "1/8"}'),
                       ("fractional.json", '{"c2": 2.5}'), ("json_no_n.json", '{"type": "rcnf"}'),
                       ("json_tables.json", '{"type": "rect", "m": 1, "w": 2, "tables": [1]}'),
                       ("json_no_lits.json",
                        '{"type": "xorcnf", "n": 2, "terms": [{"kind": "or"}]}'),
                       ("json_float_lit.json", '{"type":"rcnf","n":2,"clauses":[[1.5]]}'),
                       ("json_bool_lit.json", '{"type":"rcnf","n":2,"clauses":[[true]]}'),
                       ("json_float_m.json", '{"type":"rect","m":1.0,"w":2,"tables":["f"]}'),
                       ("json_float_d.json",
                        '{"type":"robp","n":1,"d":3.0,"next0":[[0,0,0]],"next1":[[0,0,0]]}'),
                       ("neg_w.rect", "rect 1 -1\n"),
                       ("n0.robp", "robp 0 3\n"), ("d0.robp", "robp 1 0\n")):
        paths[name.split(".")[0]] = tmp_path / name
        (tmp_path / name).write_text(text)
    paths["stray"] = tmp_path / "stray"  # one program file and one empty .txt file
    paths["stray"].mkdir()
    (paths["stray"] / "robp.txt").write_text(formats.dumps(files["robp"]))
    (paths["stray"] / "stray.txt").write_text("")
    try:
        code = cli.main([arg.format(**paths) for arg in argv])
    except SystemExit as exc:  # argparse refuses an option the command does not declare
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error: " in err and reason.format(**paths) in err and "Traceback" not in err


WIDE_RECT_UNDER_MEMORY_CAP = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from derand import cli
sys.exit(cli.main(["eval", sys.argv[1], "+" * 40]))
"""


def test_wide_rect_loads_under_a_memory_cap(tmp_path):
    # a 43-byte file declaring 2^40 patterns per table: the table check must
    # not build a 2^(2^40) bound; the cap turns a regression into a failure
    # of the child, not of the host
    path = tmp_path / "wide.json"
    path.write_text('{"type":"rect","m":1,"w":40,"tables":["f"]}')
    proc = subprocess.run([sys.executable, "-c", WIDE_RECT_UNDER_MEMORY_CAP, str(path)],
                          capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every `derand ...` line of the README's CLI block, in order, in one
    # directory holding the files the lines name
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```")[1]
    argvs = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
             if line.startswith("derand ")]
    assert len(argvs) >= 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "formula.txt").write_text(formats.dumps(
        ReadOnceCnf(4, ((Literal(0), Literal(1, True)), (Literal(2), Literal(3))))))
    (tmp_path / "prog.robp").write_text(formats.dumps(harness.bad_heavy_program(8)))
    for argv in argvs:
        assert cli.main(argv) == 0, argv


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
    rep = exhaustive_advantage(_uniform_generator(13), f)
    assert rep.samples == 1 << 13 and rep.gen_e == f.exact_expectation()


def test_generator_batches_match_per_seed_outputs():
    params = cr_prg.desk_cr_preset()
    rng = random.Random(77)
    seeds = [rng.getrandbits(params.seed_bits) for _ in range(20)]
    assert [tuple(r) for r in cr_generator(params).sample_batch(seeds)] == \
        [cr_prg.sample_cr(params, s).values for s in seeds]
    assert [tuple(r) for r in _uniform_generator(5).sample_batch([0, 19])] == \
        [(-1, -1, -1, -1, -1), (1, 1, -1, -1, 1)]


def test_all_accepting_program_hit_fraction_one():
    always = Robp(n=4, d=3,
                  next0=tuple((0, 0, 2) for _ in range(4)),
                  next1=tuple((0, 0, 2) for _ in range(4)))
    stats = hsg_hit_stats([("always", always)], Fraction(1, 2))
    assert stats[0].hit_fraction == 1


def test_hit_stats_match_a_per_seed_walk(monkeypatch):
    # inner presets of 8 seed bits (at most 11 with the prefix) let every
    # hsg_sample seed be walked; n = 3, 5 and 6 wrap the prefix code past n
    @functools.lru_cache(maxsize=None)
    def tiny(n):
        return rcnf_prg.explicit_params(n, Fraction(1, 4), k_subset=1, k_z=1, k_y=2,
                                        bits_per_index=1)
    monkeypatch.setattr(rcnf_prg, "hsg_inner_preset", tiny)
    monkeypatch.setattr(bp3, "hsg_inner_preset", tiny)
    rng = random.Random(78)
    eps = Fraction(1, 8)
    corpus = [(f"w3-{n}-{i}", random_width3(rng, n, eps)) for n in (2, 3, 5, 6) for i in range(4)]
    stats = hsg_hit_stats(corpus, eps)
    assert [s.instance for s in stats] == [name for name, _prog in corpus]
    for st, (_name, prog) in zip(stats, corpus):
        bits = bp3.hsg_seed_bits(prog.n)
        assert bits <= 11
        hits = sum(prog.evaluate(bp3.hsg_sample(prog.n, eps, s).values) for s in range(1 << bits))
        assert (st.seed_bits, st.hit_fraction) == (bits, Fraction(hits, 1 << bits))


def test_advantage_sweep_reports_each_instance_in_order():
    params = rcnf_prg.desk_preset()
    rng = random.Random(3)
    instances = [("rcnf-0", random_read_once_cnf(rng, 20)), ("xorcnf-1", random_xorcnf(rng, 20)),
                 ("rcnf-2", random_read_once_cnf(rng, 20))]
    reports = advantage_sweep(params, instances)
    assert [(r.instance, r.klass) for r in reports] == \
        [("rcnf-0", "rcnf"), ("xorcnf-1", "xorcnf"), ("rcnf-2", "rcnf")]
    assert all(r.mode == "exhaustive" and r.samples == 1 << params.seed_bits for r in reports)
    assert [r.gen_e for r in reports] == \
        [rcnf_structured_advantage(params, f).gen_e for _name, f in instances]
    # the structured walk covers one round; derived parameters have more
    derived = rcnf_prg.derive_params(64, Fraction(1, 16))
    assert derived.rounds > 1
    with pytest.raises(ValueError):
        advantage_sweep(derived, instances)


def test_hit_stats_refuses_empty_corpus():
    with pytest.raises(ValueError):
        hsg_hit_stats([], Fraction(1, 4))
