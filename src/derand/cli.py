"""Command-line front end.

Subcommands: gen rcnf|rect|hsg, eval, advantage, hit, reduce, corpus,
check, report; each declares only the options it reads.  Seeds are hex
strings (little-endian bytes, bit 0 of byte 0 first); every command is a
pure function of its arguments, and the exit code is 0 exactly when all
asserted invariants pass, 2 on refused input.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from fractions import Fraction

from . import bp3, cr_prg, formats, harness, rcnf_prg
from .signs import parse_seed_hex


def _given(args, **params) -> dict:
    """Keyword arguments from the options given; ``params`` maps parameter names to dests."""
    return {param: getattr(args, dest) for param, dest in params.items()
            if getattr(args, dest) is not None}


def _refuse_given(args, why: str, *dests) -> None:
    given = ["--" + dest.replace("_", "-") for dest in dests if getattr(args, dest) is not None]
    if given:
        raise ValueError(f"{', '.join(given)}: {why}")


def _rcnf_params(args) -> rcnf_prg.RcnfGenParams:
    if args.preset == "desk":
        _refuse_given(args, "read only under --preset derived", "n", "eps", "constants")
        return rcnf_prg.desk_preset()
    constants = rcnf_prg.GenConstants()
    if args.constants:
        with open(args.constants, "r", encoding="ascii") as fh:
            constants = rcnf_prg.GenConstants.from_json(json.load(fh))
    return rcnf_prg.derive_params(64 if args.n is None else args.n,
                                  Fraction(1, 16) if args.eps is None else args.eps,
                                  constants=constants)


def _gen_rcnf(args):
    params = _rcnf_params(args)
    return params.to_json(), params.seed_bits, lambda seed: rcnf_prg.sample(params, seed)


def _gen_rect(args):
    if args.preset == "desk":
        _refuse_given(args, "read only under --preset derived", "delta")
        params = cr_prg.desk_cr_preset(args.m, args.w)
    else:
        delta = Fraction(1, 16) if args.delta is None else args.delta
        params = cr_prg.derive_cr_params(args.m, args.w, delta)
    return params.to_json(), params.seed_bits, lambda seed: cr_prg.sample_cr(params, seed)


def _gen_hsg(args):
    bits = bp3.hsg_seed_bits(args.n)
    record = {"n": args.n, "seedLengthBits": bits,
              "inner": rcnf_prg.hsg_inner_preset(args.n).to_json()}
    return record, bits, lambda seed: bp3.hsg_sample(args.n, None, seed)


def cmd_gen(args) -> int:
    record, bits, sample = args.generator(args)
    if args.dump_params:
        print(json.dumps(record, indent=1, sort_keys=True))
        return 0
    if args.seed is None:
        raise ValueError(f"gen {args.target} needs --seed: {2 * ((bits + 7) // 8)} hex digits "
                         f"for its {bits} seed bits")
    print("".join("+" if v == 1 else "-" for v in sample(parse_seed_hex(args.seed, bits)).values))
    return 0


def cmd_eval(args) -> int:
    obj = formats.load_path(args.path)
    text = args.input.strip()
    if set(text) - {"+", "-"}:
        raise ValueError(f"input must be a string of '+' and '-' signs, not {args.input!r}")
    signs = tuple(1 if ch == "+" else -1 for ch in text)
    print(obj.evaluate(signs))
    return 0


def cmd_advantage(args) -> int:
    if args.timing and not args.csv:
        raise ValueError("--timing keeps times in the CSV: it needs --csv")
    params = _rcnf_params(args)
    if args.formula:
        instances = [(args.formula, formats.load_path(args.formula))]
    else:
        instances = harness.landmark_formulas(params.n)
    reports = harness.advantage_sweep(params, instances)
    for rep in reports:
        print(f"{rep.instance}\tadvantage={float(rep.advantage):.6g}")
    if args.csv:
        harness.write_csv(reports, args.csv, keep_time=args.timing)
    worst = max((r.advantage for r in reports), default=Fraction(0))
    budget = min(Fraction(1), params.bias_budget())
    return 0 if worst <= budget else 1


def _check_eps(args) -> None:
    if not 0 < args.eps <= 1:
        raise ValueError(f"--eps must be in (0, 1], not {args.eps}")


def cmd_hit(args) -> int:
    _check_eps(args)
    if args.corpus:
        _refuse_given(args, "read only for the generated corpus, not with --corpus",
                      "n", "count", "corpus_seed")
        corpus = []
        for path in sorted(glob.glob(os.path.join(args.corpus, "*.txt"))):
            obj = formats.load_path(path)
            if hasattr(obj, "next0"):
                corpus.append((os.path.basename(path), obj))
        if not corpus:
            raise ValueError(f"no branching program files under {args.corpus}")
    else:
        if args.count is not None and args.count < 1:
            raise ValueError(f"--count must be at least 1, not {args.count}")
        corpus = harness.width3_corpus(min_expectation=args.eps, **_given(
            args, count="count", n_max="n", seed="corpus_seed"))
    stats = harness.hsg_hit_stats(corpus, args.eps)
    if not stats:
        raise ValueError(f"no program under {args.corpus} accepts at least --eps {args.eps} "
                         "of its inputs")
    missed = [s for s in stats if s.hit_fraction == 0]
    worst = min(stats, key=lambda s: s.hit_fraction)
    print(json.dumps({
        "programs": len(stats),
        "misses": len(missed),
        "minHitFraction": str(worst.hit_fraction),
        "minInstance": worst.instance,
    }, indent=1, sort_keys=True))
    return 0 if not missed else 1


def cmd_reduce(args) -> int:
    _check_eps(args)
    prog = formats.load_path(args.path)
    cert = bp3.full_reduce(prog, args.eps)
    payload = {
        "k": cert.k,
        "formula": formats.to_json(cert.formula),
        "sourceExpectation": str(cert.source_expectation),
        "formulaExpectation": str(cert.formula_expectation),
        "achievedExponent": bp3.pipeline_exponent(cert, prog.n),
        "provenance": cert.provenance,
    }
    verified = cert.verify_subset(prog) if prog.n <= 16 else None
    payload["subsetVerified"] = verified
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0 if verified in (True, None) else 1


def cmd_corpus(args) -> int:
    if args.count is not None and args.count < 0:
        raise ValueError(f"--count must be at least 0, not {args.count}")
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n must be at least 1, not {args.n}")
    if args.max_width is not None and args.max_width < 1:
        raise ValueError(f"--max-width must be at least 1, not {args.max_width}")
    for path in harness.corpus_generate(args.out, **_given(
            args, count="count", n="n", max_width="max_width", seed="corpus_seed")):
        print(path)
    return 0


def cmd_check(args) -> int:
    suites = {"smallbias": harness.check_smallbias, "sym": harness.check_sympoly,
              "models": harness.check_models, "approx": harness.check_approx}
    names = list(suites) if args.suite == "all" else [args.suite]
    results = [suites[name](**_given(args, seed="corpus_seed")) for name in names]
    print(json.dumps(results, indent=1, sort_keys=True))
    return 0 if all(r["pass"] for r in results) else 1


def cmd_report(args) -> int:
    reports = harness.desk_advantage_sweep()
    harness.write_csv(reports, args.csv, keep_time=args.timing)
    if args.svg:
        with open(args.svg, "w", encoding="ascii", newline="\n") as fh:
            fh.write(harness.render_report_svg(reports))
    print(f"wrote {args.csv}" + (f" and {args.svg}" if args.svg else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="derand",
                                  description="derandomization toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    out = seeded.add_mutually_exclusive_group()
    out.add_argument("--seed", help="hex seed, little-endian (needed to sample)")
    out.add_argument("--dump-params", action="store_true")

    rcnf = argparse.ArgumentParser(add_help=False)
    rcnf.add_argument("--preset", choices=["desk", "derived"], default="desk")
    rcnf.add_argument("--n", type=int, help="derived only (default 64)")
    rcnf.add_argument("--eps", type=Fraction, help="derived only (default 1/16)")
    rcnf.add_argument("--constants", help="derived only: JSON file of generator constants")

    g = sub.add_parser("gen", help="run a generator on a seed")
    gen = g.add_subparsers(dest="target", required=True)
    gr = gen.add_parser("rcnf", parents=[seeded, rcnf], help="read-once CNF generator")
    gr.set_defaults(generator=_gen_rcnf)
    gc = gen.add_parser("rect", parents=[seeded], help="combinatorial-rectangle generator")
    gc.add_argument("--preset", choices=["desk", "derived"], default="desk")
    gc.add_argument("--m", type=int, default=8)
    gc.add_argument("--w", type=int, default=8)
    gc.add_argument("--delta", type=Fraction, help="derived only (default 1/16)")
    gc.set_defaults(generator=_gen_rect)
    gh = gen.add_parser("hsg", parents=[seeded], help="width-3 hitting set generator")
    gh.add_argument("--n", type=int, default=64, help="output length; fixes the inner generator")
    gh.set_defaults(generator=_gen_hsg)
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("eval", help="evaluate a formula file on a +- string")
    e.add_argument("path")
    e.add_argument("input")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("advantage", parents=[rcnf], help="exhaustive advantage sweep")
    a.add_argument("--formula", help="single formula file instead of the landmarks")
    a.add_argument("--csv")
    a.add_argument("--timing", action="store_true",
                   help="keep wall-clock times in the CSV (non-reproducible)")
    a.set_defaults(func=cmd_advantage)

    h = sub.add_parser("hit", help="width-3 hitting sweep")
    h.add_argument("--corpus", help="directory of program files (default: generated corpus)")
    h.add_argument("--eps", type=Fraction, default=Fraction(1, 4))
    h.add_argument("--n", type=int, help="generated corpus: longest program")
    h.add_argument("--count", type=int, help="generated corpus: programs")
    h.add_argument("--corpus-seed", type=int, help="generated corpus: seed")
    h.set_defaults(func=cmd_hit)

    r = sub.add_parser("reduce", help="reduce a width-3 program file")
    r.add_argument("--in", dest="path", required=True)
    r.add_argument("--eps", type=Fraction, default=Fraction(1, 4))
    r.set_defaults(func=cmd_reduce)

    c = sub.add_parser("corpus", help="write a deterministic corpus")
    c.add_argument("--out", required=True)
    c.add_argument("--count", type=int, help="random instances")
    c.add_argument("--n", type=int, help="formula length")
    c.add_argument("--max-width", type=int, help="widest clause")
    c.add_argument("--corpus-seed", type=int)
    c.set_defaults(func=cmd_corpus)

    k = sub.add_parser("check", help="run a property suite")
    k.add_argument("suite", choices=["smallbias", "sym", "models", "approx", "all"])
    k.add_argument("--corpus-seed", type=int, help="default: each suite's own seed")
    k.set_defaults(func=cmd_check)

    p = sub.add_parser("report", help="desk sweep to CSV and SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--svg")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_report)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
