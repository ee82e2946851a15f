"""Command-line front end.

Subcommands: gen, eval, advantage, hit, reduce, corpus, check, report.
Seeds are hex strings (little-endian bytes, bit 0 of byte 0 first);
every command is a pure function of its arguments, and the exit code is
0 exactly when all asserted invariants pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bp3, cr_prg, formats, harness, rcnf_prg
from .signs import parse_seed_hex


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def _print_signs(sv) -> None:
    print("".join("+" if v == 1 else "-" for v in sv.values))


def _rcnf_params(args) -> rcnf_prg.RcnfGenParams:
    if args.preset == "desk":
        return rcnf_prg.desk_preset()
    constants = rcnf_prg.GenConstants()
    if args.constants:
        with open(args.constants, "r", encoding="ascii") as fh:
            raw = json.load(fh)
        constants = rcnf_prg.GenConstants(
            rounds_scale=Fraction(raw.get("C", "1")),
            subset_exp=int(raw.get("c", 2)),
            width_cut=int(raw.get("c1", 13)),
            shrink_exp=int(raw.get("c2", 3)),
            shrink_gamma=Fraction(raw.get("gamma", "1/8")),
        )
    return rcnf_prg.derive_params(args.n, args.eps, constants=constants)


def cmd_gen(args) -> int:
    if args.target == "rcnf":
        params = _rcnf_params(args)
        if args.dump_params:
            print(json.dumps(params.to_json(), indent=1, sort_keys=True))
            return 0
        seed = parse_seed_hex(args.seed, params.seed_bits)
        _print_signs(rcnf_prg.sample(params, seed))
        return 0
    if args.target == "rect":
        if args.preset == "desk":
            params = cr_prg.desk_cr_preset(args.m, args.w)
        else:
            params = cr_prg.derive_cr_params(args.m, args.w, args.delta)
        if args.dump_params:
            print(json.dumps(params.to_json(), indent=1, sort_keys=True))
            return 0
        seed = parse_seed_hex(args.seed, params.seed_bits)
        _print_signs(cr_prg.sample_cr(params, seed))
        return 0
    if args.target == "hsg":
        params = rcnf_prg.hsg_inner_preset(args.n)
        bits = bp3.hsg_seed_bits(args.n, params)
        if args.dump_params:
            print(json.dumps({"n": args.n, "seedLengthBits": bits,
                              "inner": params.to_json()}, indent=1, sort_keys=True))
            return 0
        seed = parse_seed_hex(args.seed, bits)
        _print_signs(bp3.hsg_sample(args.n, args.eps, seed, params))
        return 0
    raise AssertionError(args.target)


def cmd_eval(args) -> int:
    obj = formats.load_path(args.path)
    signs = tuple(1 if ch == "+" else -1 for ch in args.input.strip())
    print(obj.evaluate(signs))
    return 0


def cmd_advantage(args) -> int:
    params = rcnf_prg.desk_preset() if args.preset == "desk" else _rcnf_params(args)
    if args.formula:
        instances = [(args.formula, formats.load_path(args.formula))]
    else:
        instances = harness.landmark_formulas(params.n)
    tables = harness.round_tables(params)
    reports = []
    for name, f in instances:
        reports.append(harness.rcnf_structured_advantage(params, f, name=name,
                                                         workers=args.workers, tables=tables))
    for rep in reports:
        print(f"{rep.instance}\tadvantage={float(rep.advantage):.6g}")
    if args.csv:
        harness.write_csv(reports, args.csv, keep_time=args.timing)
    worst = max((r.advantage for r in reports), default=Fraction(0))
    budget = min(Fraction(1), params.bias_budget())
    return 0 if worst <= budget else 1


def cmd_hit(args) -> int:
    if args.corpus:
        import glob
        corpus = []
        for path in sorted(glob.glob(os.path.join(args.corpus, "*.txt"))):
            obj = formats.load_path(path)
            if hasattr(obj, "next0"):
                corpus.append((os.path.basename(path), obj))
        if not corpus:
            raise ValueError(f"no branching program files under {args.corpus}")
    else:
        corpus = harness.width3_corpus(count=args.count, n_max=args.n,
                                       min_expectation=args.eps, seed=args.corpus_seed)
    stats = harness.hsg_hit_stats(corpus, args.eps)
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
    descriptor = harness.CorpusDescriptor(count=args.count, n=args.n,
                                          max_width=args.max_width, seed=args.corpus_seed)
    for path in harness.corpus_generate(descriptor, args.out):
        print(path)
    return 0


def cmd_check(args) -> int:
    suites = {
        "smallbias": lambda: harness.check_smallbias(seed=args.corpus_seed),
        "sym": lambda: harness.check_sympoly(seed=args.corpus_seed),
        "models": lambda: harness.check_models(seed=args.corpus_seed),
        "approx": lambda: harness.check_approx(seed=args.corpus_seed),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    results = [suites[name]() for name in names]
    print(json.dumps(results, indent=1, sort_keys=True))
    return 0 if all(r["pass"] for r in results) else 1


def cmd_report(args) -> int:
    reports = harness.desk_advantage_sweep(workers=args.workers)
    harness.report(reports, args.csv, args.svg, keep_time=args.timing)
    print(f"wrote {args.csv}" + (f" and {args.svg}" if args.svg else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="derand",
                                  description="derandomization toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="run a generator on a seed")
    g.add_argument("target", choices=["rcnf", "rect", "hsg"])
    g.add_argument("--n", type=int, default=64)
    g.add_argument("--eps", type=_fraction, default=Fraction(1, 16))
    g.add_argument("--m", type=int, default=8)
    g.add_argument("--w", type=int, default=8)
    g.add_argument("--delta", type=_fraction, default=Fraction(1, 16))
    g.add_argument("--seed", default="00")
    g.add_argument("--preset", choices=["desk", "derived"], default="desk")
    g.add_argument("--constants", help="JSON file of generator constants")
    g.add_argument("--dump-params", action="store_true")
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("eval", help="evaluate a formula file on a +- string")
    e.add_argument("path")
    e.add_argument("input")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("advantage", help="exhaustive advantage sweep")
    a.add_argument("--preset", choices=["desk", "derived"], default="desk")
    a.add_argument("--n", type=int, default=64)
    a.add_argument("--eps", type=_fraction, default=Fraction(1, 16))
    a.add_argument("--constants")
    a.add_argument("--formula", help="single formula file instead of the landmarks")
    a.add_argument("--csv")
    a.add_argument("--workers", type=int, default=1)
    a.add_argument("--timing", action="store_true",
                   help="keep wall-clock times in the CSV (non-reproducible)")
    a.set_defaults(func=cmd_advantage)

    h = sub.add_parser("hit", help="width-3 hitting sweep")
    h.add_argument("target", nargs="?", choices=["bp3"], default="bp3")
    h.add_argument("--corpus", help="directory of program files (default: generated corpus)")
    h.add_argument("--n", type=int, default=14)
    h.add_argument("--eps", type=_fraction, default=Fraction(1, 4))
    h.add_argument("--count", type=int, default=100)
    h.add_argument("--corpus-seed", type=int, default=0xB3)
    h.set_defaults(func=cmd_hit)

    r = sub.add_parser("reduce", help="reduce a width-3 program file")
    r.add_argument("target", nargs="?", choices=["bp3"], default="bp3")
    r.add_argument("--in", dest="path", required=True)
    r.add_argument("--eps", type=_fraction, default=Fraction(1, 4))
    r.set_defaults(func=cmd_reduce)

    c = sub.add_parser("corpus", help="write a deterministic corpus")
    c.add_argument("--out", required=True)
    c.add_argument("--count", type=int, default=8)
    c.add_argument("--n", type=int, default=16)
    c.add_argument("--max-width", type=int, default=4)
    c.add_argument("--corpus-seed", type=int, default=1)
    c.set_defaults(func=cmd_corpus)

    k = sub.add_parser("check", help="run a property suite")
    k.add_argument("suite", choices=["smallbias", "sym", "models", "approx", "all"])
    k.add_argument("--corpus-seed", type=int, default=7)
    k.set_defaults(func=cmd_check)

    p = sub.add_parser("report", help="desk sweep to CSV and SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--svg")
    p.add_argument("--workers", type=int, default=1)
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
