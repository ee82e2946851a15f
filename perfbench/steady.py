"""Steadiness check: two sets of runs of every workload, compared.

    python3 perfbench/steady.py --runs 10

Each set runs every workload ``--runs`` times, one seed per run (seeds
1, 2, ... in the first set and 1001, 1002, ... in the second) and the
workloads interleaved, with the run length and bounds of BENCHMARK.json.
For each end-to-end metric it prints the median and quartiles of every
set, the quartile spread as a share of the median and the change of
the second median against the first.  A metric passes when the spread
of each set is within its bound and the second median is not worse than
the first by more than the bound; the failed share of operations must
be the same in both sets.  All results
go to ``perfbench/out/steady-<time>.json``.  Exit code 0 means every
check passed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - start
    result["log"] = lines[:-1]
    return result


def spread(values) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets = []
    for set_no in range(2):
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                seed = 1 + 1000 * set_no + i
                res = run_once(w, seed, seconds)
                runs[w].append(res)
                print(f"set {set_no + 1} run {i + 1} {w} seed {seed}: {res['elapsed_s']:.1f}s "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                      flush=True)
        sets.append(runs)

    ok = True
    report = {}
    for w in workloads:
        print(f"\n{w}")
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs[w]}
        if len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs[w]):
            ok = False
            print(f"  failed shares {sorted(map(str, shares))} differ or a run was not correct: FAIL")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = [spread([r["metrics"][name]["value"] for r in runs[w]]) for runs in sets]
            line = f"  {name:12s} bound {bound:.2f}"
            for set_no, (med, q1, q3, share) in enumerate(rows):
                line += f" | set {set_no + 1} median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {share:.3f}"
                if share > bound:
                    ok = False
                    line += " SPREAD>BOUND"
            change = (rows[1][0] - rows[0][0]) / rows[0][0]
            if metric["better"] == "higher":
                change = -change
            line += f" | worse by {change:+.3f}"
            if change > bound:
                ok = False
                line += " SHIFT>BOUND"
            report.setdefault(w, {})[name] = rows
            print(line)
    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps({"summary": report, "runs": sets}, indent=1))
    print(f"\n{'PASS' if ok else 'FAIL'}; runs written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
