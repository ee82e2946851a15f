"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: it imports derand from ``src/``.
``--seconds`` is required; BENCHMARK.json's ``run_seconds`` is the
length the bounds were measured at.  A run repeats whole rounds of the
workload's fixed operations for ``--seconds`` (at least three rounds).
The first round's outputs are checked against the benchmark's reference
computations and every later round must repeat them exactly.
``--trace 0`` reports the end-to-end metrics: the mean wall and CPU time
of a round, the median set-up time of nine fresh interpreters spread
over the run, and the peak resident memory.  ``--trace 1``
runs untraced rounds for half the time and traced rounds for the rest,
reports the median of each per-layer metric over the traced rounds and
writes the spans to ``perfbench/out/``.
"""

import os

# one thread: pin the BLAS pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "derand").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def setup_seconds(workload: str, seed: int) -> float:
    """Time from spawning a fresh interpreter to the end of its set-up.

    perf_counter reads the system-wide monotonic clock, so the child's
    reading and the parent's start are on one time line.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


class Rounds:
    """Runs rounds of a workload's operations and keeps the verdicts."""

    def __init__(self, workload):
        self.ops = workload.ops
        self.keys = None      # per operation: the first round's repeatable output
        self.verdicts = None  # per operation: None, or why its first output failed
        self.attempted = 0
        self.failed = 0
        self.wrong = []       # outputs that were produced and are not correct
        self.errors = []

    def run(self):
        results = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in self.ops:
            try:
                results.append((True, op.run()))
            except Exception as exc:  # an operation that raises is a failed operation
                results.append((False, exc))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self._judge(results)
        return wall, cpu

    def _check(self, op, out):
        try:
            return op.check(out)
        except Exception as exc:
            return f"{op.name}: check raised {exc!r}"

    def _judge(self, results):
        first = self.keys is None
        if first:
            self.keys, self.verdicts = [None] * len(self.ops), [None] * len(self.ops)
        for i, (op, (ok, out)) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{op.name}: raised {out!r}")
                if first:
                    self.verdicts[i] = "raised"
                continue
            if first or self.verdicts[i] == "raised":
                problem = self._check(op, out)
                self.keys[i], self.verdicts[i] = op.key(out), problem
            elif op.key(out) != self.keys[i]:
                problem = f"{op.name}: output differs from the first round's"
            else:
                problem = self.verdicts[i]
            if problem:
                self.failed += 1
                self.wrong.append(problem)


def measure(rounds, seconds, min_rounds=MIN_ROUNDS, probe=None, probes=0):
    """Whole rounds while the next one, as long as the last, fits in ``seconds``.

    With ``probe``, ``probes`` calls of it are spread over the span: one
    after the first round that ends past each 1/``probes`` of ``seconds``,
    and any still missing at the end.  The host's speed drifts over
    seconds, so probes taken at one moment would all share its speed.
    """
    walls, cpus, probed = [], [], []
    start = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - start + walls[-1] <= seconds:
        wall, cpu = rounds.run()
        walls.append(wall)
        cpus.append(cpu)
        if len(probed) < probes and time.perf_counter() - start >= len(probed) * seconds / probes:
            probed.append(probe())
    probed += [probe() for _ in range(probes - len(probed))]
    return walls, cpus, probed


def untraced(args, workload, rounds):
    walls, cpus, setups = measure(rounds, args.seconds, probes=SETUP_PROBES,
                                  probe=lambda: setup_seconds(args.workload, args.seed))
    print(f"# rounds wall_s {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"# probes setup_s {' '.join(f'{s:.3f}' for s in setups)}")
    return {
        "wall_s": (statistics.fmean(walls), "s"),
        "cpu_s": (statistics.fmean(cpus), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(args, workload, rounds):
    import tracing

    plain, _, _ = measure(rounds, args.seconds / 2, min_rounds=2)
    tracer = tracing.Tracer()
    workload.wrap = tracer.span
    tracer.install()
    per_round, walls = [], []
    start = time.perf_counter()
    try:
        while len(walls) < 2 or time.perf_counter() - start + walls[-1] <= args.seconds / 2:
            first = len(tracer.spans)
            walls.append(rounds.run()[0])
            per_round.append(tracing.layer_metrics(tracer.spans[first:]))
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz"))
    metrics = {m: (statistics.median(r[m] for r in per_round), tracing.metric_unit(m))
               for m, _span, _stat in tracing.PER_LAYER}
    metrics[tracing.OVERHEAD_METRIC] = (statistics.fmean(walls) - statistics.fmean(plain), "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "derand" / "__init__.py").is_file():
        print(f"perfbench: no derand package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print(repr(time.perf_counter()))
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    import numpy

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"rev={git_revision()} src_sha256={source_digest()}")
    workload = workloads.build(args.workload, args.seed)
    print(f"# inputs {json.dumps(workload.inputs, default=str)}")
    rounds = Rounds(workload)
    metrics = (traced if args.trace else untraced)(args, workload, rounds)
    for line in rounds.errors + rounds.wrong[:5]:
        print(f"# failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not rounds.wrong,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
