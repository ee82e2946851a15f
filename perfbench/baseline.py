"""Reference figures: ROADMAP item 1's baseline table and the per-seed costs.

    python3 perfbench/baseline.py

Times each entry of the hand-measured baseline table in ROADMAP.md
(median of three calls; the two slowest entries run once), the
per-seed cost of every generator the ``sample`` workload draws from,
the sandwich verification cost at n = 8 and n = 10, and the spread of
repeated calls to ``harness.desk_advantage_sweep`` in one process.
Single-threaded, like the benchmark runs.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from derand import approx, bp3, cr_prg, harness, rcnf_prg, smallbias  # noqa: E402
from derand.models import Literal, ReadOnceCnf  # noqa: E402


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_seed_ms(sample, bits, count, rng):
    seeds = [rng.getrandbits(bits) for _ in range(count)]
    start = time.perf_counter()
    for s in seeds:
        sample(s)
    return (time.perf_counter() - start) / count * 1e3


def sandwich_seconds(widths):
    """xor_compose plus exhaustive verify_sandwich of OR blocks of these widths."""
    n, base, pairs, blocks = sum(widths), 0, [], []
    for w in widths:
        lits = tuple(Literal(base + j) for j in range(w))
        blocks.append(lits)
        poly = approx.rcnf_poly(ReadOnceCnf(n, (lits,)))
        pairs.append(approx.SandwichPair.of(poly - Fraction(1, 200), poly + Fraction(1, 200)))
        base += w
    table = [Fraction(i % 5, 4) for i in range(1 << len(widths))]

    def target(x):
        return table[sum(1 << i for i, lits in enumerate(blocks)
                         if any(x[l.index] == 1 for l in lits))]
    start = time.perf_counter()
    approx.verify_sandwich(target, approx.xor_compose(n, table, pairs), n)
    return time.perf_counter() - start


def main() -> int:
    r = 3
    rng = random.Random(2024)
    desk = rcnf_prg.desk_preset()
    derived = rcnf_prg.derive_params(64, Fraction(1, 16))
    corpus = harness.width3_corpus(100)
    gf20 = smallbias.GF2k(20)
    elems = np.arange(1 << 20, dtype=np.uint64)
    rows = [
        ("desk sweep (desk_advantage_sweep)", "s", timed(harness.desk_advantage_sweep, r)),
        ("100-program hit sweep", "s", timed(lambda: harness.hsg_hit_stats(corpus, Fraction(1, 4)), r)),
        ("100 x full_reduce", "s",
         timed(lambda: [bp3.full_reduce(p, Fraction(1, 4)) for _n, p in corpus], r)),
        ("exact_bias(n=20, k=12)", "s",
         timed(lambda: smallbias.exact_bias(smallbias.BiasedSpaceSpec.with_degree(20, 12)), 1)),
        ("GF2k(20).mul_vec, 2^20 elements", "s", timed(lambda: gf20.mul_vec(elems, elems[::-1]), r)),
        ("check_approx(50)", "s", timed(lambda: harness.check_approx(50), 1)),
        ("rcnf_prg.sample, desk", "ms/seed",
         per_seed_ms(lambda s: rcnf_prg.sample(desk, s), desk.seed_bits, 500, rng)),
        ("rcnf_prg.sample, derived-64", "ms/seed",
         per_seed_ms(lambda s: rcnf_prg.sample(derived, s), derived.seed_bits, 40, rng)),
    ]
    rect_desk = cr_prg.desk_cr_preset(8, 8)
    rect_derived = cr_prg.derive_cr_params(8, 8, Fraction(1, 16))
    hsg_bits = bp3.hsg_seed_bits(14)
    rows += [
        ("cr_prg.sample_cr, desk 8x8", "ms/seed",
         per_seed_ms(lambda s: cr_prg.sample_cr(rect_desk, s), rect_desk.seed_bits, 1000, rng)),
        ("cr_prg.sample_cr, derived 8x8", "ms/seed",
         per_seed_ms(lambda s: cr_prg.sample_cr(rect_derived, s), rect_derived.seed_bits, 200, rng)),
        ("bp3.hsg_sample, n=14", "ms/seed",
         per_seed_ms(lambda s: bp3.hsg_sample(14, Fraction(1, 4), s), hsg_bits, 1000, rng)),
        ("sandwich compose + verify, n=8 (3,3,2)", "s", sandwich_seconds((3, 3, 2))),
        ("sandwich compose + verify, n=10 (4,3,3)", "s", sandwich_seconds((4, 3, 3))),
    ]
    sweeps = [timed(harness.desk_advantage_sweep, 1) for _ in range(10)]
    rows.append(("desk sweep, 10 calls: min / median / max", "s",
                 f"{min(sweeps):.3f} / {statistics.median(sweeps):.3f} / {max(sweeps):.3f}"))
    print("| Measurement | Unit | Value |\n|---|---|---|")
    for name, unit, value in rows:
        print(f"| {name} | {unit} | {value if isinstance(value, str) else f'{value:.3f}'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
