"""Tests of the benchmark's own trace arithmetic and metric lists.

    python3 perfbench/selftest.py

Checks that the self times of nested spans add up to the root span's
duration, that overlapping children are counted once, that recursion
counts once in inclusive time, that installing the wrappers reaches
every module holding a traced function and uninstalling restores them,
and that BENCHMARK.json names exactly the metrics the runs report.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402


def span(sid, parent, start, end, name="x", work=0):
    return (sid, parent, name, start, end, work)


def test_nested_self_times_add_up():
    spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 0, 4.0, 8.0),
             span(3, 2, 5.0, 6.0)]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}, selfs
    assert sum(selfs.values()) == 10.0


def test_overlapping_children_cover_once():
    spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 0, 3.0, 6.0)]
    assert tracing.self_times(spans)[0] == 5.0


def test_recorded_spans_add_up_and_recursion_counts_once():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    def down(depth):
        time.sleep(0.001)
        if depth:
            rec(depth - 1)
        wrapped_leaf()

    wrapped_leaf = tracer.span("leaf", leaf)
    rec = tracer.span("rec", down)
    rec(3)
    root = next(s for s in tracer.spans if s[1] == -1)
    total_self = sum(tracing.self_times(tracer.spans).values())
    assert abs(total_self - (root[4] - root[3])) < 1e-9, (total_self, root)
    stats = {}
    for sid, parent, name, start, end, work in tracer.spans:
        stats.setdefault(name, []).append(end - start)
    assert len(stats["rec"]) == 4 and len(stats["leaf"]) == 4
    metrics = tracing.layer_metrics(tracer.spans, [("rec.s", "rec", "s"),
                                                   ("rec.calls", "rec", "calls")])
    assert metrics["rec.calls"] == 4
    assert abs(metrics["rec.s"] - (root[4] - root[3])) < 1e-12


def test_install_reaches_every_holder_and_uninstall_restores():
    from derand import bp3, harness, models, rcnf_prg, smallbias

    before = (smallbias.outputs_all_seeds, harness.outputs_all_seeds, bp3.sample,
              rcnf_prg.generate_biased, models.Robp.eval_all)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.outputs_all_seeds is smallbias.outputs_all_seeds is not before[0]
        assert bp3.sample is rcnf_prg.sample is not before[2]
        assert rcnf_prg.generate_biased is smallbias.generate_biased is not before[3]
        models.Robp(n=1, d=2, next0=((0, 1),), next1=((0, 1),)).eval_all()
        assert [s[2] for s in tracer.spans] == ["models.Robp.eval_all"]
    finally:
        tracer.uninstall()
    after = (smallbias.outputs_all_seeds, harness.outputs_all_seeds, bp3.sample,
             rcnf_prg.generate_biased, models.Robp.eval_all)
    assert after == before


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = [m["name"] for m in bench["per_layer"]]
    assert layer == [m for m, _s, _k in tracing.PER_LAYER] + [tracing.OVERHEAD_METRIC]
    assert all(m["unit"] == tracing.metric_unit(m["name"]) for m in bench["per_layer"])
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "cpu_s", "setup_s",
                                                        "peak_rss_mb"]


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
