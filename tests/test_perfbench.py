"""Smoke test of the benchmark's workloads against the current API.

Every operation of every workload in ``perfbench/workloads.py`` runs
once on seed 1 and must pass the benchmark's own check, so a change in
a name or attribute the benchmark reads fails here and not only in a
benchmark run.  ``perfbench/`` is put on ``sys.path`` for the import
alone, and no bytecode is written there.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from derand import cr_prg, rcnf_prg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_perfbench(name):
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved


workloads = _import_perfbench("workloads")
tracing = _import_perfbench("tracing")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_ops_pass_their_checks(name):
    wl = workloads.build(name, 1)
    assert wl.ops
    problems = []
    for op in wl.ops:
        out = op.run()
        op.key(out)
        problems.append(op.check(out))
    assert [p for p in problems if p] == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_ops_pass_their_checks_when_traced(name):
    # a span's work count reads the traced function's result (len(),
    # .size, attributes), so a change to a result type can fail only in
    # a traced run
    wl = workloads.build(name, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        problems = [op.check(op.run()) for op in wl.ops]
    finally:
        tracer.uninstall()
    assert [p for p in problems if p] == []
    assert tracer.spans


def test_traced_generate_biased_counts_its_positions():
    params, cr_params = rcnf_prg.desk_preset(), cr_prg.desk_cr_preset()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outs = [rcnf_prg.sample(params, seed) for seed in range(4)]
        cr_out = cr_prg.sample_cr(cr_params, 0)
    finally:
        tracer.uninstall()
    assert all(len(out.values) == params.n for out in outs)
    assert len(cr_out.values) == cr_params.m * cr_params.w
    counts = [s[5] for s in tracer.spans if s[2] == "smallbias.generate_biased"]
    assert params.y_spec.n in counts
    assert counts[-1] == cr_params.stage_specs[-1].n


def test_benchmark_selftest_passes():
    # the self-test checks that the tracer reaches every name it wraps, so
    # renaming or removing one of them fails here
    proc = subprocess.run([sys.executable, "-B", str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
