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

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_workloads():
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved


workloads = _import_workloads()


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


def test_benchmark_selftest_passes():
    # the self-test checks that the tracer reaches every name it wraps, so
    # renaming or removing one of them fails here
    proc = subprocess.run([sys.executable, "-B", str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
