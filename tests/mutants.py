"""Run the planted faults of ``tests/mutants.json``: ``python3 tests/mutants.py``.

Each record names a file of the repository, a text that occurs in it
exactly once, the replacement that plants a fault, and the test node
ids that must fail under that fault.  For each record the runner copies
the repository to a temporary directory, applies the record to the
copy and runs the named node ids there.  The record is killed when
every named node fails, and survives otherwise.  The checkout itself is
never edited, tests included.  Every named node must first pass on the
checkout as it is, or the runner stops with status 2 before planting
any fault.  The exit status is 1 when any record survives.

A surviving record is a finding: the tests no longer catch its fault.
``tests/test_mutants.py`` checks in the tier-1 suite that every
record's text still occurs exactly once in its file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = os.path.join(ROOT, "tests", "mutants.json")
# left behind by builds, tests and benchmark runs; never needed by a test run
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info", "out")


def failed_nodes(report: str) -> set:
    """The node ids that pytest's ``-rfE`` summary reports as failed or
    in error."""
    return {line.split()[1] for line in report.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def pytest(repo: str, nodes) -> subprocess.CompletedProcess:
    """Run ``nodes`` in the tree at ``repo``, with its own ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE",
                           "-p", "no:cacheprovider", *nodes],
                          cwd=repo, env=env, capture_output=True, text=True)


def run(record: dict) -> tuple:
    """(killed, named nodes that did not fail) for one record, run in a
    fresh copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="derand-mutant-") as tmp:
        repo = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, repo, ignore=SKIP)
        path = os.path.join(repo, record["file"])
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(record["text"]) != 1:
            raise SystemExit(f"{record['file']}: the text of '{record['fault']}' "
                             f"occurs {text.count(record['text'])} times, not once")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(record["text"], record["replacement"]))
        report = pytest(repo, record["nodes"]).stdout
    missed = sorted(set(record["nodes"]) - failed_nodes(report))
    return not missed, missed


def main() -> int:
    with open(RECORDS, encoding="utf-8") as fh:
        records = json.load(fh)
    start = time.perf_counter()
    unplanted = pytest(ROOT, list(dict.fromkeys(node for record in records
                                                for node in record["nodes"])))
    if unplanted.returncode:
        print("the named nodes do not all pass with no fault planted:\n"
              + unplanted.stdout + unplanted.stderr)
        return 2
    survived = 0
    for record in records:
        began = time.perf_counter()
        killed, missed = run(record)
        survived += not killed
        print(f"{'killed' if killed else 'SURVIVED':8} {time.perf_counter() - began:5.1f} s  "
              f"{record['fault']} ({record['file']})", flush=True)
        for node in missed:
            print(f"{'':17}did not fail: {node}")
    print(f"{len(records) - survived} of {len(records)} killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
