"""The planted-fault list of ``tests/mutants.json`` stays applicable.

``python3 tests/mutants.py`` runs each fault against the tests it names;
this guard only reads files, so it runs in the tier-1 suite.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


def test_every_planted_fault_applies_once():
    # a refactor that moves or rewrites a mutated text must update its
    # record, and every named node must be a test of its named file
    records = json.loads(_read(os.path.join("tests", "mutants.json")))
    assert records
    for record in records:
        assert set(record) == {"fault", "file", "text", "replacement", "nodes"}, record
        assert _read(record["file"]).count(record["text"]) == 1, record["fault"]
        assert record["replacement"] != record["text"] and record["nodes"], record["fault"]
        for node in record["nodes"]:
            path, name = node.split("::")
            assert f"\ndef {name.split('[')[0]}(" in _read(path), node
