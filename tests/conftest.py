"""Test set-up shared by every module.

The CLI tests start ``python -m derand.cli`` in a subprocess.  pytest's
``pythonpath`` setting only reaches the test process, so ``src`` is put
on PYTHONPATH as well: a bare ``python -m pytest`` then runs the same
code as ``PYTHONPATH=src python -m pytest``.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
