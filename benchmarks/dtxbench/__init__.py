"""dtxbench: the repo's yardstick — five workloads, end-to-end metrics with
bounds, and an outside-in per-layer trace. See README.md in this directory.

Run as ``PYTHONPATH=src python -m benchmarks.dtxbench`` from the repository
root, or through ``benchmarks/dtxbench/run.py`` (the command the root
``BENCHMARK.json`` names).
"""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("repro") is None:
    # BENCHMARK.json's command cannot set PYTHONPATH=src: find the program
    # under test next to this package instead.
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
