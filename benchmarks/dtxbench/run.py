"""The command ``BENCHMARK.json`` names: ``python3 benchmarks/dtxbench/run.py``.

Run by path from the root of a checkout, so the package is not importable
yet: put the repository root on ``sys.path`` and hand over to the CLI.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.dtxbench.cli import main

    sys.exit(main())
