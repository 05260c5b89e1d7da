"""Command line of dtxbench: one run (the driver's contract) or the suite."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .measure import BenchmarkFailure, run
from .metrics import RUN_SECONDS
from .suite import agree, run_suite
from .workloads import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtxbench",
        description="Without --trace: run the suite (rounds of every workload in "
        "sequential subprocesses, then one traced run each) and print one line per "
        "(workload, metric). With --trace 0|1: one run of one workload, its result "
        "as a JSON object on the last line (the BENCHMARK.json contract).",
    )
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--rounds", type=int, default=5, help="suite: timed runs per workload")
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS), metavar="NAME",
        help=f"repeatable; default all of {', '.join(WORKLOADS)}",
    )
    parser.add_argument("--no-trace", action="store_true", help="suite: skip the traced runs")
    parser.add_argument("--trace-out", type=Path, metavar="DIR",
                        help="dump pass T1 of each workload as Chrome-trace JSON")
    parser.add_argument("--out", type=Path, metavar="FILE", help="suite: write the results")
    parser.add_argument("--quick", action="store_true",
                        help="smoke test: a tenth of the work, one repetition, one round")
    parser.add_argument("--agree", nargs=2, type=Path, metavar=("A.json", "B.json"),
                        help="compare two result files of the same code")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="length of one run; repetitions scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run: 0 = end-to-end metrics, 1 = per-layer metrics")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.agree:
            return agree(*args.agree)
        if args.trace is None:
            return run_suite(args)
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace runs exactly one --workload")
        result, info = run(
            WORKLOADS[args.workload[0]], args.seed, args.seconds,
            trace=bool(args.trace), quick=args.quick, trace_out=args.trace_out,
        )
    except BenchmarkFailure as failure:
        print(f"dtxbench: FAILED: {failure}", file=sys.stderr)
        return 1
    # The contract wants the result object last; the suite also reads the
    # line before it.
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0
