"""The suite: rounds of every workload, one traced run each, and ``--agree``.

Each (workload, round) is one run in a fresh subprocess — the same command
the driver uses — so the XPath parse memo and ``ru_maxrss`` start cold and
identical. Subprocesses run strictly one after the other (the load model is
one thread; ``nproc`` on the authoring box is 2), and rounds are interleaved
round-robin across workloads so that machine drift lands on all of them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from .measure import BenchmarkFailure
from .metrics import END_TO_END, PER_LAYER, quartiles
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).with_name("run.py")
MANIFEST_NAME = "BENCHMARK.json"
#: Fewest rounds whose quartiles ``--agree`` will judge.
MIN_ROUNDS = 5


def _one_run(name: str, args, trace: int) -> dict:
    command = [
        sys.executable, str(RUN_PY), "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.quick:
        command.append("--quick")
    if trace and args.trace_out is not None:
        command += ["--trace-out", str(args.trace_out.resolve())]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise BenchmarkFailure(f"run of {name!r} (trace {trace}) exited {done.returncode}")
    info_line, result_line = done.stdout.strip().splitlines()[-2:]
    return {**json.loads(result_line), "info": json.loads(info_line)["info"]}


def _summarize(name: str, rounds: list) -> dict:
    """Medians and quartiles of one workload's timed rounds."""
    digests = {r["info"]["digest"] for r in rounds}
    if len(digests) != 1:
        raise BenchmarkFailure(f"{name}: state digest differs between rounds: {digests}")
    end_to_end = {}
    for metric in END_TO_END:
        values = [r["metrics"][metric.name]["value"] for r in rounds]
        if metric.exact and len(set(values)) != 1:
            raise BenchmarkFailure(
                f"{name}: simulated metric {metric.name} differs between rounds: {values}"
            )
        q1, median, q3 = quartiles(values)
        end_to_end[metric.name] = {
            "unit": metric.unit, "better": metric.better, "bound": metric.bound,
            "n": len(values), "median": median, "q1": q1, "q3": q3, "values": values,
        }
    return {
        "attempted": rounds[0]["attempted"],
        "failed": rounds[0]["failed"],
        "committed": rounds[0]["info"]["committed"],
        "repetitions": rounds[0]["info"]["repetitions"],
        "digest": digests.pop(),
        "end_to_end": end_to_end,
        "rounds": [r["info"] for r in rounds],
    }


def run_suite(args) -> int:
    if args.out is not None and args.out.name == MANIFEST_NAME:
        print(f"dtxbench: {MANIFEST_NAME} is the driver's manifest, not a result file",
              file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    n_rounds = 1 if args.quick else args.rounds
    timed = {name: [] for name in names}
    for _ in range(n_rounds):
        for name in names:
            timed[name].append(_one_run(name, args, trace=0))
    report = {
        "benchmark": "dtxbench", "quick": args.quick, "seed": args.seed,
        "seconds": args.seconds, "rounds": n_rounds, "workloads": {},
    }
    for name in names:
        summary = report["workloads"][name] = _summarize(name, timed[name])
        if not args.no_trace:
            traced = _one_run(name, args, trace=1)
            summary["per_layer"] = traced["metrics"]
            summary["traced_run"] = traced["info"]
    _print_report(report)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


def _print_report(report: dict) -> None:
    for name, summary in report["workloads"].items():
        print(
            f"# {name}: {summary['attempted']} attempted, {summary['committed']} committed, "
            f"{summary['failed']} failed in {summary['repetitions']} repetitions per run; "
            f"seed {report['seed']}, digest {summary['digest'][:16]}"
            + (" [quick: not a measurement]" if report["quick"] else "")
        )
        for metric in END_TO_END:
            cell = summary["end_to_end"][metric.name]
            print(
                f"{name:12s} {metric.name:34s} {cell['median']:14.6g} {metric.unit:9s} "
                f"{metric.better:6s} bound={metric.bound:<5g} n={cell['n']} "
                f"q1={cell['q1']:.6g} q3={cell['q3']:.6g}"
            )
        for metric in PER_LAYER if "per_layer" in summary else ():
            value = summary["per_layer"][metric.name]["value"]
            print(f"{name:12s} {metric.name:34s} {value:14.6g} {metric.unit:9s} {metric.better:6s}")


def agree(path_a: Path, path_b: Path) -> int:
    """Judge two result files of the same code against the bounds.

    Per (workload, end-to-end metric): ``unresolved`` when either file's
    inter-quartile distance is wider than the bound, else ``differs`` when
    the medians are further apart than the bound (simulated metrics: when
    they are not identical), else ``same``. Exit status 1 on any ``differs``.
    """
    a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (path_a, path_b))
    for key in ("seed", "seconds"):
        if a[key] != b[key]:
            print(f"dtxbench: the files differ in {key}: {a[key]} vs {b[key]}", file=sys.stderr)
            return 2
    if a["quick"] or b["quick"] or min(a["rounds"], b["rounds"]) < MIN_ROUNDS:
        print(f"dtxbench: --agree needs {MIN_ROUNDS}+ full rounds in both files",
              file=sys.stderr)
        return 2
    differs = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in END_TO_END:
            ca = a["workloads"][name]["end_to_end"][metric.name]
            cb = b["workloads"][name]["end_to_end"][metric.name]
            spread_a = (ca["q3"] - ca["q1"]) / ca["median"]
            spread_b = (cb["q3"] - cb["q1"]) / cb["median"]
            relative = (cb["median"] - ca["median"]) / ca["median"]
            if metric.exact:
                verdict = "same" if ca["values"] == cb["values"] else "differs"
            elif max(spread_a, spread_b) > metric.bound:
                verdict = "unresolved"
            else:
                verdict = "differs" if abs(relative) > metric.bound else "same"
            differs += verdict == "differs"
            print(
                f"{name:12s} {metric.name:18s} A={ca['median']:<12.6g} B={cb['median']:<12.6g} "
                f"iqr A={ca['q3'] - ca['q1']:<10.4g} B={cb['q3'] - cb['q1']:<10.4g} "
                f"diff={relative:+.2%} bound={metric.bound:.0%} {verdict}"
            )
    return 1 if differs else 0
