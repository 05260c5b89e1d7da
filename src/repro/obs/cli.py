"""``python -m repro trace`` — replay a workload with tracing on.

Runs a seeded workload with ``SystemConfig.tracing=True`` (the schedule
is identical to the untraced run — tracing is wall-clock-only), verifies
the recorded span forest, writes a Chrome-trace-viewer JSON file and
prints the per-transaction critical-path breakdown.

``--diff A B`` instead compares the critical-path sections of two
previously exported trace files (e.g. an ``xdgl`` vs a ``node2pl`` run
of the same workload).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, TextIO

from ..config import SystemConfig
from ..experiments.runner import ExperimentConfig, build_cluster
from ..workload.generator import WorkloadSpec
from .critical_path import (
    chrome_trace,
    critical_path_report,
    diff_reports,
    render_diff,
    render_report,
)
from .tracer import span_forest_errors


def run_traced_workload(
    sites: int = 4,
    clients: int = 8,
    seed: int = 42,
    protocol: str = "xdgl",
    tx_per_client: int = 5,
    ops_per_tx: int = 5,
    update_ratio: float = 0.5,
    replication_factor: int = 1,
    label: str = "",
    system: Optional[SystemConfig] = None,
):
    """One traced run; returns ``(result, spans)``.

    ``system`` overrides the whole config (the caller still gets
    ``tracing=True`` forced on); otherwise a config is assembled from the
    keyword knobs.
    """
    if system is None:
        system = SystemConfig(
            seed=seed,
            replication_factor=replication_factor,
            tracing=True,
        )
    elif not system.tracing:
        system = system.with_(tracing=True)
    cfg = ExperimentConfig(
        protocol=protocol,
        n_sites=sites,
        replication="partial",
        workload=WorkloadSpec(
            n_clients=clients,
            tx_per_client=tx_per_client,
            ops_per_tx=ops_per_tx,
            update_tx_ratio=update_ratio,
            seed=seed,
        ),
        system=system,
        label=label or f"trace/{protocol}/{sites}s{clients}c",
    )
    cluster, _ = build_cluster(cfg)
    result = cluster.run(label=cfg.label)
    return result, result.spans


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="replay a workload with causal tracing and decompose latency",
    )
    parser.add_argument("--sites", type=int, default=4)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--protocol", default="xdgl")
    parser.add_argument("--tx-per-client", type=int, default=5)
    parser.add_argument("--ops-per-tx", type=int, default=5)
    parser.add_argument(
        "--update-ratio",
        type=float,
        default=0.5,
        help="fraction of update transactions (contention driver)",
    )
    parser.add_argument(
        "--replication-factor",
        type=int,
        default=1,
        help="copies per fragment (>= 2 exercises the sync spans)",
    )
    parser.add_argument(
        "--out",
        default="trace.json",
        help="Chrome-trace JSON output path (default: trace.json)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the critical-path report as JSON"
    )
    parser.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        help="compare the critical-path sections of two exported trace files",
    )
    return parser


def trace_main(argv: Optional[list] = None, out: TextIO = sys.stdout) -> int:
    args = _build_parser().parse_args(argv)

    if args.diff:
        path_a, path_b = args.diff
        reports = []
        for path in (path_a, path_b):
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            report = data.get("criticalPath")
            if report is None:
                print(f"error: {path} carries no criticalPath section", file=out)
                return 1
            reports.append(report)
        diff = diff_reports(reports[0], reports[1])
        for line in render_diff(diff, label_a=path_a, label_b=path_b):
            print(line, file=out)
        return 0

    result, spans = run_traced_workload(
        sites=args.sites,
        clients=args.clients,
        seed=args.seed,
        protocol=args.protocol,
        tx_per_client=args.tx_per_client,
        ops_per_tx=args.ops_per_tx,
        update_ratio=args.update_ratio,
        replication_factor=args.replication_factor,
    )
    errors = span_forest_errors(spans)
    if errors:
        for err in errors[:20]:
            print(f"span-forest error: {err}", file=out)
        return 1

    report = critical_path_report(spans)
    meta = {
        "sites": args.sites,
        "clients": args.clients,
        "seed": args.seed,
        "protocol": args.protocol,
        "update_ratio": args.update_ratio,
        "duration_ms": result.duration_ms,
        "spans": len(spans),
    }
    data = chrome_trace(spans, meta=meta, report=report)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    print(
        f"traced {meta['spans']} spans over {result.duration_ms:.1f} sim-ms "
        f"-> {args.out}",
        file=out,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        for line in render_report(report):
            print(line, file=out)
    return 0
