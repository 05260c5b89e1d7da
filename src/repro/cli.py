"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro figures                 # all figures, quick sweep
    python -m repro figures --only fig9 fig12
    python -m repro figures --full          # paper-density sweeps
    python -m repro scenario                # the §2.4 worked example
    python -m repro protocols               # list registered protocols
    python -m repro replication             # ROWA factor x read-ratio sweep
    python -m repro availability            # eager vs lazy under crashes
    python -m repro partitions              # lease-timeout sweep under a network split
    python -m repro quorum                  # (R, W) grid vs eager/lazy under faults
    python -m repro scale                   # hash-ring elasticity: join + decommission
    python -m repro views                   # materialized views vs the locked read path
    python -m repro trace                   # traced replay -> trace.json + critical path
    python -m repro trace --diff A.json B.json  # compare two traces' breakdowns

The sweep subcommands (replication, availability, partitions, quorum,
scale, views) share one flag surface: ``--full`` (denser grid), ``--sites`` /
``--clients`` (workload size), ``--seed`` (override the SystemConfig
seed) and ``--json`` (machine-readable cells instead of tables), plus
per-sweep extras.  ``scale`` sweeps a *grid* of sites x clients, so its
``--sites``/``--clients`` accept several values; the scalar sweeps take
exactly one.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import available_protocols
from .experiments import (
    Fig12Result,
    FigureParams,
    fig8,
    fig9,
    fig10,
    fig11a,
    fig11b,
    fig12,
)
from .experiments import report as report_mod

_FIGURES = {
    "fig8": (fig8, None, None),
    "fig9": (fig9, report_mod.check_fig9, "response_ms"),
    "fig10": (fig10, report_mod.check_fig10, "response_ms"),
    "fig11a": (fig11a, report_mod.check_fig11a, "response_ms"),
    "fig11b": (fig11b, report_mod.check_fig11b, "response_ms"),
    "fig12": (fig12, report_mod.check_fig12, None),
}


def _run_figures(names: list[str], full: bool, out=sys.stdout) -> int:
    params = FigureParams.paper() if full else FigureParams.quick()
    failures = 0
    for name in names:
        fn, check, metric = _FIGURES[name]
        print(f"== {name} ==", file=out)
        result = fn(params) if name != "fig8" else fn()
        if hasattr(result, "render") and metric:
            print(result.render(metric), file=out)
            if name in ("fig10", "fig11a"):
                print(result.render("deadlocks", fmt="{:.0f}"), file=out)
        elif hasattr(result, "render"):
            print(result.render(), file=out)
        if check is not None:
            try:
                for note in check(result):
                    print(f"  {note}", file=out)
            except AssertionError as exc:
                failures += 1
                print(f"  SHAPE CHECK FAILED: {exc}", file=out)
        print(file=out)
    return failures


def _run_scenario(out=sys.stdout) -> int:
    # Import lazily: the example module is self-contained and printable.
    import contextlib
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "paper_scenario.py")
    path = os.path.normpath(path)
    if not os.path.exists(path):  # installed without examples: inline fallback
        from .config import SystemConfig
        from .core import DTXCluster, Operation, Transaction
        from .update import InsertOp
        from .xml import E, doc

        cfg = SystemConfig().with_(client_think_ms=0.0, detector_interval_ms=50.0,
                                   detector_initial_delay_ms=10.0)
        cluster = DTXCluster(protocol="xdgl", config=cfg)
        d1 = doc("d1", E("people", E("person", E("id", text="4"), E("name", text="Maria"))))
        d2 = doc("d2", E("products", E("product", E("id", text="14"))))
        cluster.add_site("s1", [d1])
        cluster.add_site("s2", [d1, d2])
        t1 = Transaction([Operation.query("d1", "/people/person[id=4]"),
                          Operation.update("d2", InsertOp("<product><id>13</id></product>", "/products"))],
                         label="t1")
        t2 = Transaction([Operation.query("d2", "/products/product"),
                          Operation.update("d1", InsertOp("<person><id>22</id></person>", "/people"))],
                         label="t2")
        cluster.add_client("c1", "s1", [t1])
        cluster.add_client("c2", "s2", [t2])
        res = cluster.run()
        print(res.summary(), file=out)
        return 0
    spec = importlib.util.spec_from_file_location("paper_scenario", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    with contextlib.redirect_stdout(out):
        mod.main()
    return 0


# --------------------------------------------------------------------------
# Shared sweep plumbing: one flag surface, one override path, one emitter.

def _sweep_flags() -> argparse.ArgumentParser:
    """The parent parser every sweep subcommand inherits from."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--full", action="store_true", help="denser sweep")
    common.add_argument(
        "--sites", nargs="+", type=int, default=None, metavar="N",
        help="number of sites (scale: several values form the grid axis)",
    )
    common.add_argument(
        "--clients", nargs="+", type=int, default=None, metavar="N",
        help="number of clients (scale: several values form the grid axis)",
    )
    common.add_argument(
        "--seed", type=int, default=None,
        help="override the simulation seed (default: SystemConfig's)",
    )
    common.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit params, cells and check notes as JSON instead of tables",
    )
    return common


def _fold_common(params, args, grid: bool, out):
    """Apply the shared flags to a sweep's Params; returns (params, error_rc)."""
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    for flag, value in (("sites", args.sites), ("clients", args.clients)):
        if value is None:
            continue
        if grid:
            overrides[f"{flag}_grid"] = tuple(value)
        elif len(value) == 1:
            overrides[f"n_{flag}"] = value[0]
        else:
            print(
                f"error: --{flag} takes one value here (only the scale "
                f"sweep grids over it), got {value}",
                file=out,
            )
            return params, 2
    return (replace(params, **overrides) if overrides else params), None


def _emit_sweep(name, result, check, renders, as_json: bool, out) -> int:
    """Print a sweep result: rendered tables + notes, or one JSON document."""
    if as_json:
        import json
        from dataclasses import asdict

        payload = {
            "sweep": name,
            "params": asdict(result.params),
            "cells": [
                {"cell": list(key) if isinstance(key, tuple) else [key], **metrics}
                for key, metrics in result.cells.items()
            ],
        }
        failed = None
        try:
            payload["check_notes"] = list(check(result))
        except AssertionError as exc:
            failed = str(exc)
            payload["check_notes"] = []
        payload["ok"] = failed is None
        if failed is not None:
            payload["check_error"] = failed
        print(json.dumps(payload, indent=2, default=str), file=out)
        return 0 if failed is None else 1
    print(f"== {name} ==", file=out)
    for metric, fmt in renders:
        print(result.render(metric, fmt), file=out)
        print(file=out)
    try:
        for note in check(result):
            print(f"  {note}", file=out)
    except AssertionError as exc:
        print(f"  SHAPE CHECK FAILED: {exc}", file=out)
        return 1
    return 0


def _run_replication(args, out=sys.stdout) -> int:
    from .experiments.replication import (
        ReplicationSweepParams,
        check_replication_sweep,
        replication_sweep,
    )

    params = ReplicationSweepParams.dense() if args.full else ReplicationSweepParams.from_env()
    params, rc = _fold_common(params, args, grid=False, out=out)
    if rc is not None:
        return rc
    if args.read_policy != params.read_policy:
        params = replace(params, read_policy=args.read_policy)
    return _emit_sweep(
        "replication", replication_sweep(params), check_replication_sweep,
        (("tx_per_s", "{:8.2f}"), ("response_ms", "{:8.2f}"), ("messages", "{:8.0f}")),
        args.as_json, out,
    )


def _run_availability(args, out=sys.stdout) -> int:
    from .experiments.availability import (
        AvailabilitySweepParams,
        availability_sweep,
        check_availability_sweep,
    )

    params = AvailabilitySweepParams.dense() if args.full else AvailabilitySweepParams.from_env()
    params, rc = _fold_common(params, args, grid=False, out=out)
    if rc is not None:
        return rc
    if args.crashes is not None:
        params = replace(params, crash_counts=tuple(args.crashes))
    return _emit_sweep(
        "availability", availability_sweep(params), check_availability_sweep,
        (
            ("tx_per_s", "{:9.2f}"),
            ("committed", "{:9.0f}"),
            ("aborted", "{:9.0f}"),
            ("failed", "{:9.0f}"),
            ("promotions", "{:9.0f}"),
            ("divergent_replicas", "{:9.0f}"),
        ),
        args.as_json, out,
    )


def _run_partitions(args, out=sys.stdout) -> int:
    from .experiments.partitions import (
        PartitionSweepParams,
        check_partition_sweep,
        partition_sweep,
    )

    params = PartitionSweepParams.dense() if args.full else PartitionSweepParams.from_env()
    params, rc = _fold_common(params, args, grid=False, out=out)
    if rc is not None:
        return rc
    if args.lease_timeouts is not None:
        params = replace(params, lease_timeouts=tuple(args.lease_timeouts))
    return _emit_sweep(
        "partitions", partition_sweep(params), check_partition_sweep,
        (
            ("committed", "{:9.0f}"),
            ("aborted", "{:9.0f}"),
            ("failed", "{:9.0f}"),
            ("suspicions", "{:9.0f}"),
            ("false_suspicions", "{:9.0f}"),
            ("elections_won", "{:9.0f}"),
            ("lease_refusals", "{:9.0f}"),
            ("divergent_replicas", "{:9.0f}"),
        ),
        args.as_json, out,
    )


def _run_quorum(args, out=sys.stdout) -> int:
    from .experiments.quorum import (
        QuorumSweepParams,
        check_quorum_sweep,
        quorum_sweep,
    )

    params = QuorumSweepParams.dense() if args.full else QuorumSweepParams.from_env()
    params, rc = _fold_common(params, args, grid=False, out=out)
    if rc is not None:
        return rc
    overrides = {}
    if args.faults is not None:
        overrides["faults"] = tuple(args.faults)
    if args.rw is not None:
        grid = []
        for cell in args.rw:
            try:
                r, w = cell.split(":")
                grid.append((int(r), int(w)))
            except ValueError:
                print(
                    f"error: --rw cells must look like R:W (two integers), "
                    f"got {cell!r}",
                    file=out,
                )
                return 2
        overrides["rw_grid"] = tuple(grid)
    if overrides:
        params = replace(params, **overrides)
    return _emit_sweep(
        "quorum", quorum_sweep(params), check_quorum_sweep,
        (
            ("committed", "{:10.0f}"),
            ("update_response_ms", "{:10.2f}"),
            ("window_update_committed", "{:10.0f}"),
            ("sync_acks_per_commit", "{:10.2f}"),
            ("read_repair_rate", "{:10.2f}"),
            ("divergent_replicas", "{:10.0f}"),
        ),
        args.as_json, out,
    )


def _run_scale(args, out=sys.stdout) -> int:
    from .experiments.scale import (
        ScaleSweepParams,
        check_scale_sweep,
        scale_sweep,
    )

    params = ScaleSweepParams.dense() if args.full else ScaleSweepParams.from_env()
    params, rc = _fold_common(params, args, grid=True, out=out)
    if rc is not None:
        return rc
    overrides = {}
    if args.join_at is not None:
        overrides["join_at_ms"] = args.join_at
    if args.leave_at is not None:
        overrides["leave_at_ms"] = args.leave_at
    if overrides:
        params = replace(params, **overrides)
    return _emit_sweep(
        "scale", scale_sweep(params), check_scale_sweep,
        (
            ("committed", "{:10.0f}"),
            ("response_ms", "{:10.2f}"),
            ("moved_join", "{:10.0f}"),
            ("moved_leave", "{:10.0f}"),
            ("migrations_completed", "{:10.0f}"),
            ("spare_docs", "{:10.0f}"),
            ("divergent_replicas", "{:10.0f}"),
        ),
        args.as_json, out,
    )


def _run_views(args, out=sys.stdout) -> int:
    from .experiments.views import (
        ViewsSweepParams,
        check_views_sweep,
        views_sweep,
    )

    params = ViewsSweepParams.dense() if args.full else ViewsSweepParams.from_env()
    params, rc = _fold_common(params, args, grid=False, out=out)
    if rc is not None:
        return rc
    if args.staleness is not None:
        params = replace(params, staleness_grid=tuple(args.staleness))
    return _emit_sweep(
        "views", views_sweep(params), check_views_sweep,
        (
            ("committed", "{:10.0f}"),
            ("response_ms", "{:10.2f}"),
            ("view_hit_rate", "{:10.2f}"),
            ("staleness_ms", "{:10.2f}"),
            ("lock_ops", "{:10.0f}"),
            ("commit_requests", "{:10.0f}"),
        ),
        args.as_json, out,
    )


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DTX reproduction: run the paper's experiments (Figs. 8-12).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="reproduce the evaluation figures")
    p_fig.add_argument(
        "--only", nargs="+", choices=sorted(_FIGURES), default=sorted(_FIGURES),
        help="subset of figures to run",
    )
    p_fig.add_argument("--full", action="store_true", help="paper-density sweeps")

    sub.add_parser("scenario", help="run the paper's §2.4 worked scenario")
    sub.add_parser("protocols", help="list registered concurrency protocols")

    common = _sweep_flags()

    p_rep = sub.add_parser(
        "replication", parents=[common],
        help="sweep replication factor vs update ratio (ROWA)",
    )
    p_rep.add_argument(
        "--read-policy", choices=("primary", "random", "nearest"),
        default="nearest", help="replica chosen for each read",
    )

    p_avail = sub.add_parser(
        "availability", parents=[common],
        help="eager vs lazy replication under site crashes: throughput, "
        "abort rate, failover and catch-up activity",
    )
    p_avail.add_argument(
        "--crashes", nargs="+", type=int, default=None, metavar="N",
        help="crash counts to sweep (default: 0 1 2)",
    )

    p_part = sub.add_parser(
        "partitions", parents=[common],
        help="lease-based membership under a network split: availability "
        "and consistency across lease timeouts",
    )
    p_part.add_argument(
        "--lease-timeouts", nargs="+", type=float, default=None, metavar="MS",
        help="lease timeouts (ms) to sweep (default: 2 4 8 16)",
    )

    p_quorum = sub.add_parser(
        "quorum", parents=[common],
        help="quorum (R, W) grid vs eager/lazy baselines under partition "
        "and crash schedules: latency, in-window commits, read repair, "
        "divergence",
    )
    p_quorum.add_argument(
        "--faults", nargs="+", choices=("none", "partition", "crash"),
        default=None, help="fault schedules to run (default: partition crash)",
    )
    p_quorum.add_argument(
        "--rw", nargs="+", default=None, metavar="R:W",
        help="quorum cells as R:W pairs (default: 1:3 2:2 3:2)",
    )

    p_scale = sub.add_parser(
        "scale", parents=[common],
        help="hash-ring elasticity: a site joins and another is "
        "decommissioned mid-workload; documents migrate online "
        "(ring-minimal moves, zero divergence)",
    )
    p_scale.add_argument(
        "--join-at", type=float, default=None, metavar="MS",
        help="when the spare site joins the ring (default: 8)",
    )
    p_scale.add_argument(
        "--leave-at", type=float, default=None, metavar="MS",
        help="when the decommissioned site leaves (default: 60)",
    )

    p_views = sub.add_parser(
        "views", parents=[common],
        help="materialized XPath views vs the locked read path: a two-phase "
        "read-heavy scenario per staleness bound; the readonly phase must "
        "serve every read from the view host with zero lock-table "
        "operations and zero 2PC rounds",
    )
    p_views.add_argument(
        "--staleness", nargs="+", type=float, default=None, metavar="MS",
        help="view staleness bounds (ms) to sweep (default: 2 20)",
    )

    # The tracer owns its own argparse surface (repro.obs.cli); register a
    # stub for --help discovery but dispatch before parsing so its flags
    # are defined exactly once.
    sub.add_parser(
        "trace",
        add_help=False,
        help="replay a workload with causal tracing on; writes a "
        "Chrome-trace JSON and prints the critical-path breakdown "
        "(--diff compares two trace files)",
    )

    args_list = list(argv) if argv is not None else sys.argv[1:]
    if args_list[:1] == ["trace"]:
        from .obs.cli import trace_main

        return trace_main(args_list[1:], out=out)

    args = parser.parse_args(argv)
    if args.command == "figures":
        return _run_figures(list(args.only), args.full, out)
    if args.command == "scenario":
        return _run_scenario(out)
    if args.command == "protocols":
        for name in available_protocols():
            print(name, file=out)
        return 0
    sweeps = {
        "replication": _run_replication,
        "availability": _run_availability,
        "partitions": _run_partitions,
        "quorum": _run_quorum,
        "scale": _run_scale,
        "views": _run_views,
    }
    if args.command in sweeps:
        from .errors import ConfigError

        try:
            return sweeps[args.command](args, out)
        except ConfigError as exc:
            print(f"error: {exc}", file=out)
            return 2
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
