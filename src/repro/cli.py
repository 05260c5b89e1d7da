"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro figures                 # Figs. 8-12 + the granularity ablation
    python -m repro figures --only fig9 fig12 granularity
    python -m repro figures --full          # paper-density sweeps
    python -m repro scenario                # the §2.4 worked example
    python -m repro protocols               # list registered protocols
    python -m repro replication             # ROWA factor x update-ratio sweep
    python -m repro availability            # eager vs lazy under crashes
    python -m repro partitions              # lease-timeout sweep under a network split
    python -m repro quorum                  # (R, W) grid vs eager/lazy under faults
    python -m repro scale                   # hash-ring elasticity: join + decommission
    python -m repro views                   # materialized views vs the locked read path
    python -m repro trace                   # traced replay -> trace.json + critical path
    python -m repro trace --diff A.json B.json  # compare two traces' breakdowns

The sweep subcommands are generated from ``repro.experiments.sweeps.SWEEPS``
and share one flag surface: ``--full`` (denser grid), ``--sites`` /
``--clients`` (workload size), ``--seed`` (override the SystemConfig seed)
and ``--json`` (machine-readable cells instead of tables), plus the flags
of the sweep's own parameters. ``scale`` grids over sites x clients, so its
``--sites``/``--clients`` accept several values; the other sweeps take
exactly one. Bad values exit 2 before any cell runs.
"""

from __future__ import annotations

import argparse
import sys

from . import available_protocols
from .errors import ConfigError
from .experiments import (
    FigureParams,
    fig8,
    fig9,
    fig10,
    fig11a,
    fig11b,
    fig12,
    granularity,
)
from .experiments import report as report_mod
from .experiments.sweeps import SWEEPS, Sweep, emit, run_sweep

_FIGURES = {
    "fig8": (fig8, None, None),
    "fig9": (fig9, report_mod.check_fig9, "response_ms"),
    "fig10": (fig10, report_mod.check_fig10, "response_ms"),
    "fig11a": (fig11a, report_mod.check_fig11a, "response_ms"),
    "fig11b": (fig11b, report_mod.check_fig11b, "response_ms"),
    "fig12": (fig12, report_mod.check_fig12, None),
    "granularity": (granularity, report_mod.check_granularity, None),
}

#: Entries of ``_FIGURES`` whose workload does not depend on ``--full``.
_FIXED = ("fig8", "granularity")

_SHARED_HELP = {
    "sites": "number of sites (scale: several values form the grid axis)",
    "clients": "number of clients (scale: several values form the grid axis)",
    "seed": "override the simulation seed (default: SystemConfig's)",
}


def _run_figures(names: list[str], full: bool, out=sys.stdout) -> int:
    params = FigureParams.paper() if full else FigureParams.quick()
    failures = 0
    for name in names:
        fn, check, metric = _FIGURES[name]
        print(f"== {name} ==", file=out)
        result = fn() if name in _FIXED else fn(params)
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


def _add_sweep(sub, sweep: Sweep) -> None:
    """One subcommand per sweep entry, its flags generated from the table."""
    p = sub.add_parser(sweep.name, help=sweep.help)
    p.add_argument("--full", action="store_true", help="denser grid")
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit params, cells and check notes as JSON instead of tables",
    )
    for name, flag in sweep.flags().items():
        param = sweep.params[name]
        p.add_argument(
            flag, dest=name, default=None,
            nargs="+" if name in sweep.axes or name in ("sites", "clients") else None,
            choices=param.choices or None,
            metavar=None if param.choices else param.metavar,
            help=param.help or _SHARED_HELP[name],
        )


def _run_sweep(sweep: Sweep, args, out) -> int:
    raw = {name: getattr(args, name) for name in sweep.flags()}
    try:
        overrides = sweep.parse_flags({k: v for k, v in raw.items() if v is not None})
        result = run_sweep(sweep, args.full, **overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=out)
        return 2
    return emit(result, args.as_json, out)


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DTX reproduction: run the paper's experiments (Figs. 8-12).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser(
        "figures", help="reproduce the evaluation figures and the granularity ablation"
    )
    p_fig.add_argument(
        "--only", nargs="+", choices=sorted(_FIGURES), default=sorted(_FIGURES),
        help="subset of figures to run",
    )
    p_fig.add_argument("--full", action="store_true", help="paper-density sweeps")

    sub.add_parser("scenario", help="run the paper's §2.4 worked scenario")
    sub.add_parser("protocols", help="list registered concurrency protocols")

    for sweep in SWEEPS.values():
        _add_sweep(sub, sweep)

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
    if args.command in SWEEPS:
        return _run_sweep(SWEEPS[args.command], args, out)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
