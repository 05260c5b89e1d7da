"""Metric declarations: the names every later performance claim is judged on.

``END_TO_END`` and ``PER_LAYER`` are the single source for the root
``BENCHMARK.json`` (see :func:`manifest`), for what a run emits, and for
the bounds ``--agree`` applies. A metric that does not apply to a workload
(views on a workload without views, a transaction class the workload never
submits) reads ``0``: the driver's contract wants every declared name on
every workload.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

from .workloads import WORKLOADS

#: Seconds one driver run measures (``BENCHMARK.json: run_seconds``); the
#: repetition counts in ``workloads.py`` are sized against it.
RUN_SECONDS = 15

COMMAND = ["python3", "benchmarks/dtxbench/run.py"]
PATHS = ["benchmarks/dtxbench"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only; per-layer metrics carry no bound).
    bound: Optional[float] = None
    #: Simulated-time metric: repeats exactly for a seed, so two runs of one
    #: commit that differ in it are a benchmark failure, not noise.
    exact: bool = False


# Bounds are relative (the driver's contract), at most 0.25, and sized to
# the seed-to-seed spread measured when the benchmark was defined: the
# driver refuses a benchmark whose spread over ten seeds exceeds a bound.
# README.md lists the measured spreads.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("cal_tx_per_s", "tx/s", "higher", 0.25),
    Metric("sim_tx_per_s", "tx/s", "higher", 0.25, exact=True),
    Metric("sim_resp_p50_ms", "ms", "lower", 0.25, exact=True),
    Metric("sim_resp_p95_ms", "ms", "lower", 0.25, exact=True),
    Metric("committed_share", "ratio", "higher", 0.02, exact=True),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)


def _span(entry: str) -> tuple:
    return (Metric(f"{entry}.calls", "count", "lower"), Metric(f"{entry}.self_s", "s", "lower"))


def _counts(*names: str) -> tuple:
    return tuple(Metric(n, "count", "lower") for n in names)


def _per_commit(*names: str) -> tuple:
    return tuple(Metric(n, "count/tx", "lower") for n in names)


PER_LAYER = (
    # End-to-end in kind, but not fit for the driver's bounded list: raw
    # wall throughput drifts with the machine by more than any bound, p99
    # scatters over seeds by up to 17 %, a transaction class can be empty
    # and the failed share can be 0.
    Metric("wall_tx_per_s", "tx/s", "higher"),
    Metric("sim_resp_p99_ms", "ms", "lower"),
    Metric("sim_read_resp_p95_ms", "ms", "lower"),
    Metric("sim_update_resp_p95_ms", "ms", "lower"),
    Metric("failed_share", "ratio", "lower"),
    # xml
    *_span("xml.serialize"),
    Metric("xml.serialize.kb", "KB", "lower"),
    *_span("xml.parse"),
    *_span("xml.clone"),
    Metric("xml.share", "ratio", "lower"),
    # xpath
    *_span("xpath.evaluate"),
    Metric("xpath.evaluate.us_per_call", "us", "lower"),
    *_span("xpath.parse"),
    Metric("xpath.parse_cache_hit_rate", "ratio", "higher"),
    Metric("xpath.share", "ratio", "lower"),
    # dataguide
    *_span("dataguide.match"),
    *_span("dataguide.maintain"),
    Metric("dataguide.nodes", "count", "lower"),
    Metric("dataguide.share", "ratio", "lower"),
    # update
    *_span("update.apply"),
    Metric("update.undo_ops", "count", "lower"),
    Metric("update.share", "ratio", "lower"),
    # protocols
    *_span("protocols.lock_spec"),
    Metric("protocols.spec_cache_hit_rate", "ratio", "higher"),
    Metric("protocols.share", "ratio", "lower"),
    # locking
    *_span("locking.acquire"),
    *_span("locking.release"),
    Metric("locking.lock_ops_per_commit", "count/tx", "lower"),
    Metric("locking.blocked_ratio", "ratio", "lower"),
    Metric("locking.peak_lock_count", "count", "lower"),
    Metric("locking.share", "ratio", "lower"),
    # deadlock
    *_span("deadlock.wfg"),
    *_counts("deadlock.local", "deadlock.distributed", "deadlock.detector_sweeps"),
    Metric("deadlock.share", "ratio", "lower"),
    # storage
    *_span("storage.store"),
    Metric("storage.store_kb_per_commit", "KB/tx", "lower"),
    Metric("storage.share", "ratio", "lower"),
    # sim
    *_span("sim.network_send"),
    Metric("sim.msgs_per_commit", "count/tx", "lower"),
    Metric("sim.kb_per_commit", "KB/tx", "lower"),
    Metric("sim.share", "ratio", "lower"),
    # core
    Metric("core.residual_s", "s", "lower"),
    Metric("core.residual_share", "ratio", "lower"),
    Metric("core.ops_executed", "count", "lower"),
    *_per_commit(
        "core.ops_blocked_per_commit",
        "core.wake_notices_per_commit",
        "core.waiter_wakes_per_commit",
        "core.commit_msgs_per_commit",
        "core.sync_msgs_per_commit",
    ),
    Metric("core.group_batched_syncs", "count", "higher"),
    # distribution
    Metric("distribution.sync_acks_per_commit", "count/tx", "lower"),
    *_counts(
        "distribution.quorum_reads",
        "distribution.version_probes",
        "distribution.read_repairs",
        "distribution.heartbeats",
        "distribution.false_suspicions",
        "distribution.log_entries_compacted",
    ),
    # views
    Metric("views.hit_rate", "ratio", "higher"),
    Metric("views.reads_served", "count", "higher"),
    *_counts("views.fallbacks", "views.deltas_applied"),
    Metric("views.deltas_per_batch", "count", "higher"),
    Metric("views.mean_staleness_ms", "ms", "lower"),
    # obs: where a committed transaction's simulated response time goes
    *(
        Metric(f"simphase.{phase}", "ratio", "lower")
        for phase in ("lock_wait", "network", "exec", "sync", "2pc", "view", "coord", "other")
    ),
    Metric("obs.tracing_overhead_ratio", "ratio", "lower"),
    Metric("bench.trace_overhead_ratio", "ratio", "lower"),
)


def manifest() -> dict:
    """The root ``BENCHMARK.json``, in the driver contract's schema."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way the driver takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
