"""Benchmark trajectory harness: the repo's canonical perf yardstick.

Every performance PR is judged against the ``BENCH_<n>.json`` files at the
repository root. Each file is one run of this harness — a fixed-seed suite
of wall-clock and simulated-metric probes:

* **lock micro** — raw :class:`~repro.locking.table.LockTable`
  acquire/release throughput (wall-clock ops/sec);
* **kernel micro** — simulation-kernel event throughput (wall-clock
  events/sec, flat-timer path) plus the :func:`probe_kernel` breakdown:
  Timeout-object dispatch, scheduler-queue churn, and message allocation
  raw vs pooled;
* **macro** — a standard mixed replicated workload: wall seconds to run
  it, wall transactions/sec (the regression-check headline), and the
  simulated commit latency;
* **contended** — many writer groups hammering disjoint hot keys of one
  document: wake notices + lock-table operations per committed
  transaction (what ``wake_policy="targeted"`` attacks);
* **high-write** — non-conflicting writers on one replicated document:
  replica-sync messages per committed write (what group commit attacks);
* **latency decomposition** — a traced contended run pushed through the
  :mod:`repro.obs` critical-path analyzer: per-phase shares (lock wait,
  network, execution, 2PC, ...) of committed response time. Simulated
  time only, bit-deterministic per feature set.

The simulated metrics are bit-deterministic per feature set; the state
digests let two runs prove their committed replica states byte-identical.
Wall-clock numbers are machine-dependent — compare them only across runs
on the same hardware, which is what the CI regression check does via
``python -m repro bench --check`` (threshold ``REPRO_BENCH_REGRESSION_PCT``,
default 20; skipped when no ``BENCH_*.json`` baseline exists).

``REPRO_BENCH_ROUNDS`` raises the wall-probe repetition count (best-of is
reported); the harness itself never uses fewer than 3 rounds.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import re
import sys
import time

from ..config import SystemConfig
from ..core.cluster import DTXCluster
from ..core.transaction import Operation, Transaction
from ..locking.modes import XDGL_MATRIX, LockMode
from ..locking.table import LockTable
from ..sim.environment import Environment
from ..update.operations import ChangeOp, InsertOp
from ..workload.generator import WorkloadSpec
from ..xml.builder import E, doc
from ..xml.serializer import serialize_document
from .runner import ExperimentConfig, run_experiment

SCHEMA = 1

#: The two canonical feature sets of the hot-path overhaul. ``baseline``
#: is the pre-optimisation configuration (paper-fidelity broadcast wakes,
#: a zero sync window — one batch round per transaction — and no LockSpec
#: reuse); ``optimized`` turns all three config-gated optimisations on. The process-wide XPath parse
#: memo is structural (not config-gated) and active under both, so
#: baseline wall numbers are, if anything, flattered — the deltas are
#: conservative. BENCH_0.json was recorded with ``baseline``,
#: BENCH_1.json with ``optimized``.
FEATURE_SETS = {
    "baseline": {
        "wake_policy": "broadcast",
        "group_commit_window_ms": 0.0,
        "spec_cache": False,
    },
    "optimized": {
        "wake_policy": "targeted",
        "group_commit_window_ms": 0.5,
        "spec_cache": True,
    },
}


def machine_info() -> dict:
    """The hardware/runtime facts wall-clock numbers depend on.

    Recorded into every BENCH_<n>.json so ``--check`` can tell a real
    regression from a cross-machine comparison (which only warrants a
    warning — wall numbers are only comparable on the same hardware).
    """
    return {
        "cpu_count": os.cpu_count() or 0,
        "python": platform.python_version(),
    }


def bench_rounds(minimum: int = 3) -> int:
    """Wall-probe repetitions: ``REPRO_BENCH_ROUNDS``, floored at 3 here."""
    try:
        rounds = int(os.environ.get("REPRO_BENCH_ROUNDS", "0"))
    except ValueError:
        rounds = 0
    return max(minimum, rounds)


def _best_of(fn, rounds: int) -> tuple[float, object]:
    """Run ``fn`` ``rounds`` times; return (best wall seconds, last result).

    GC is paused around the timed region: a collection landing inside one
    round otherwise dominates the microsecond-scale probes (best-of helps,
    but with few rounds every sample can be hit on a busy machine).
    """
    best = float("inf")
    result = None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best, result


# ----------------------------------------------------------------------
# micro probes (pure wall clock)
# ----------------------------------------------------------------------

def probe_lock_table(n_ops: int = 40_000, rounds: int = 3) -> float:
    """Raw lock-table throughput in operations per second."""
    keys = [("d", ("a", f"k{i}")) for i in range(64)]
    modes = (LockMode.ST, LockMode.IS, LockMode.IX)

    def run() -> None:
        table = LockTable(XDGL_MATRIX)
        per_cycle = len(keys) * len(modes) + len(keys) // 4 + 1
        for cycle in range(max(1, n_ops // per_cycle)):
            tx = f"t{cycle % 8}"
            for key in keys:
                for mode in modes:
                    table.try_acquire(key, tx, mode)
            if cycle % 4 == 3:
                table.release_transaction(tx)

    seconds, _ = _best_of(run, rounds)
    return n_ops / max(seconds, 1e-9)


def probe_sim_kernel(n_events: int = 120_000, rounds: int = 3) -> float:
    """Simulation-kernel event throughput in events per second.

    Measures the kernel's canonical timer form — the flat numeric yield
    (``yield 0.01``), which is what the site hot paths use. The classic
    Timeout-object path is measured separately by :func:`probe_kernel`.
    """

    def run() -> None:
        env = Environment()

        def ticker(n):
            for _ in range(n):
                yield 0.01

        for lane in range(4):
            env.process(ticker(n_events // 4))
        env.run()

    seconds, _ = _best_of(run, rounds)
    return n_events / max(seconds, 1e-9)


def probe_kernel(rounds: int = 3) -> dict:
    """Kernel micro-probes beyond the headline events/s number.

    * ``event_dispatch_per_s`` — the classic Timeout-object path (one event
      allocation per timer), the pre-flat-timer shape of probe_sim_kernel;
    * ``queue_churn_ops_per_s`` — :class:`~repro.sim.queues.SchedulerQueue`
      schedule/cancel/pop churn (timer-wheel style usage with retractions);
    * ``msg_alloc_per_s`` / ``msg_pool_per_s`` — RemoteOpResult construction
      raw vs recycled through a :class:`~repro.core.messages.MessagePool`.
    """
    from ..core.messages import MessagePool, RemoteOpResult
    from ..sim.queues import SchedulerQueue

    n_events = 60_000

    def dispatch() -> None:
        env = Environment()

        def ticker(n):
            for _ in range(n):
                yield env.timeout(0.01)

        for lane in range(4):
            env.process(ticker(n_events // 4))
        env.run()

    dispatch_s, _ = _best_of(dispatch, rounds)

    n_churn = 60_000

    def churn() -> None:
        q = SchedulerQueue()
        handles = []
        for i in range(n_churn):
            handles.append(q.schedule(float(i % 97), i))
            if i % 3 == 2:
                q.cancel(handles[i - 2])
            if i % 7 == 6:
                q.pop()
        while len(q):
            q.pop()

    churn_s, _ = _best_of(churn, rounds)

    n_msgs = 50_000

    def make(pool: MessagePool | None) -> None:
        for i in range(n_msgs):
            if pool is None:
                msg = RemoteOpResult(
                    tid="t", site="s", op_index=i, attempt=0,
                    acquired=True, executed=True, deadlock=False, failed=False,
                )
            else:
                msg = pool.acquire(
                    RemoteOpResult,
                    tid="t", site="s", op_index=i, attempt=0,
                    acquired=True, executed=True, deadlock=False, failed=False,
                )
                pool.release(msg)

    alloc_s, _ = _best_of(lambda: make(None), rounds)
    pool_s, _ = _best_of(lambda: make(MessagePool()), rounds)

    return {
        "event_dispatch_per_s": n_events / max(dispatch_s, 1e-9),
        "queue_churn_ops_per_s": n_churn / max(churn_s, 1e-9),
        "msg_alloc_per_s": n_msgs / max(alloc_s, 1e-9),
        "msg_pool_per_s": n_msgs / max(pool_s, 1e-9),
    }


# ----------------------------------------------------------------------
# macro probe (standard workload: wall throughput + sim latency)
# ----------------------------------------------------------------------

def macro_params(quick: bool = False) -> dict:
    if quick:
        return {"n_sites": 3, "db_bytes": 16_000, "n_clients": 8,
                "tx_per_client": 3, "ops_per_tx": 3, "update_tx_ratio": 0.3}
    return {"n_sites": 4, "db_bytes": 24_000, "n_clients": 12,
            "tx_per_client": 4, "ops_per_tx": 4, "update_tx_ratio": 0.3}


def probe_macro(features: dict, params: dict, rounds: int = 3) -> dict:
    system = SystemConfig().with_(
        replication_factor=2,
        replica_read_policy="nearest",
        replica_write_policy="primary",
        **features,
    )
    cfg = ExperimentConfig(
        n_sites=params["n_sites"],
        db_bytes=params["db_bytes"],
        workload=WorkloadSpec(
            n_clients=params["n_clients"],
            tx_per_client=params["tx_per_client"],
            ops_per_tx=params["ops_per_tx"],
            update_tx_ratio=params["update_tx_ratio"],
        ),
        system=system,
        label="trajectory/macro",
    )
    seconds, result = _best_of(lambda: run_experiment(cfg), rounds)
    return {
        "wall_seconds": seconds,
        "wall_tx_per_s": len(result.committed) / max(seconds, 1e-9),
        "committed": len(result.committed),
        "aborted": len(result.aborted),
        "mean_response_ms": result.mean_response_ms(),
        "messages": result.network_messages,
    }


# ----------------------------------------------------------------------
# contended-writer probe (what targeted wake-ups attack)
# ----------------------------------------------------------------------

def _build_contended(features: dict, groups: int, clients_per_group: int,
                     tx_per_client: int, ops_per_tx: int) -> DTXCluster:
    cfg = SystemConfig().with_(client_think_ms=0.0, **features)
    cluster = DTXCluster(protocol="xdgl", config=cfg)
    hot = doc("hot", E("hot", *[E(f"v{i}", text="0") for i in range(groups)]))
    cluster.add_site("s1", [hot])
    cluster.add_site("s2", [hot])
    cluster.add_site("s3", [])  # pure coordinator site: every wake is a notice
    n = 0
    for g in range(groups):
        for c in range(clients_per_group):
            txs = [
                Transaction(
                    [
                        Operation.update("hot", ChangeOp(f"/hot/v{g}", "x"))
                        for _ in range(ops_per_tx)
                    ],
                    label=f"g{g}c{c}t{t}",
                )
                for t in range(tx_per_client)
            ]
            cluster.add_client(f"c{n}", "s3", txs)
            n += 1
    return cluster


def probe_contended(features: dict, quick: bool = False) -> dict:
    """Disjoint writer groups on one document, all coordinators remote.

    Writers within a group conflict (same X target); groups are mutually
    compatible, so a broadcast wake on any commit is pure waste for every
    other group. The ChangeOp payload is a constant, making the final
    state independent of commit order — the digest must match across wake
    policies for the same seed.
    """
    if quick:
        shape = dict(groups=8, clients_per_group=4, tx_per_client=2, ops_per_tx=6)
    else:
        shape = dict(groups=16, clients_per_group=8, tx_per_client=2, ops_per_tx=8)
    t0 = time.perf_counter()
    cluster = _build_contended(features, **shape)
    result = cluster.run()
    seconds = time.perf_counter() - t0
    wake_notices = sum(s.wake_notices_sent for s in result.site_stats.values())
    lock_ops = sum(site.lock_manager.table.lock_ops for site in cluster.sites.values())
    spec_hits = sum(s.spec_cache_hits for s in result.site_stats.values())
    committed = max(1, len(result.committed))
    digest = hashlib.sha256()
    for sid in ("s1", "s2"):
        digest.update(serialize_document(cluster.document_at(sid, "hot")).encode())
    return {
        "wall_seconds": seconds,
        "committed": len(result.committed),
        "aborted": len(result.aborted),
        "wake_notices": wake_notices,
        "lock_ops": lock_ops,
        "wake_plus_lock_ops_per_commit": (wake_notices + lock_ops) / committed,
        "spec_cache_hits": spec_hits,
        "state_digest": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# latency decomposition (repro.obs critical-path analyzer)
# ----------------------------------------------------------------------

def probe_latency_decomposition(features: dict) -> dict:
    """Trace a small contended run and decompose committed latency.

    Purely simulated-time output (phase shares of the critical path), so
    the section is bit-deterministic per feature set like the other sim
    metrics — it answers "where does a committed transaction's response
    time go under this feature set", not "how fast is this machine".
    """
    from ..obs import critical_path_report

    cluster = _build_contended(
        dict(features, tracing=True),
        groups=8, clients_per_group=4, tx_per_client=2, ops_per_tx=6,
    )
    result = cluster.run()
    report = critical_path_report(result.spans, per_tx_limit=0)
    return {
        "transactions": report["transactions"],
        "committed": report["committed"],
        "mean_ms": report["mean_ms"],
        "p50_ms": report["p50_ms"],
        "p95_ms": report["p95_ms"],
        "phase_share": report["phase_share"],
        "p95_phase_share": report["p95_phase_share"],
    }


# ----------------------------------------------------------------------
# high-write-load probe (what group commit attacks)
# ----------------------------------------------------------------------

def probe_high_write(features: dict, quick: bool = False) -> dict:
    """Non-conflicting writers on one replicated document.

    Each client inserts into its own container, so commits overlap and the
    group-commit window can coalesce their sync rounds. The per-container
    insert streams are single-writer, so the final replica state is
    independent of cross-client interleaving — the digest must match with
    the window on or off for the same seed.
    """
    clients, tx_per_client = (8, 4) if quick else (16, 6)
    cfg = SystemConfig().with_(
        client_think_ms=0.0,
        replica_write_policy="primary",
        replica_read_policy="nearest",
        **features,
    )
    cluster = DTXCluster(protocol="xdgl", config=cfg)
    hot = doc("hot", E("hot", *[E(f"c{i}") for i in range(clients)]))
    sites = ["s1", "s2", "s3"]
    for sid in sites:
        cluster.add_site(sid)
    cluster.replicate_document(hot, sites)
    for i in range(clients):
        txs = [
            Transaction(
                [Operation.update("hot", InsertOp(f"<e><t>{t}</t></e>", f"/hot/c{i}"))],
                label=f"c{i}t{t}",
            )
            for t in range(tx_per_client)
        ]
        cluster.add_client(f"cl{i}", "s1", txs)
    t0 = time.perf_counter()
    result = cluster.run()
    seconds = time.perf_counter() - t0
    sync_messages = cluster.network.stats.by_kind.get("ReplicaSyncBatch", 0)
    committed = max(1, len(result.committed))
    digest = hashlib.sha256()
    for sid in sites:
        digest.update(serialize_document(cluster.document_at(sid, "hot")).encode())
    return {
        "wall_seconds": seconds,
        "committed": len(result.committed),
        "aborted": len(result.aborted),
        "failed": len(result.failed),
        "sync_messages": sync_messages,
        "sync_messages_per_commit": sync_messages / committed,
        "group_batches": sum(s.group_batches_sent for s in result.site_stats.values()),
        "mean_response_ms": result.mean_response_ms(),
        "state_digest": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# quorum probe (versioned quorum reads/writes + read repair)
# ----------------------------------------------------------------------

def probe_quorum(features: dict, quick: bool = False) -> dict:
    """Quorum regime probe: ack discipline on writes, repair on reads.

    One document replicated at three sites under ``R=3, W=2``. Phase 1 is
    a write burst with one secondary refusing its syncs — every commit
    settles at W=2 durable copies (primary + one ack) and the refusing
    replica falls behind. Phase 2 reads through the version-probe path:
    R=3 reports reveal the straggler, read repair nudges it, and by the
    drain every replica is byte-identical again. Deterministic per seed:
    ``sync_acks_per_commit`` (how many remote acks a quorum commit
    actually waited for) and ``read_repair_rate`` (repairs per quorum
    read) are the trajectory's quorum fingerprint, and the digest proves
    convergence.
    """
    writers, writes_each, reads = (4, 2, 6) if quick else (8, 3, 12)
    cfg = SystemConfig().with_(
        client_think_ms=0.0,
        replication_factor=3,
        replica_read_policy="quorum",
        replica_write_policy="quorum",
        read_quorum_r=3,
        write_quorum_w=2,
        **features,
    )
    cluster = DTXCluster(protocol="xdgl", config=cfg)
    hot = doc("hot", E("hot", *[E(f"c{i}") for i in range(writers)]))
    sites = ["s1", "s2", "s3"]
    for sid in sites:
        cluster.add_site(sid)
    cluster.replicate_document(hot, sites)
    cluster.start()
    t0 = time.perf_counter()
    write_outcomes: list = []
    read_outcomes: list = []
    cluster.sites["s3"].refuse_sync.add("*")
    for i in range(writers):
        for t in range(writes_each):
            tx = Transaction(
                [Operation.update("hot", InsertOp(f"<e><t>{t}</t></e>", f"/hot/c{i}"))],
                label=f"w{i}.{t}",
            )
            cluster.sites["s1"].submit(tx, write_outcomes.append)
    cluster.env.run(until=cluster.env.now + 30.0)
    cluster.sites["s3"].refuse_sync.discard("*")
    for r in range(reads):
        tx = Transaction(
            [Operation.query("hot", f"/hot/c{r % writers}")], label=f"r{r}"
        )
        cluster.sites["s2"].submit(tx, read_outcomes.append)
    cluster.env.run(until=cluster.env.now + 60.0)
    seconds = time.perf_counter() - t0
    committed_writes = sum(1 for o in write_outcomes if o.committed)
    committed = committed_writes + sum(1 for o in read_outcomes if o.committed)
    stats = [site.stats for site in cluster.sites.values()]
    sync_acks = sum(s.sync_acks_awaited for s in stats)
    quorum_reads = sum(s.quorum_reads for s in stats)
    repairs = sum(s.read_repairs_sent for s in stats)
    texts = [serialize_document(cluster.document_at(sid, "hot")) for sid in sites]
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return {
        "wall_seconds": seconds,
        "committed": committed,
        "wall_tx_per_s": committed / max(seconds, 1e-9),
        "sync_acks_awaited": sync_acks,
        "sync_acks_per_commit": sync_acks / max(1, committed_writes),
        "version_probes": sum(s.version_probes_sent for s in stats),
        "quorum_reads": quorum_reads,
        "read_repairs": repairs,
        "read_repair_rate": repairs / max(1, quorum_reads),
        # Read repair + anti-entropy must have reconciled the refused-sync
        # straggler by the drain: anything nonzero here is a regression.
        "divergent_replicas": sum(1 for text in texts if text != texts[0]),
        "state_digest": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# materialized-view probe (lock-free reads off asynchronously-fed shadows)
# ----------------------------------------------------------------------

def probe_views(features: dict, quick: bool = False) -> dict:
    """Materialized-view regime probe: write burst, then view-served reads.

    One document replicated at two sites, a ``/hot/*`` view hosted at a
    third. Phase 1 is a write burst off the primary (the shadow is fed by
    ``ViewDeltaBatch`` pushes); phase 2, after a settle window, submits
    read-only transactions at a fourth site that are answered entirely by
    the view host — zero lock-table operations and zero CommitRequests for
    the whole phase, asserted in the returned dict as deltas. The state
    digest covers both replicas *and* the view shadow, proving the
    asynchronous maintenance converged to the primary's bytes.
    """
    writers, writes_each, reads = (4, 2, 8) if quick else (8, 3, 16)
    cfg = SystemConfig().with_(
        client_think_ms=0.0,
        replication_factor=2,
        replica_read_policy="primary",
        replica_write_policy="primary",
        view_staleness_ms=30.0,
        view_refresh_ms=2.0,
        **features,
    )
    cluster = DTXCluster(protocol="xdgl", config=cfg)
    hot = doc("hot", E("hot", *[E(f"c{i}") for i in range(writers)]))
    for sid in ("s1", "s2", "s3", "s4"):
        cluster.add_site(sid)
    cluster.replicate_document(hot, ["s1", "s2"])
    cluster.register_view("hot-view", "/hot/*", ["hot"], host="s3")
    cluster.start()
    t0 = time.perf_counter()
    write_outcomes: list = []
    read_outcomes: list = []
    for i in range(writers):
        for t in range(writes_each):
            tx = Transaction(
                [Operation.update("hot", InsertOp(f"<e><t>{t}</t></e>", f"/hot/c{i}"))],
                label=f"w{i}.{t}",
            )
            cluster.sites["s1"].submit(tx, write_outcomes.append)
    cluster.env.run(until=cluster.env.now + 40.0)  # writes + shadow catch-up
    lock_ops_before = sum(
        site.lock_manager.table.lock_ops for site in cluster.sites.values()
    )
    commits_before = cluster.network.stats.by_kind.get("CommitRequest", 0)
    read_t0 = time.perf_counter()
    sim_t0 = cluster.env.now
    for r in range(reads):
        tx = Transaction(
            [Operation.query("hot", f"/hot/c{r % writers}")], label=f"r{r}"
        )
        cluster.sites["s4"].submit(tx, read_outcomes.append)
    cluster.env.run(until=cluster.env.now + 60.0)
    read_seconds = time.perf_counter() - read_t0
    seconds = time.perf_counter() - t0
    committed_reads = sum(1 for o in read_outcomes if o.committed)
    stats = [site.stats for site in cluster.sites.values()]
    served = sum(s.view_reads_served for s in stats)
    routed = sum(s.view_reads_routed for s in stats)
    fallbacks = sum(s.view_read_fallbacks for s in stats)
    batches = sum(s.view_delta_batches for s in stats)
    coalesced = sum(s.view_deltas_coalesced for s in stats)
    texts = [serialize_document(cluster.document_at(sid, "hot")) for sid in ("s1", "s2")]
    shadow = cluster.sites["s3"].views.states["hot"].doc
    texts.append(serialize_document(shadow) if shadow is not None else "")
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return {
        "wall_seconds": seconds,
        "wall_read_tx_per_s": committed_reads / max(read_seconds, 1e-9),
        "committed_writes": sum(1 for o in write_outcomes if o.committed),
        "committed_reads": committed_reads,
        "view_reads_served": served,
        "view_hit_rate": routed / max(1, routed + fallbacks),
        "deltas_coalesced_per_batch": coalesced / max(1, batches),
        "mean_staleness_at_serve_ms": (
            sum(s.view_staleness_sum_ms for s in stats) / served if served else 0.0
        ),
        "read_phase_sim_ms": cluster.env.now - sim_t0,
        # The regime's receipt: the read phase must be entirely lock-free
        # and 2PC-free. Anything nonzero here is a regression.
        "read_phase_lock_ops": (
            sum(site.lock_manager.table.lock_ops for site in cluster.sites.values())
            - lock_ops_before
        ),
        "read_phase_commit_requests": (
            cluster.network.stats.by_kind.get("CommitRequest", 0) - commits_before
        ),
        "shadow_matches_primary": texts[2] == texts[0],
        "state_digest": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# trajectory assembly and canonical files
# ----------------------------------------------------------------------

def run_trajectory(features_name: str = "optimized", quick: bool = False) -> dict:
    """Run every probe under one feature set; return the canonical dict."""
    features = dict(FEATURE_SETS[features_name])
    rounds = bench_rounds()
    params = macro_params(quick)
    macro = probe_macro(features, params, rounds=rounds)
    contended = probe_contended(features, quick=quick)
    high_write = probe_high_write(features, quick=quick)
    quorum = probe_quorum(features, quick=quick)
    views = probe_views(features, quick=quick)
    latency = probe_latency_decomposition(features)
    return {
        "schema": SCHEMA,
        "features": {"name": features_name, **features},
        "quick": quick,
        "rounds": rounds,
        "machine": machine_info(),
        "macro_params": params,
        "wall": {
            "lock_table_ops_per_s": probe_lock_table(rounds=rounds),
            "sim_events_per_s": probe_sim_kernel(rounds=rounds),
            **{f"kernel_{k}": v for k, v in probe_kernel(rounds=rounds).items()},
            "macro_seconds": macro["wall_seconds"],
            "macro_tx_per_s": macro["wall_tx_per_s"],
            "contended_seconds": contended["wall_seconds"],
            "high_write_seconds": high_write["wall_seconds"],
            "quorum_seconds": quorum["wall_seconds"],
            "quorum_tx_per_s": quorum["wall_tx_per_s"],
            "views_seconds": views["wall_seconds"],
            "views_read_tx_per_s": views["wall_read_tx_per_s"],
        },
        "sim": {
            "macro": {k: v for k, v in macro.items() if not k.startswith("wall_")},
            "contended": {k: v for k, v in contended.items() if k != "wall_seconds"},
            "high_write": {k: v for k, v in high_write.items() if k != "wall_seconds"},
            "quorum": {
                k: v
                for k, v in quorum.items()
                if k not in ("wall_seconds", "wall_tx_per_s")
            },
            "views": {
                k: v
                for k, v in views.items()
                if k not in ("wall_seconds", "wall_read_tx_per_s")
            },
            "latency_decomposition": latency,
        },
    }


_BENCH_RE = re.compile(r"BENCH_(\d+)\.json$")


def bench_files(directory: str = ".") -> list[tuple[int, str]]:
    """(n, path) for every canonical BENCH_<n>.json, ascending by n."""
    out = []
    for path in glob.glob(os.path.join(directory, "BENCH_*.json")):
        m = _BENCH_RE.search(os.path.basename(path))
        if m:
            out.append((int(m.group(1)), path))
    return sorted(out)


def next_bench_path(directory: str = ".") -> str:
    existing = bench_files(directory)
    n = existing[-1][0] + 1 if existing else 0
    return os.path.join(directory, f"BENCH_{n}.json")


def latest_bench(directory: str = ".") -> dict | None:
    existing = bench_files(directory)
    if not existing:
        return None
    with open(existing[-1][1]) as fh:
        data = json.load(fh)
    data["_path"] = existing[-1][1]
    return data


def write_bench(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def regression_threshold_pct() -> float:
    try:
        return float(os.environ.get("REPRO_BENCH_REGRESSION_PCT", "20"))
    except ValueError:
        return 20.0


def check_regression(baseline: dict, out=sys.stdout) -> int:
    """Re-run the wall probes against a committed baseline file.

    Re-uses the baseline's feature set and macro parameters so the
    comparison is apples-to-apples; fails (returns 1) when any wall
    throughput metric regressed by more than the threshold.
    """
    pct = regression_threshold_pct()
    # Cross-machine comparisons only warn: wall numbers are meaningless
    # across hardware, and the gate should say so rather than cry wolf.
    base_machine = baseline.get("machine")
    if isinstance(base_machine, dict):
        here = machine_info()
        drift = [
            f"{key} {base_machine.get(key)!r} -> {here.get(key)!r}"
            for key in sorted(here)
            if base_machine.get(key) != here.get(key)
        ]
        if drift:
            print(
                "  warning: baseline recorded on different machine "
                f"({', '.join(drift)}) — wall comparisons may be noise",
                file=out,
            )
    else:
        print(
            "  note: baseline has no machine metadata (older schema); "
            "cannot tell whether this is the same hardware",
            file=out,
        )
    baseline_wall = baseline.get("wall")
    if not isinstance(baseline_wall, dict):
        print(
            f"bench check failed: {baseline.get('_path', 'baseline')} has no "
            f"'wall' section — not a trajectory file (re-record with "
            f"`python -m repro bench`)",
            file=out,
        )
        return 1
    features = {
        k: v for k, v in baseline.get("features", {}).items() if k != "name"
    } or FEATURE_SETS["optimized"]
    rounds = bench_rounds()
    params = baseline.get("macro_params", macro_params())
    current = {
        "lock_table_ops_per_s": probe_lock_table(rounds=rounds),
        "sim_events_per_s": probe_sim_kernel(rounds=rounds),
        # Kernel micro metrics gate from the first baseline that records
        # them (BENCH_3 on); older baselines without a metric get an
        # explicit "skipped" line below rather than a silent pass.
        **{f"kernel_{k}": v for k, v in probe_kernel(rounds=rounds).items()},
        "macro_tx_per_s": probe_macro(features, params, rounds=rounds)["wall_tx_per_s"],
        # Quorum wall throughput joins the gate from BENCH_2 on, the view
        # read throughput from BENCH_4 on. Each probe re-runs at the
        # baseline's own density so the comparison stays apples-to-apples,
        # like the macro params above.
        "quorum_tx_per_s": probe_quorum(
            features, quick=baseline.get("quick", False)
        )["wall_tx_per_s"],
        "views_read_tx_per_s": probe_views(
            features, quick=baseline.get("quick", False)
        )["wall_read_tx_per_s"],
    }
    failures = []
    for metric, now in current.items():
        base = baseline_wall.get(metric)
        if base is None or base <= 0:
            print(
                f"  {metric}: skipped — not recorded in "
                f"{baseline.get('_path', 'baseline')} (older schema)",
                file=out,
            )
            continue
        change = 100.0 * (now - base) / base
        verdict = "ok"
        if now < base * (1.0 - pct / 100.0):
            verdict = "REGRESSED"
            failures.append(metric)
        print(
            f"  {metric}: baseline {base:,.0f} -> current {now:,.0f} "
            f"({change:+.1f}%) [{verdict}]",
            file=out,
        )
    if failures:
        print(
            f"bench regression: {', '.join(failures)} dropped more than "
            f"{pct:.0f}% below {baseline.get('_path', 'baseline')}",
            file=out,
        )
        return 1
    print(f"bench check passed (threshold {pct:.0f}%)", file=out)
    return 0


def render(data: dict, out=sys.stdout) -> None:
    wall, sim = data["wall"], data["sim"]
    print(f"trajectory [{data['features']['name']}] "
          f"(quick={data['quick']}, rounds={data['rounds']})", file=out)
    print(f"  wall: lock table {wall['lock_table_ops_per_s']:,.0f} ops/s, "
          f"kernel {wall['sim_events_per_s']:,.0f} events/s, "
          f"macro {wall['macro_tx_per_s']:,.1f} tx/s "
          f"({wall['macro_seconds']:.3f}s)", file=out)
    if "kernel_event_dispatch_per_s" in wall:
        print(f"  kernel micro: dispatch {wall['kernel_event_dispatch_per_s']:,.0f} ev/s, "
              f"queue churn {wall['kernel_queue_churn_ops_per_s']:,.0f} ops/s, "
              f"msg alloc {wall['kernel_msg_alloc_per_s']:,.0f}/s "
              f"(pooled {wall['kernel_msg_pool_per_s']:,.0f}/s)", file=out)
    c = sim["contended"]
    print(f"  contended: {c['committed']} committed, "
          f"{c['wake_plus_lock_ops_per_commit']:.1f} wake notices + lock ops "
          f"per commit ({c['wake_notices']} notices, {c['lock_ops']} lock ops, "
          f"{c['spec_cache_hits']} spec-cache hits)", file=out)
    h = sim["high_write"]
    print(f"  high-write: {h['committed']} committed, "
          f"{h['sync_messages_per_commit']:.2f} sync messages per commit "
          f"({h['sync_messages']} messages, {h['group_batches']} batches), "
          f"commit latency {h['mean_response_ms']:.2f} ms", file=out)
    q = sim.get("quorum")
    if q:
        print(f"  quorum: {q['committed']} committed, "
              f"{q['sync_acks_per_commit']:.2f} sync acks awaited per commit, "
              f"{q['quorum_reads']} quorum reads "
              f"({q['read_repair_rate']:.2f} read-repair rate, "
              f"{q['read_repairs']} repairs)", file=out)
    lat = sim.get("latency_decomposition")
    if lat:
        shares = sorted(lat["phase_share"].items(), key=lambda kv: -kv[1])
        parts = "  ".join(
            f"{p} {s * 100.0:.1f}%" for p, s in shares if s >= 0.0005
        )
        print(f"  latency decomposition (contended, committed): "
              f"p95 {lat['p95_ms']:.2f} ms; {parts}", file=out)
    v = sim.get("views")
    if v:
        print(f"  views: {v['committed_reads']} reads committed "
              f"(hit rate {v['view_hit_rate']:.2f}, "
              f"{v['deltas_coalesced_per_batch']:.2f} deltas/batch, "
              f"staleness at serve {v['mean_staleness_at_serve_ms']:.2f} ms), "
              f"read phase: {v['read_phase_lock_ops']} lock ops, "
              f"{v['read_phase_commit_requests']} 2PC rounds", file=out)


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the benchmark trajectory harness (BENCH_<n>.json).",
    )
    parser.add_argument(
        "--features", choices=sorted(FEATURE_SETS), default="optimized",
        help="hot-path feature set to measure (default: optimized)",
    )
    parser.add_argument("--quick", action="store_true", help="smaller probes")
    parser.add_argument(
        "--dir", default=".", help="directory holding BENCH_<n>.json files"
    )
    parser.add_argument("--out", default=None, help="explicit output path")
    parser.add_argument(
        "--no-write", action="store_true", help="run and print, write nothing"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="regression mode: compare wall throughput against the latest "
        "BENCH_<n>.json (skipped when none exists); writes nothing",
    )
    args = parser.parse_args(argv)

    if args.check:
        baseline = latest_bench(args.dir)
        if baseline is None:
            print("bench check skipped: no BENCH_*.json baseline found", file=out)
            return 0
        print(f"bench check against {baseline['_path']}", file=out)
        return check_regression(baseline, out=out)

    data = run_trajectory(args.features, quick=args.quick)
    render(data, out=out)
    if not args.no_write:
        path = args.out or next_bench_path(args.dir)
        write_bench(data, path)
        print(f"wrote {path}", file=out)
    return 0
