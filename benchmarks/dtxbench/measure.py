"""One driver run: repetitions of a workload, the correctness gate, the metrics.

A run with ``--seed n`` executes a fixed number of *repetitions* of the
workload, repetition ``k`` on sub-seed ``n * 1000 + k``. Each repetition
builds a fresh cluster, runs it to completion and passes the correctness
gate. Simulated-time metrics pool the client records of all repetitions
(fixed work, so they repeat exactly for a seed); wall-clock metrics are
medians over the repetitions.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core.site import SNAPSHOT_STAT_FIELDS, aggregate_site_stats
from repro.errors import ReproError
from repro.obs import PHASES, critical_path_report
from repro.xml.serializer import serialize_document
from repro.xpath.parser import clear_parse_cache, parse_cache_stats

from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS, percentile, ratio
from .spans import TARGETS, SpanRecorder, aggregate, layer_of, wrapped_leftovers
from .workloads import QUICK_SCALE, Workload

#: Clusters built (and timed) per repetition; the last one is run. Several
#: set-ups per repetition give ``setup_s`` a steady median.
SETUPS_PER_REPETITION = 2

COMMIT_KINDS = ("CommitRequest", "CommitAck", "AbortRequest", "AbortAck")
SYNC_KINDS = (
    "ReplicaSyncRequest", "ReplicaSyncAck", "ReplicaSyncBatch", "ReplicaSyncBatchAck",
)


class BenchmarkFailure(Exception):
    """The correctness gate (or a determinism check) failed: no numbers."""


@dataclass
class Repetition:
    """What one built-and-run cluster leaves behind (plain data only)."""

    setup_s: list
    run_s: float
    sim_ms: float
    responses: dict  # is_update -> committed response times, ms
    attempted: int
    failed: int  # DTX 'failed' outcomes (aborts are counted by committed_share)
    digest: str
    counters: dict  # sums over the sites; SNAPSHOT_STAT_FIELDS are maxima
    spans: Optional[SpanRecorder] = None
    sim_spans: list = field(default_factory=list)

    @property
    def committed(self) -> int:
        return sum(len(v) for v in self.responses.values())

    def fingerprint(self) -> tuple:
        """Everything that must repeat exactly for one sub-seed."""
        return (self.digest, self.sim_ms, self.attempted, self.committed, self.failed,
                self.responses, self.counters)


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count() or 0,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


CALIBRATION_ROUNDS = 12
CALIBRATION_STEPS = 20_000
#: What :func:`calibration_s` takes on the authoring box when it is quiet.
#: Only a scale: it makes ``cal_tx_per_s`` read like ``wall_tx_per_s`` there.
CALIBRATION_REFERENCE_S = 0.125


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    Lists, a dict, strings and integer arithmetic: the interpreter work the
    simulator does, and none of its code. The sandbox's speed drifts by
    +-20 % over minutes, more than any bound allows; timed before and after
    every repetition, the loop says how slow the machine was meanwhile.
    """
    # The loop must not depend on the program's heap: drop the previous
    # cluster first, and keep the collector from walking what is left.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for _ in range(CALIBRATION_ROUNDS):  # small rounds keep peak_rss_mb the workload's
            index: dict = {}
            nodes: list = [[]]
            for i in range(1, CALIBRATION_STEPS):
                child: list = []
                nodes[(i * 7919) % len(nodes)].append(child)
                nodes.append(child)
                index[str(i)] = child
                acc = (acc * 31 + i) % 1_000_003
            "".join(f"<n{len(node)}>" for node in nodes)
        return time.perf_counter() - start
    finally:
        gc.enable()


def sub_seed(seed: int, repetition: int) -> int:
    return seed * 1000 + repetition


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------

def run_repetition(
    workload: Workload,
    seed: int,
    tx_per_client: int,
    *,
    recorder: Optional[SpanRecorder] = None,
    tracing: bool = False,
) -> Repetition:
    """Build, run and gate one cluster. ``recorder`` makes it pass T1 (its
    wrappers are active from the build to the drain), ``tracing`` pass T2."""
    traced = recorder is not None or tracing
    setup_s = []
    with recorder if recorder is not None else nullcontext():
        for _ in range(1 if traced else SETUPS_PER_REPETITION):
            # Every build starts from the same state: the previous cluster
            # dropped, no garbage pending, the XPath parse memo empty.
            cluster = None
            clear_parse_cache()
            gc.collect()
            start = time.perf_counter()
            cluster = workload.build(seed, tx_per_client, tracing)
            setup_s.append(time.perf_counter() - start)
        stored_before = _bytes_stored(cluster)
        gc.collect()
        gc.freeze()  # set-up survivors are not rescanned during the timed run
        try:
            if recorder is not None:
                recorder.mark_run_start()
            start = time.perf_counter()
            result = cluster.run()
            run_s = time.perf_counter() - start
        finally:
            gc.unfreeze()

    digest = check_cluster(cluster, result, expected=_expected_transactions(cluster))
    committed = [r for r in result.records if r.status == "committed"]
    responses = {
        flag: [r.response_ms for r in committed if r.is_update is flag]
        for flag in (False, True)
    }
    return Repetition(
        setup_s=setup_s,
        run_s=run_s,
        sim_ms=result.duration_ms,
        responses=responses,
        attempted=len(result.records),
        failed=sum(1 for r in result.records if r.status == "failed"),
        digest=digest,
        counters=_counters(cluster, result, stored_before),
        spans=recorder,
        sim_spans=result.spans,
    )


def _expected_transactions(cluster) -> int:
    return sum(len(client.transactions) for client in cluster.clients)


def _bytes_stored(cluster) -> int:
    return sum(s.data_manager.backend.stats.bytes_written for s in cluster.sites.values())


def _counters(cluster, result, stored_before: int) -> dict:
    """Counts the program keeps itself, as totals over the sites."""
    totals = aggregate_site_stats(result.site_stats.values())
    by_kind = cluster.network.stats.by_kind
    parse_hits, parse_misses = parse_cache_stats()
    totals.update(
        lock_ops=sum(s.lock_manager.table.lock_ops for s in cluster.sites.values()),
        messages=result.network_messages,
        message_bytes=result.network_bytes,
        commit_msgs=sum(by_kind.get(k, 0) for k in COMMIT_KINDS),
        sync_msgs=sum(by_kind.get(k, 0) for k in SYNC_KINDS),
        detector_sweeps=result.detector_sweeps,
        distributed_deadlocks=result.distributed_deadlocks,
        bytes_stored=_bytes_stored(cluster) - stored_before,
        guide_nodes=sum(
            site.protocol.structure_node_count(name)
            for site in cluster.sites.values()
            for name in site.data_manager.live_documents()
        ),
        parse_hits=parse_hits,
        parse_misses=parse_misses,
    )
    return totals


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------

def check_cluster(cluster, result, expected: int) -> str:
    """Raise :class:`BenchmarkFailure` unless the drained cluster is in a
    correct state; return the sha256 digest of every replica and view."""
    statuses = [r.status for r in result.records]
    if len(statuses) != expected or set(statuses) - {"committed", "aborted", "failed"}:
        raise BenchmarkFailure(
            f"{len(statuses)} client records for {expected} transactions submitted"
        )
    digest = hashlib.sha256()
    for name in cluster.catalog.all_documents():
        texts = {
            sid: serialize_document(cluster.document_at(sid, name))
            for sid in cluster.catalog.sites_for(name)
        }
        for view in cluster.catalog.views_for(name):
            shadow = cluster.sites[view.host].views.states[name].doc
            texts[f"view@{view.host}"] = "" if shadow is None else serialize_document(shadow)
        reference = next(iter(texts.values()))
        for where, text in texts.items():
            if text != reference:
                raise BenchmarkFailure(f"copy of {name!r} at {where} diverged")
            digest.update(text.encode())
    for sid, site in cluster.sites.items():
        if not site.lock_manager.table.is_empty():
            raise BenchmarkFailure(f"lock table of {sid} not empty after the drain")
        guide_of = getattr(site.protocol, "guide", None)
        if guide_of is None:
            continue
        for name in site.data_manager.live_documents():
            try:
                guide_of(name).validate_against(site.data_manager.document(name))
            except ReproError as exc:
                raise BenchmarkFailure(f"DataGuide of {name!r} at {sid}: {exc}") from exc
    return digest.hexdigest()


# ----------------------------------------------------------------------
# metrics of a run
# ----------------------------------------------------------------------

def _pooled_responses(reps: list) -> list:
    return sorted(x for rep in reps for v in rep.responses.values() for x in v)


def end_to_end_metrics(reps: list, calibration: list) -> dict:
    """``calibration[k]`` and ``calibration[k + 1]`` are the calibration
    loop's times right before and after repetition ``k``."""
    pooled = _pooled_responses(reps)
    committed = len(pooled)
    attempted = sum(rep.attempted for rep in reps)
    slowdown = [
        (before + after) / 2.0 / CALIBRATION_REFERENCE_S
        for before, after in zip(calibration, calibration[1:])
    ]
    return {
        "setup_s": statistics.median(s for rep in reps for s in rep.setup_s),
        "cal_tx_per_s": statistics.median(
            rep.committed / rep.run_s * slow for rep, slow in zip(reps, slowdown)),
        "sim_tx_per_s": committed / (sum(rep.sim_ms for rep in reps) / 1000.0),
        "sim_resp_p50_ms": percentile(pooled, 0.50),
        "sim_resp_p95_ms": percentile(pooled, 0.95),
        "committed_share": committed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(plain: list, t1: list, t2: list) -> dict:
    """Per-layer numbers of a traced run: counters from the untraced
    repetitions ``plain``, wall spans from their T1 twins, simulated phases
    from their T2 twins."""
    count = {
        k: (max if k in SNAPSHOT_STAT_FIELDS else sum)(rep.counters[k] for rep in plain)
        for k in plain[0].counters
    }
    committed = sum(rep.committed for rep in plain)
    attempted = sum(rep.attempted for rep in plain)
    updates = sum(len(rep.responses[True]) for rep in plain)
    plain_wall = sum(rep.run_s for rep in plain)
    t1_wall = sum(rep.run_s for rep in t1)

    calls, self_s, layer_run_s, units = Counter(), Counter(), Counter(), Counter()
    for rep in t1:
        spans = rep.spans
        for entry, (n, ns) in aggregate(spans.spans).items():
            calls[entry] += n
            self_s[entry] += ns / 1e9
        for entry, (_, ns) in aggregate(spans.spans, since=spans.run_start).items():
            layer_run_s[layer_of(entry)] += ns / 1e9
        units.update(spans.units)

    out = {
        "wall_tx_per_s": statistics.median(rep.committed / rep.run_s for rep in plain),
        "sim_resp_p99_ms": percentile(_pooled_responses(plain), 0.99),
        "sim_read_resp_p95_ms": percentile(
            sorted(x for rep in plain for x in rep.responses[False]), 0.95),
        "sim_update_resp_p95_ms": percentile(
            sorted(x for rep in plain for x in rep.responses[True]), 0.95),
        "failed_share": 1.0 - committed / attempted,
    }
    for target in TARGETS:
        out[f"{target.entry}.calls"] = calls[target.entry]
        out[f"{target.entry}.self_s"] = self_s[target.entry]
        layer = layer_of(target.entry)
        out[f"{layer}.share"] = ratio(layer_run_s[layer], t1_wall)
    residual = t1_wall - sum(layer_run_s.values())

    out.update({
        "xml.serialize.kb": units["xml.serialize"] / 1024.0,
        "xpath.evaluate.us_per_call": 1e6 * ratio(
            self_s["xpath.evaluate"], calls["xpath.evaluate"]),
        "xpath.parse_cache_hit_rate": ratio(
            count["parse_hits"], count["parse_hits"] + count["parse_misses"]),
        "dataguide.nodes": count["guide_nodes"],
        "update.undo_ops": count["undo_ops"],
        "protocols.spec_cache_hit_rate": ratio(
            count["spec_cache_hits"],
            count["spec_cache_hits"] + calls["protocols.lock_spec"]),
        "locking.lock_ops_per_commit": ratio(count["lock_ops"], committed),
        "locking.blocked_ratio": ratio(count["ops_blocked"], calls["locking.acquire"]),
        "locking.peak_lock_count": count["peak_lock_count"],
        "deadlock.local": count["local_deadlocks"],
        "deadlock.distributed": count["distributed_deadlocks"],
        "deadlock.detector_sweeps": count["detector_sweeps"],
        "storage.store_kb_per_commit": ratio(count["bytes_stored"] / 1024.0, committed),
        "sim.msgs_per_commit": ratio(count["messages"], committed),
        "sim.kb_per_commit": ratio(count["message_bytes"] / 1024.0, committed),
        "core.residual_s": residual,
        "core.residual_share": ratio(residual, t1_wall),
        "core.ops_executed": count["ops_executed"],
        "core.ops_blocked_per_commit": ratio(count["ops_blocked"], committed),
        "core.wake_notices_per_commit": ratio(count["wake_notices_sent"], committed),
        "core.waiter_wakes_per_commit": ratio(count["waiter_wakes"], committed),
        "core.commit_msgs_per_commit": ratio(count["commit_msgs"], committed),
        "core.sync_msgs_per_commit": ratio(count["sync_msgs"], committed),
        "core.group_batched_syncs": count["group_batched_syncs"],
        "distribution.sync_acks_per_commit": ratio(count["sync_acks_awaited"], updates),
        "distribution.quorum_reads": count["quorum_reads"],
        "distribution.version_probes": count["version_probes_sent"],
        "distribution.read_repairs": count["read_repairs_sent"],
        "distribution.heartbeats": count["heartbeats_sent"],
        "distribution.false_suspicions": count["false_suspicions"],
        "distribution.log_entries_compacted": count["log_entries_compacted"],
        "views.hit_rate": ratio(
            count["view_reads_routed"],
            count["view_reads_routed"] + count["view_read_fallbacks"]),
        "views.reads_served": count["view_reads_served"],
        "views.fallbacks": count["view_read_fallbacks"],
        "views.deltas_applied": count["view_deltas_applied"],
        "views.deltas_per_batch": ratio(
            count["view_deltas_coalesced"], count["view_delta_batches"]),
        "views.mean_staleness_ms": ratio(
            count["view_staleness_sum_ms"], count["view_reads_served"]),
        "obs.tracing_overhead_ratio": ratio(sum(rep.run_s for rep in t2), plain_wall),
        "bench.trace_overhead_ratio": ratio(t1_wall, plain_wall),
    })
    report = critical_path_report(
        [span for rep in t2 for span in rep.sim_spans], per_tx_limit=0)
    for phase in PHASES:
        out[f"simphase.{phase}"] = report["phase_share"][phase]
    return out


# ----------------------------------------------------------------------
# a whole run
# ----------------------------------------------------------------------

def repetitions_for(workload: Workload, seconds: float, quick: bool) -> int:
    if quick:
        return 1
    return max(1, round(workload.repetitions * seconds / RUN_SECONDS))


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    trace_out: Optional[Path] = None,
) -> tuple[dict, dict]:
    """Execute one driver run; return ``(result, info)``.

    ``result`` is the driver contract's object (``correct``, ``attempted``,
    ``failed``, ``metrics``); ``info`` is the context the suite records
    beside it. Raises :class:`BenchmarkFailure` when the gate fails.
    """
    calibration = [calibration_s()]
    tx_per_client = workload.tx_per_client
    if quick:
        tx_per_client = max(1, round(tx_per_client * QUICK_SCALE))
    n = repetitions_for(workload, seconds, quick)
    started = time.perf_counter()
    if not trace:
        plain = []
        for k in range(n):
            plain.append(run_repetition(workload, sub_seed(seed, k), tx_per_client))
            calibration.append(calibration_s())
        values = end_to_end_metrics(plain, calibration)
        declared = END_TO_END
    else:
        # Three passes per sub-seed, so a third of the repetitions fill the time.
        plain, t1, t2 = [], [], []
        for k in range(max(1, n // 3)):
            sub = sub_seed(seed, k)
            plain.append(run_repetition(workload, sub, tx_per_client))
            t1.append(run_repetition(workload, sub, tx_per_client, recorder=SpanRecorder()))
            t2.append(run_repetition(workload, sub, tx_per_client, tracing=True))
            if wrapped_leftovers():
                raise BenchmarkFailure(f"span wrappers leaked: {wrapped_leftovers()}")
            for label, twin in (("T1", t1[-1]), ("T2", t2[-1])):
                if twin.fingerprint() != plain[-1].fingerprint():
                    raise BenchmarkFailure(
                        f"pass {label} on sub-seed {sub} changed the schedule: "
                        "state digest or simulated metrics differ from the untraced run"
                    )
        values = per_layer_metrics(plain, t1, t2)
        declared = PER_LAYER
        if trace_out is not None:
            trace_out.mkdir(parents=True, exist_ok=True)
            t1[0].spans.write_chrome_trace(trace_out / f"{workload.name}.trace.json")
    info = dict(
        machine=machine_info(),
        # Context for reading wall numbers taken on different machines.
        calibration_ops_per_s=(
            CALIBRATION_ROUNDS * CALIBRATION_STEPS / statistics.median(calibration)),
        wall_tx_per_s_repetitions=[rep.committed / rep.run_s for rep in plain],
        repetitions=len(plain),
        committed=sum(rep.committed for rep in plain),
        measured_s=time.perf_counter() - started,
        digest=hashlib.sha256("".join(rep.digest for rep in plain).encode()).hexdigest(),
        quick=quick,
    )
    if set(values) != {m.name for m in declared}:
        raise BenchmarkFailure(
            f"emitted and declared metrics differ: {set(values) ^ {m.name for m in declared}}"
        )
    result = {
        "correct": True,
        "attempted": sum(rep.attempted for rep in plain),
        "failed": sum(rep.failed for rep in plain),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in declared},
    }
    return result, info
