"""The experiments beyond the paper's figures, as entries of one grid runner.

Each :class:`Sweep` in :data:`SWEEPS` is data: its parameters — *axes*,
whose values the runner crosses, and scalar *settings* — each with a quick
value, a dense value for ``--full``, an optional command-line flag and a
lower bound; one ``run_cell`` function; its shape checks; and the metrics
its tables show. The runner owns the rest, once: resolving and bounding
the parameters before any cell runs, the product loop, the result type,
its tables and its JSON document. ``repro.cli`` generates one subcommand
per entry.

None of these is a figure of the paper; each runs a regime its
synchronous, perfect-detector setting cannot express:

* ``replication`` — primary-copy read-one-write-all over ``factor``
  replicas per fragment: reads scale with the factor, every commit pays
  one sync per secondary.
* ``availability`` — eager vs lazy replication while the busiest primaries
  crash and recover mid-workload.
* ``partitions`` — a network split cuts the busiest primary off under the
  lease detector; the lease timeout trades detection speed for false
  suspicions, never consistency.
* ``quorum`` — (R, W) quorum cells against eager and lazy baselines under
  a minority partition and a primary crash.
* ``scale`` — hash-ring placement while a spare site joins and an original
  site is decommissioned, documents migrating online.
* ``views`` — reads served from materialized views within a staleness
  bound against the locked read path, in a mixed and a read-only phase.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from itertools import product
from types import SimpleNamespace
from typing import Any, Callable

from ..config import SystemConfig
from ..core.cluster import DTXCluster
from ..core.site import aggregate_site_stats
from ..core.transaction import Operation, Transaction
from ..distribution.placement import HashRing, ring_rebalance
from ..errors import ConfigError
from ..sim.rng import substream
from ..update.operations import ChangeOp, InsertOp
from ..verify.progress import progress
from ..verify.quiescent import quiescent
from ..workload.generator import DTXTester, WorkloadSpec
from ..workload.xmark import deal_xmark, xmark_tree
from ..xml.parser import parse_document
from .runner import ExperimentConfig, build_cluster

#: Parameters every sweep has; each is on the command line as ``--<name>``.
SHARED = ("sites", "clients", "seed")


@dataclass(frozen=True)
class Param:
    """One sweep parameter: an axis (a tuple of values) or a scalar setting."""

    quick: Any
    dense: Any = None  # the ``--full`` value (None: the quick one)
    flag: str = ""  # command-line flag ("" = none, unless the name is SHARED)
    parse: Callable[[str], Any] = int  # one flag value -> one parameter value
    low: Any = None  # lower bound: a number, or another parameter's name
    head: tuple = ()  # axis values a flag's values are appended to
    choices: tuple = ()
    metavar: str = "N"
    help: str = ""


@dataclass(frozen=True)
class Sweep:
    name: str
    help: str
    axes: tuple  # parameter names, in product order
    params: dict  # name -> Param; a bare value is a plain setting
    run_cell: Callable  # (params, *axis values) -> metrics (phase -> metrics)
    check: Callable  # (SweepResult) -> notes; raises AssertionError
    tables: tuple  # (metric, format) pairs the text report shows
    caption: str = ""  # table caption, formatted with the parameters
    phases: tuple = ()  # run_cell returns one metrics dict per phase

    def __post_init__(self):
        params = {n: p if isinstance(p, Param) else Param(p) for n, p in self.params.items()}
        object.__setattr__(self, "params", params)

    def flags(self) -> dict:
        """Parameter name -> command-line flag."""
        return {
            name: p.flag or f"--{name}"
            for name, p in self.params.items()
            if p.flag or name in SHARED
        }

    def configure(self, full: bool = False, **overrides) -> SimpleNamespace:
        """The quick (or dense) values with ``overrides`` applied and every
        bound checked, so bad input fails before any cell runs."""
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise ConfigError(f"the {self.name} sweep has no parameter {unknown[0]!r}")
        values = {
            name: p.dense if full and p.dense is not None else p.quick
            for name, p in self.params.items()
        }
        values.update(overrides)

        def each(name):
            return values[name] if name in self.axes else (values[name],)

        for name, p in self.params.items():
            if p.low is None:
                continue
            low, why = p.low, ""
            if isinstance(low, str):
                low, why = max(each(low)), f" ({p.low})"
            for value in each(name):
                if value < low:
                    label = self.flags().get(name, name)
                    raise ConfigError(f"{label} must be >= {low}{why}, got {value}")
        return SimpleNamespace(**values)

    def parse_flags(self, raw: dict) -> dict:
        """Typed overrides from command-line strings (lists for axes)."""
        overrides = {}
        for name, texts in raw.items():
            p, flag = self.params[name], self.flags()[name]
            texts = texts if isinstance(texts, list) else [texts]
            if name not in self.axes and len(texts) > 1:
                raise ConfigError(
                    f"{flag} takes one value here (only a sweep that grids "
                    f"over it takes several), got {' '.join(texts)}"
                )
            try:
                values = tuple(p.parse(text) for text in texts)
            except ValueError as exc:
                raise ConfigError(f"{flag}: {exc}") from None
            overrides[name] = p.head + values if name in self.axes else values[0]
        return overrides


@dataclass
class SweepResult:
    sweep: Sweep
    params: SimpleNamespace
    cells: dict = field(default_factory=dict)  # axis values (+ phase) -> metrics

    def render(self, metric: str, fmt: str) -> str:
        """One table of ``metric``: a row per value of the leading axes, a
        column per value of the last axis (or per phase)."""
        names = list(self.sweep.axes)
        values = [getattr(self.params, a) for a in names]
        if self.sweep.phases:
            names.append("phase")
            values.append(self.sweep.phases)
        *row_axes, columns = values
        rows = list(product(*row_axes))
        corner = " \\ ".join(names)
        labels = [" ".join(map(str, row)) for row in rows]
        left = max(len(corner), *map(len, labels))
        width = max(len(fmt.format(0)), *(len(str(c)) for c in columns))
        caption = self.sweep.caption.format(**vars(self.params))
        lines = [
            f"{self.sweep.name} sweep — {metric}" + (f" ({caption})" if caption else ""),
            corner.ljust(left) + "  " + "  ".join(f"{c!s:>{width}}" for c in columns),
        ]
        for row, label in zip(rows, labels):
            cells = (fmt.format(self.cells[(*row, c)][metric]) for c in columns)
            lines.append(label.rjust(left) + "  " + "  ".join(f"{c:>{width}}" for c in cells))
        return "\n".join(lines)


def run_sweep(sweep: Sweep | str, full: bool = False, **overrides) -> SweepResult:
    """Run every cell of a sweep's grid, in axis order."""
    sweep = SWEEPS[sweep] if isinstance(sweep, str) else sweep
    params = sweep.configure(full, **overrides)
    result = SweepResult(sweep, params)
    for key in product(*(getattr(params, a) for a in sweep.axes)):
        metrics = sweep.run_cell(params, *key)
        if sweep.phases:
            result.cells.update({(*key, phase): metrics[phase] for phase in sweep.phases})
        else:
            result.cells[key] = metrics
    return result


def emit(result: SweepResult, as_json: bool = False, out=sys.stdout) -> int:
    """Print the tables and check notes (or one JSON document); returns 0 if
    every shape check held, else 1."""
    try:
        notes, error = list(result.sweep.check(result)), None
    except AssertionError as exc:
        notes, error = [], str(exc)
    if as_json:
        payload = {
            "sweep": result.sweep.name,
            "params": vars(result.params),
            "cells": [{"cell": list(key), **m} for key, m in result.cells.items()],
            "check_notes": notes,
            "ok": error is None,
        }
        if error is not None:
            payload["check_error"] = error
        print(json.dumps(payload, indent=2, default=str), file=out)
        return 0 if error is None else 1
    print(f"== {result.sweep.name} ==", file=out)
    for metric, fmt in result.sweep.tables:
        print(result.render(metric, fmt), file=out)
        print(file=out)
    for note in notes:
        print(f"  {note}", file=out)
    if error is not None:
        print(f"  SHAPE CHECK FAILED: {error}", file=out)
        return 1
    return 0


# --------------------------------------------------------------------------
# What the cells share.


#: Work stuck behind a fault times out and retries instead of wedging the run.
_SAFETY = dict(lock_wait_timeout_ms=200.0, max_restarts=2)


def _system(p, **fields) -> SystemConfig:
    if p.seed is not None:
        fields["seed"] = p.seed
    return SystemConfig().with_(**fields)


def _fault_system(p, **fields) -> SystemConfig:
    return _system(
        p, client_think_ms=1.0, replication_factor=p.replication_factor, **_SAFETY, **fields
    )


def _experiment(p, system, label: str, update_ratio: float, **workload) -> ExperimentConfig:
    """Fragmented XMark over ``p.sites`` sites, sized by the sweep's settings."""
    spec = WorkloadSpec(
        n_clients=p.clients, tx_per_client=p.tx_per_client, ops_per_tx=p.ops_per_tx,
        update_tx_ratio=update_ratio, **workload,
    )
    return ExperimentConfig(
        protocol=p.protocol, n_sites=p.sites, replication="partial",
        db_bytes=p.db_bytes, workload=spec, system=system, label=label,
    )


def _per_second(result) -> float:
    return len(result.committed) / (max(result.duration_ms, 1e-9) / 1000.0)


def _outcome(result) -> dict:
    """The counts and rates every fault and scale cell reports first."""
    return {
        "committed": len(result.committed),
        "aborted": len(result.aborted),
        "failed": len(result.failed),
        "tx_per_s": _per_second(result),
        "response_ms": result.mean_response_ms(),
        "messages": result.network_messages,
    }


def _assert_accounted(cell: dict, submitted: int) -> None:
    resolved = cell["committed"] + cell["aborted"] + cell.get("failed", 0)
    assert resolved == submitted, f"{resolved} transactions resolved, {submitted} submitted"


def _rank_primaries(cluster) -> list:
    """Sites by how many replicated documents they lead, busiest first (ties
    by site id); every site, by id, if nothing is replicated."""
    counts: dict = {}
    for doc_name in cluster.catalog.all_documents():
        rset = cluster.catalog.replica_set(doc_name)
        if rset.is_replicated:
            counts[rset.primary] = counts.get(rset.primary, 0) + 1
    ranked = sorted(counts, key=lambda s: (-counts[s], str(s)))
    return ranked or sorted(cluster.sites, key=str)


def _settle(cluster, result, lazy: bool = False) -> dict:
    """The settle and progress checks after a cell's drain
    (:func:`repro.verify.quiescent`, :func:`repro.verify.progress` over the
    cell's ``result``). A settle violation or a parked waiter, turn or wake
    stops the sweep, except that a lazy cell may keep divergent replicas
    (its documented loss window). Returns the cell's ``divergent_replicas``
    and ``stalled`` (lock-wait timeouts no fault explains: ROADMAP item 17
    keeps the cells where it is not 0)."""
    stalls = progress(cluster, result)
    parked = [v for v in stalls if v.kind == "parked"]
    assert not parked, f"{len(parked)} parked after the drain: {parked[:5]}"
    found = quiescent(cluster)
    others = [v for v in found if not (lazy and v.kind == "divergent")]
    assert not others, f"{len(others)} settle violations after the drain: {others[:5]}"
    return {"divergent_replicas": len(found), "stalled": len(stalls)}


# --------------------------------------------------------------------------
# replication


def _replication_cell(p, factor: int, update_ratio: float) -> dict:
    system = _system(
        p, client_think_ms=1.0, replication_factor=factor, replica_read_policy=p.read_policy,
        replica_write_policy="primary" if factor > 1 else "all",
    )
    label = f"replication/f{factor}/u{update_ratio}"
    cluster, _ = build_cluster(_experiment(p, system, label, update_ratio))
    result = cluster.run(label=label)
    settled = _settle(cluster, result)
    return {
        "response_ms": result.mean_response_ms(),
        "committed": len(result.committed),
        "aborted": len(result.aborted),
        "tx_per_s": _per_second(result),
        "messages": result.network_messages,
        "bytes": result.network_bytes,
        "deadlocks": result.total_deadlocks,
        **settled,
    }


def _check_replication(result) -> list[str]:
    """Replication must not slow pure reads, and must corrupt nothing.

    Reads at the primary or the nearest copy stay within 5 % of factor 1.
    A ``random`` read lands on a remote replica more often as the factor
    grows, so it may cost up to one more network round trip,
    2 x (latency + jitter)."""
    p, cells = result.params, result.cells
    notes = []
    lo, hi = min(p.factor), max(p.factor)
    if 0.0 in p.update_ratio and lo == 1 and hi > 1:
        base, repl = cells[(lo, 0.0)]["response_ms"], cells[(hi, 0.0)]["response_ms"]
        bound, rule = base * 1.05, ""
        if p.read_policy == "random":
            net = SystemConfig().network
            round_trip = 2 * (net.latency_ms + net.jitter_ms)
            bound = base + round_trip
            rule = f"; random reads may add one round trip ({round_trip:.2f} ms)"
        assert repl <= bound, (
            f"read-only response time worsened under replication: "
            f"factor {lo} -> {base:.2f} ms, factor {hi} -> {repl:.2f} ms{rule}"
        )
        notes.append(
            f"read-only mean response: {base:.2f} ms (factor {lo}) -> {repl:.2f} ms (factor {hi})"
            + rule
        )
    for cell in cells.values():
        _assert_accounted(cell, p.clients * p.tx_per_client)
    notes.append(f"{len(cells)} cells, all transaction counts consistent")
    return notes


# --------------------------------------------------------------------------
# availability


def _availability_cell(p, mode: str, crashes: int) -> dict:
    """Crash k takes down the k-th busiest primary (round-robin over the
    ranking) and recovers it ``outage_ms`` later; the monitor promotes the
    most caught-up live secondary and the recovered site catches up."""
    system = _fault_system(
        p, replica_read_policy=p.read_policy,
        replica_write_policy={"eager": "primary", "lazy": "lazy"}[mode],
    )
    cfg = _experiment(p, system, f"availability/{mode}/c{crashes}", p.update_ratio)
    cluster, _ = build_cluster(cfg)
    ranked = _rank_primaries(cluster)
    next_free: dict = {}
    for k in range(crashes):
        site_id = ranked[k % len(ranked)]
        # A repeated target must not be scheduled to crash while still down
        # from its previous outage — that crash would no-op.
        at = max(p.first_crash_ms + k * p.crash_spacing_ms, next_free.get(site_id, 0.0))
        cluster.schedule_crash(site_id, at, at + p.outage_ms)
        next_free[site_id] = at + p.outage_ms + 1.0
    result = cluster.run(label=cfg.label, drain_ms=p.drain_ms)
    totals = aggregate_site_stats(result.site_stats.values())
    return {
        **_outcome(result),
        "promotions": result.promotions,
        "crashes": result.site_crashes,
        "recoveries": result.site_recoveries,
        "catchups": totals["catchups"],
        "catchup_entries": totals["catchup_entries_replayed"],
        **_settle(cluster, result, lazy=mode == "lazy"),
        "site_totals": totals,
    }


def _check_availability(result) -> list[str]:
    """Faults fired, failover worked, eager stayed consistent."""
    p, cells = result.params, result.cells
    notes = []
    for (mode, crashes), cell in cells.items():
        where = f"{mode}/c{crashes}"
        _assert_accounted(cell, p.clients * p.tx_per_client)
        assert cell["crashes"] == crashes, (
            f"{where}: scheduled {crashes} crashes, saw {cell['crashes']}"
        )
        assert cell["recoveries"] == crashes
        assert not crashes or cell["promotions"] >= 1, (
            f"{where}: primary crashed but nothing was promoted"
        )
    if {"eager", "lazy"} <= set(p.mode):
        for crashes in p.crashes:
            eager, lazy = cells[("eager", crashes)], cells[("lazy", crashes)]
            notes.append(
                f"crashes={crashes}: committed eager={eager['committed']} "
                f"lazy={lazy['committed']}; divergent replicas "
                f"eager={eager['divergent_replicas']} lazy={lazy['divergent_replicas']}"
            )
    notes.append(f"{len(cells)} cells, transaction accounting consistent")
    return notes


# --------------------------------------------------------------------------
# partitions


def _partitions_cell(p, lease_timeout: float) -> dict:
    """The busiest primary is cut off alone for ``partition_ms``; the
    majority elects a new primary, the deposed side reconciles after the
    heal."""
    system = _fault_system(
        p, replica_read_policy=p.read_policy, replica_write_policy="primary",
        failure_detector="lease", lease_timeout_ms=lease_timeout,
    )
    cfg = _experiment(p, system, f"partitions/lease{lease_timeout}", p.update_ratio)
    cluster, _ = build_cluster(cfg)
    isolated = _rank_primaries(cluster)[0]
    rest = [s for s in sorted(cluster.sites, key=str) if s != isolated]
    cluster.schedule_partition(
        [[isolated], rest], at_ms=p.partition_at_ms, heal_at_ms=p.partition_at_ms + p.partition_ms
    )
    result = cluster.run(label=cfg.label, drain_ms=p.drain_ms)
    totals = aggregate_site_stats(result.site_stats.values())
    return {
        **_outcome(result),
        "promotions": result.promotions,
        "suspicions": totals["suspicions"],
        "false_suspicions": totals["false_suspicions"],
        "elections_won": totals["elections_won"],
        "elections_no_quorum": totals["elections_no_quorum"],
        "lease_refusals": totals["lease_refusals"],
        "heartbeats": totals["heartbeats_sent"],
        "compacted_entries": totals["log_entries_compacted"],
        "partition_drops": cluster.network.stats.partition_drops,
        **_settle(cluster, result),
        "site_totals": totals,
    }


def _check_partitions(result) -> list[str]:
    """The cut was felt, detection fired, consistency held in every cell."""
    p, cells = result.params, result.cells
    for (lease,), cell in cells.items():
        _assert_accounted(cell, p.clients * p.tx_per_client)
        assert cell["partition_drops"] > 0, f"lease={lease}: the partition cut no traffic at all"
        assert lease >= p.partition_ms / 2 or cell["suspicions"] >= 1, (
            f"lease={lease}: nobody suspected anybody across a {p.partition_ms} ms cut"
        )
    short = min(p.lease_timeout_ms)
    lo = cells[(short,)]
    return [
        f"lease={short}: {lo['committed']} committed, "
        f"{lo['suspicions']} suspicions ({lo['false_suspicions']} false), "
        f"{lo['elections_won']} elections won, {lo['lease_refusals']} lease refusals",
        f"{len(cells)} cells, 0 divergent replica pairs everywhere "
        f"(no split-brain at any lease timeout)",
    ]


# --------------------------------------------------------------------------
# quorum


def _quorum_regime(text: str) -> str:
    """``R:W`` on the command line -> the ``quorum-rRwW`` regime."""
    try:
        r, w = (int(v) for v in text.split(":"))
    except ValueError:
        raise ValueError(f"cells must look like R:W (two integers), got {text!r}") from None
    if min(r, w) < 1:
        raise ValueError(f"R and W must be >= 1, got {text!r}")
    return f"quorum-r{r}w{w}"


def _rw(regime: str) -> tuple[int, int]:
    r, w = regime[len("quorum-r"):].split("w")
    return int(r), int(w)


def _quorum_cell(p, regime: str, fault: str) -> dict:
    """One write regime under one fault schedule (lease detector throughout:
    a partition stalls the perfect detector's rounds forever).

    ``partition`` cuts off a *pure secondary*: the least-loaded primary's
    documents are re-pointed to another replica first, so every document
    keeps its primary and a write quorum on the majority side and the
    regimes differ in ack discipline alone. ``crash`` fail-stops the
    busiest primary for the fault window."""
    if regime.startswith("quorum-"):
        r, w = _rw(regime)
        policy = dict(
            replica_read_policy="quorum", replica_write_policy="quorum",
            read_quorum_r=r, write_quorum_w=w,
        )
    else:
        policy = dict(
            replica_read_policy=p.read_policy,
            replica_write_policy="primary" if regime == "eager" else "lazy",
        )
    system = _fault_system(
        p, failure_detector="lease", lease_timeout_ms=p.lease_timeout_ms, **policy,
    )
    cfg = _experiment(
        p, system, f"quorum/{regime}/{fault}", p.update_ratio, update_op_ratio=p.update_op_ratio
    )
    cluster, tester = build_cluster(cfg)
    update_labels = {
        tx.label
        for txs in tester.all_transactions().values()
        for tx in txs
        if any(op.is_update for op in tx.operations)
    }
    start, end = p.fault_at_ms, p.fault_at_ms + p.fault_ms
    if fault == "partition":
        isolated = _rank_primaries(cluster)[-1]
        for doc_name in cluster.catalog.documents_at(isolated):
            rset = cluster.catalog.replica_set(doc_name)
            if rset.is_replicated and rset.primary == isolated:
                cluster.catalog.set_primary(doc_name, rset.secondaries[0])
        rest = [s for s in sorted(cluster.sites, key=str) if s != isolated]
        cluster.schedule_partition([[isolated], rest], start, end)
    elif fault == "crash":
        cluster.schedule_crash(_rank_primaries(cluster)[0], start, end)
    result = cluster.run(label=cfg.label, drain_ms=p.drain_ms)

    def mean_response(records) -> float:
        return sum(r.response_ms for r in records) / len(records) if records else 0.0

    in_window = [r for r in result.committed if start <= r.finished_ts <= end]
    # Transactions that performed an update: the regime's headline is that
    # *their* latency stops tracking the slowest replica.
    updates = [r for r in result.committed if r.label in update_labels]
    totals = aggregate_site_stats(result.site_stats.values())
    return {
        **_outcome(result),
        "promotions": result.promotions,
        "window_committed": len(in_window),
        "window_response_ms": mean_response(in_window),
        "update_committed": len(updates),
        "update_response_ms": mean_response(updates),
        "window_update_committed": len([r for r in updates if start <= r.finished_ts <= end]),
        "sync_acks_awaited": totals["sync_acks_awaited"],
        "sync_acks_per_commit": totals["sync_acks_awaited"] / max(1, len(result.committed)),
        "version_probes": totals["version_probes_sent"],
        "quorum_reads": totals["quorum_reads"],
        "read_repairs": totals["read_repairs_sent"],
        "read_repair_rate": totals["read_repairs_sent"] / max(1, totals["quorum_reads"]),
        "lease_refusals": totals["lease_refusals"],
        "lock_wait_timeouts": len(
            [r for r in result.records if r.reason == "lock-wait-timeout"]
        ),
        **_settle(cluster, result, lazy=regime == "lazy"),
        "site_totals": totals,
    }


def _check_quorum(result) -> list[str]:
    """Quorums intersect, stragglers converge, eager stalls under the cut.

    The cut isolates one site, so every document keeps at least N - 1
    replicas reachable. Only a regime whose W fits in those can commit a
    write during the cut; a W = N regime (``quorum-r1w3`` at N = 3) has no
    in-window write to show and is not asked for one."""
    p, cells = result.params, result.cells
    notes = []
    for (regime, fault), cell in cells.items():
        where = f"{regime}/{fault}"
        _assert_accounted(cell, p.clients * p.tx_per_client)
        # A recovered site owes each peer one full lease before it judges
        # it, so a crash alone makes no false suspicion.
        assert fault != "crash" or cell["site_totals"]["false_suspicions"] == 0, (
            f"{where}: {cell['site_totals']['false_suspicions']} false suspicions"
        )
        if regime.startswith("quorum-"):
            assert cell["version_probes"] > 0, f"{where}: no reads probed"
            assert cell["sync_acks_awaited"] > 0, f"{where}: no quorum write ever counted an ack"
    quorums = [r for r in p.regime if r.startswith("quorum-")]
    if "partition" in p.fault and "eager" in p.regime:
        eager, n = cells[("eager", "partition")], p.replication_factor
        reachable = n - 1
        for regime in quorums:
            r, w = _rw(regime)
            cell = cells[(regime, "partition")]
            assert w > reachable or cell["window_update_committed"] > 0, (
                f"{regime}: no write committed during the cut"
            )
            # The headline: an eager commit waits on the cut (not yet
            # suspected) secondary's ack; a sub-N write quorum settles at W
            # acks from the reachable side. R=N or W=N cells give that back.
            assert not (r < n and w < n) or (
                cell["update_response_ms"] < eager["update_response_ms"]
            ), (
                f"{regime} write-tx response {cell['update_response_ms']:.2f} ms not below "
                f"eager's {eager['update_response_ms']:.2f} ms under the partition"
            )
        notes.append(
            f"partition: in-window writes required where W <= {reachable} "
            f"(the replicas reachable during the cut); eager write-tx response "
            f"{eager['update_response_ms']:.2f} ms "
            f"({eager['window_update_committed']} writes in-window) vs "
            + ", ".join(
                f"{regime[len('quorum-'):]} "
                f"{cells[(regime, 'partition')]['update_response_ms']:.2f} ms "
                f"({cells[(regime, 'partition')]['window_update_committed']} in-window)"
                for regime in quorums
            )
        )
    notes.append(
        f"{len(cells)} cells; 0 divergent replica pairs in every "
        f"eager and quorum cell (quorum intersection + anti-entropy held)"
    )
    return notes


# --------------------------------------------------------------------------
# scale


def _issue_rebalance(cluster, moves: dict, label: str) -> None:
    """Start one migration per moved document, deferring any document whose
    previous migration is still in flight (a join-move may still be
    settling when the decommission rebalance fires)."""
    pending = dict(moves)

    def attempt():
        for doc_name, targets in list(pending.items()):
            if doc_name not in cluster.migration.active:
                cluster.migration.migrate(doc_name, targets, label=label)
                del pending[doc_name]
        if pending:
            cluster.env.schedule_call(10.0, attempt)

    attempt()


def _scale_cell(p, n_sites: int, n_clients: int) -> dict:
    """``n_sites`` loaded sites plus an empty spare under hash-ring
    placement: the spare joins at ``join_at_ms``, the first site is
    decommissioned at ``leave_at_ms``, and each rebalance migrates only the
    documents whose replica set changed."""
    system = _fault_system(p, replica_read_policy="nearest", replica_write_policy="primary")
    tree, _ = xmark_tree(p.db_bytes, seed=system.seed)
    initial = [f"s{i + 1}" for i in range(n_sites)]
    spare, leaver = f"s{n_sites + 1}", initial[0]
    cluster = DTXCluster(protocol=p.protocol, config=system)
    for sid in (*initial, spare):
        cluster.add_site(sid)  # the spare starts empty (sites are fixed at start)
    ring = HashRing(initial, vnodes=p.vnodes)
    fragments = deal_xmark(tree, n_sites)
    doc_names = [frag.name for frag in fragments]
    for frag in fragments:
        cluster.replicate_document(frag, ring.placement(frag.name, p.replication_factor))
    spec = WorkloadSpec(
        n_clients=n_clients, tx_per_client=p.tx_per_client, ops_per_tx=p.ops_per_tx,
        update_tx_ratio=p.update_ratio,
    )
    tester = DTXTester(spec, fragments)
    for client_idx, sid in tester.assign_clients_to_sites(initial).items():
        cluster.add_client(f"c{client_idx}", sid, tester.transactions_for_client(client_idx))

    grown = HashRing([*initial, spare], vnodes=p.vnodes)
    shrunk = HashRing([s for s in grown.sites if s != leaver], vnodes=p.vnodes)
    join_moves = ring_rebalance(ring, grown, doc_names, p.replication_factor)
    leave_moves = ring_rebalance(grown, shrunk, doc_names, p.replication_factor)
    cluster.env.schedule_call(p.join_at_ms, _issue_rebalance, cluster, join_moves, "join")
    cluster.env.schedule_call(p.leave_at_ms, _issue_rebalance, cluster, leave_moves, "leave")

    label = f"scale/{n_sites}x{n_clients}"
    cluster.run(label=label, drain_ms=p.drain_ms)
    # Migrations may outlive the workload: settle until the manager is
    # quiet (bounded — a stalled migration parks and clears ``active``).
    deadline = cluster.env.now + p.settle_ms
    while not cluster.migration.quiesced() and cluster.env.now < deadline:
        cluster.env.run(until=cluster.env.now + 25.0)
    result = cluster.collect_results(label=label)
    stats = cluster.migration.stats
    return {
        **_outcome(result),
        "docs": len(doc_names),
        "moved_join": len(join_moves),
        "moved_leave": len(leave_moves),
        "migrations_started": stats.started,
        "migrations_completed": stats.completed,
        "migrations_stalled": stats.stalled,
        "replicas_added": stats.replicas_added,
        "replicas_retired": stats.replicas_retired,
        "cutovers": stats.cutovers,
        "leaver_residual_docs": len(cluster.sites[leaver].documents_hosted()),
        "spare_docs": len(cluster.sites[spare].documents_hosted()),
        **_settle(cluster, result),
    }


def _check_scale(result) -> list[str]:
    """Moves are ring-minimal, migrations land, nothing diverges."""
    p, cells = result.params, result.cells
    for (n_sites, n_clients), cell in cells.items():
        where = f"{n_sites}x{n_clients}"
        _assert_accounted(cell, n_clients * p.tx_per_client)
        assert cell["committed"] > 0, f"{where}: nothing committed"
        # Ring rebalances must not reshuffle the world: each move set is a
        # strict subset of the documents (~D/(N+1) for a join of one).
        assert 0 < cell["moved_join"] < cell["docs"], (
            f"{where}: join moved {cell['moved_join']} of {cell['docs']} documents "
            f"— not ring-minimal"
        )
        assert cell["migrations_stalled"] == 0, (
            f"{where}: {cell['migrations_stalled']} migrations stalled"
        )
        assert cell["migrations_completed"] == cell["migrations_started"], (
            f"{where}: {cell['migrations_started'] - cell['migrations_completed']} "
            f"migrations never finished"
        )
        assert cell["leaver_residual_docs"] == 0, (
            f"{where}: decommissioned site still hosts {cell['leaver_residual_docs']} documents"
        )
        assert cell["spare_docs"] > 0, f"{where}: the joining site never received a document"
    moved = "; ".join(
        f"{ns}x{nc}: join {c['moved_join']}/{c['docs']}, leave {c['moved_leave']}/{c['docs']}"
        for (ns, nc), c in cells.items()
    )
    return [
        f"ring-minimal moves — {moved}",
        f"{len(cells)} cells; every migration completed, every "
        f"decommissioned site drained to zero documents, 0 divergent "
        f"replica pairs after settle",
    ]


# --------------------------------------------------------------------------
# views


def _views_regime(text: str) -> str:
    """A staleness bound (ms) on the command line -> the ``views-<B>ms`` regime."""
    bound = float(text)
    if not bound > 0:
        raise ValueError(f"staleness bounds must be > 0 ms, got {text}")
    return f"views-{bound:g}ms"


def _staleness(regime: str) -> float:
    return float(regime[len("views-"):-len("ms")])


def _read_tx(rng, p, label: str) -> Transaction:
    # Both path shapes are subsumed by the registered //item pattern.
    ops = [
        Operation.query(
            f"d{rng.randrange(p.n_docs) + 1}", rng.choice(("/catalog/item", "//item"))
        )
        for _ in range(p.ops_per_tx)
    ]
    return Transaction(ops, label=label)


def _write_tx(rng, p, label: str, fresh_id: int) -> Transaction:
    doc = f"d{rng.randrange(p.n_docs) + 1}"
    if rng.random() < 0.5:
        item = rng.randrange(p.items_per_doc)
        update = ChangeOp(f"/catalog/item[id={item}]/price", rng.randrange(10, 1000))
    else:
        price = rng.randrange(10, 1000)
        update = InsertOp(f"<item><id>{fresh_id}</id><price>{price}</price></item>", "/catalog")
    return Transaction([Operation.update(doc, update)], label=label)


def _view_counters(cluster) -> dict:
    sites = list(cluster.sites.values())
    totals = aggregate_site_stats(cluster.collect_results().site_stats.values())
    return {
        "lock_ops": sum(s.lock_manager.table.lock_ops for s in sites),
        "commit_requests": cluster.network.stats.by_kind.get("CommitRequest", 0),
        "served": totals["view_reads_served"],
        "routed": totals["view_reads_routed"],
        "fallbacks": totals["view_read_fallbacks"],
        "staleness_sum": totals["view_staleness_sum_ms"],
        "site_totals": totals,
    }


def _run_phase(cluster, txs, gap_ms: float) -> list:
    """Submit ``txs`` at their home sites, ``gap_ms`` apart, and drain."""
    outcomes: list = []
    for tx, home in txs:
        cluster.sites[home].submit(tx, outcomes.append)
        cluster.env.run(until=cluster.env.now + gap_ms)
    deadline = cluster.env.now + 2000.0
    while len(outcomes) < len(txs) and cluster.env.now < deadline:
        cluster.env.run(until=cluster.env.now + 10.0)
    return outcomes


def _views_cell(p, regime: str) -> dict:
    """Both phases over one cluster: ``mixed`` interleaves writers and
    readers (a read inside the propagation window falls back to the locked
    path); then writes stop, the shadows settle for ``settle_ms``, and
    ``readonly`` runs pure reads — under every views regime each one must be
    answered by the view host with no lock and no 2PC round anywhere."""
    system = _system(
        p, replica_write_policy="primary",  # shadows feed on the primaries' logs
        replica_read_policy="primary", view_refresh_ms=p.view_refresh_ms,
        view_staleness_ms=0.0 if regime == "locked" else _staleness(regime), **_SAFETY,
    )
    data_sites = [f"s{i + 1}" for i in range(p.sites)]
    cluster = DTXCluster(protocol=p.protocol, config=system)
    for sid in (*data_sites, "v1"):
        cluster.add_site(sid)
    items = "".join(
        f"<item><id>{i}</id><price>{(i + 1) * 10}</price></item>" for i in range(p.items_per_doc)
    )
    docs = [
        parse_document(f"<catalog>{items}</catalog>", name=f"d{d + 1}") for d in range(p.n_docs)
    ]
    for i, doc in enumerate(docs):
        owners = [data_sites[(i + k) % len(data_sites)] for k in range(p.replication_factor)]
        cluster.replicate_document(doc, owners)
    if regime != "locked":
        for doc in docs:
            cluster.register_view(f"v-{doc.name}", "//item", [doc.name], host="v1")
    cluster.start()
    cluster.env.run(until=10.0)  # initial hydration settles

    rng = substream(system.seed, "views-sweep", regime)
    total_tx = p.clients * p.tx_per_client
    n_writes = round(total_tx * p.update_ratio)

    def home(i: int) -> str:
        return data_sites[i % len(data_sites)]

    mixed: list = []
    fresh_id = 1000
    for i in range(total_tx):
        if i % max(1, total_tx // max(1, n_writes)) == 0 and n_writes:
            fresh_id += 1
            mixed.append((_write_tx(rng, p, f"w{i}", fresh_id), home(i)))
        else:
            mixed.append((_read_tx(rng, p, f"r{i}"), home(i)))

    cells: dict = {}
    outcomes_seen: list = []
    for phase in ("mixed", "readonly"):
        if phase == "readonly":
            cluster.env.run(until=cluster.env.now + p.settle_ms)
            txs = [(_read_tx(rng, p, f"p{i}"), home(i)) for i in range(total_tx)]
        else:
            txs = mixed
        before = _view_counters(cluster)
        t0 = cluster.env.now
        outcomes = _run_phase(cluster, txs, p.submit_gap_ms)
        outcomes_seen += outcomes
        after = _view_counters(cluster)
        committed = [o for o in outcomes if o.status == "committed"]
        served, routed, fallbacks = (
            after[k] - before[k] for k in ("served", "routed", "fallbacks")
        )
        cells[phase] = {
            "committed": len(committed),
            "aborted": len([o for o in outcomes if o.status == "aborted"]),
            "failed": len([o for o in outcomes if o.status == "failed"]),
            "expected": len(txs),
            "read_tx": len([t for t, _ in txs if not t.is_update_transaction]),
            "tx_per_s": len(committed) / (max(cluster.env.now - t0, 1e-9) / 1000.0),
            "response_ms": (
                sum(o.finished_ts - o.submitted_ts for o in committed) / len(committed)
                if committed
                else 0.0
            ),
            "view_served": served,
            "view_fallbacks": fallbacks,
            "view_hit_rate": routed / max(1, routed + fallbacks),
            "staleness_ms": (
                (after["staleness_sum"] - before["staleness_sum"]) / served if served else 0.0
            ),
            "lock_ops": after["lock_ops"] - before["lock_ops"],
            "commit_requests": after["commit_requests"] - before["commit_requests"],
            # Cumulative (not per-phase) cluster totals at phase end.
            "site_totals": after["site_totals"],
        }
    settled = _settle(cluster, outcomes_seen)
    for cell in cells.values():
        cell.update(settled)
    return cells


def _check_views(result) -> list[str]:
    """The receipt: view-served reads take no locks and run no 2PC.

    A shadow is refreshed once per ``view_refresh_ms`` and each refresh
    takes one delivery (latency plus jitter) to land, so a read can meet a
    shadow that old. Every readonly read must be view-served only where the
    staleness bound covers that age; below it a read may fall back."""
    cells = result.cells
    net = SystemConfig().network
    oldest_ms = result.params.view_refresh_ms + net.latency_ms + net.jitter_ms
    for (regime, phase), cell in cells.items():
        where = f"{regime}/{phase}"
        resolved = cell["committed"] + cell["aborted"] + cell["failed"]
        assert resolved == cell["expected"], (
            f"{where}: {cell['expected']} submitted, {resolved} resolved"
        )
        assert cell["committed"] > 0, f"{where}: nothing committed"
        if regime == "locked":
            assert cell["view_served"] == 0, (
                f"{where}: {cell['view_served']} reads view-served with views off"
            )
            assert cell["lock_ops"] > 0, (
                f"{where}: the baseline took no locks — nothing to compare"
            )
    views = [r for r in result.params.regime if r != "locked"]
    for regime in views:
        ro, mixed = cells[(regime, "readonly")], cells[(regime, "mixed")]
        # After the shadows settle every read is answered by the view host:
        # zero lock-table operations at any site, zero 2PC rounds.
        assert ro["committed"] == ro["expected"], (
            f"{regime}/readonly: only {ro['committed']}/{ro['expected']} committed"
        )
        assert _staleness(regime) < oldest_ms or ro["view_hit_rate"] == 1.0, (
            f"{regime}/readonly: hit rate {ro['view_hit_rate']:.2f} < 1.0"
        )
        if ro["view_hit_rate"] == 1.0:
            assert ro["lock_ops"] == 0, (
                f"{regime}/readonly: {ro['lock_ops']} lock-table operations "
                "during a phase that was entirely view-served"
            )
            assert ro["commit_requests"] == 0, (
                f"{regime}/readonly: {ro['commit_requests']} CommitRequests "
                "during a phase that was entirely view-served"
            )
        assert ro["staleness_ms"] <= _staleness(regime), (
            f"{regime}/readonly: mean staleness at serve {ro['staleness_ms']:.2f} ms "
            f"exceeds the {_staleness(regime):g} ms bound"
        )
        assert mixed["view_served"] + mixed["view_fallbacks"] > 0, (
            f"{regime}/mixed: no read was ever considered for view routing"
        )
    notes = []
    if views and "locked" in result.params.regime:
        locked_ro, sample = cells[("locked", "readonly")], cells[(views[-1], "readonly")]
        notes.append(
            f"readonly phase: locked baseline {locked_ro['lock_ops']} lock ops / "
            f"{locked_ro['commit_requests']} CommitRequests vs views 0 / 0 "
            f"({sample['view_served']} reads served from shadows, "
            f"mean staleness {sample['staleness_ms']:.2f} ms)"
        )
    notes.append(
        f"{len(cells)} cells; readonly hit rate 1.0 wherever the bound is at least "
        f"refresh + latency + jitter = {oldest_ms:g} ms, and zero primary lock-table "
        "operations and zero 2PC participation wherever every read was view-served"
    )
    return notes


# --------------------------------------------------------------------------
# The table. Times are simulated milliseconds.

_FAULT_WORKLOAD = dict(
    sites=Param(4, low="replication_factor"), clients=Param(9, 15, low=1),
    tx_per_client=Param(5, 8), ops_per_tx=Param(3, 4),
    replication_factor=3, update_ratio=0.4, protocol="xdgl", db_bytes=18_000, seed=None,
)

SWEEPS = {
    sweep.name: sweep
    for sweep in (
        Sweep(
            "replication",
            "sweep replication factor vs update ratio (ROWA)",
            axes=("factor", "update_ratio"),
            params=dict(
                factor=Param((1, 2, 4), (1, 2, 3, 4), low=1),
                update_ratio=Param((0.0, 0.2, 0.5), (0.0, 0.1, 0.2, 0.4, 0.6)),
                sites=Param(4, low="factor"), clients=Param(12, 20, low=1),
                tx_per_client=Param(4, 5), ops_per_tx=Param(4, 5),
                read_policy=Param(
                    "nearest", flag="--read-policy", parse=str,
                    choices=("primary", "random", "nearest"), help="replica chosen for each read",
                ),
                protocol="xdgl", db_bytes=24_000, seed=None,
            ),
            run_cell=_replication_cell,
            check=_check_replication,
            tables=(("tx_per_s", "{:8.2f}"), ("response_ms", "{:8.2f}"), ("messages", "{:8.0f}")),
            caption="read policy: {read_policy}",
        ),
        Sweep(
            "availability",
            "eager vs lazy replication under site crashes: throughput, "
            "abort rate, failover and catch-up activity",
            axes=("mode", "crashes"),
            params=dict(
                mode=Param(("eager", "lazy")),
                crashes=Param(
                    (0, 1, 2), (0, 1, 2, 3), flag="--crashes", low=0,
                    help="crash counts to sweep (default: 0 1 2)",
                ),
                **_FAULT_WORKLOAD,
                read_policy="nearest",
                # Crash k fires at first + k * spacing and lasts outage_ms;
                # drain_ms lets catch-up and the lazy tail settle.
                first_crash_ms=6.0, crash_spacing_ms=8.0, outage_ms=12.0, drain_ms=80.0,
            ),
            run_cell=_availability_cell,
            check=_check_availability,
            tables=(
                ("tx_per_s", "{:9.2f}"), ("committed", "{:9.0f}"), ("aborted", "{:9.0f}"),
                ("failed", "{:9.0f}"), ("promotions", "{:9.0f}"),
                ("divergent_replicas", "{:9.0f}"),
            ),
            caption="crashes target the busiest primary",
        ),
        Sweep(
            "partitions",
            "lease-based membership under a network split: availability "
            "and consistency across lease timeouts",
            axes=("lease_timeout_ms",),
            params=dict(
                lease_timeout_ms=Param(
                    (2.0, 4.0, 8.0, 16.0), (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0),
                    flag="--lease-timeouts", parse=float, metavar="MS",
                    help="lease timeouts (ms) to sweep (default: 2 4 8 16)",
                ),
                **_FAULT_WORKLOAD,
                read_policy="nearest",
                # The cut starts at partition_at_ms and lasts partition_ms;
                # drain_ms lets elections and catch-up settle.
                partition_at_ms=6.0, partition_ms=30.0, drain_ms=150.0,
            ),
            run_cell=_partitions_cell,
            check=_check_partitions,
            tables=tuple(
                (m, "{:9.0f}")
                for m in (
                    "committed", "aborted", "failed", "suspicions", "false_suspicions",
                    "elections_won", "lease_refusals", "divergent_replicas",
                )
            ),
            caption="cut isolates the busiest primary for {partition_ms} ms",
        ),
        Sweep(
            "quorum",
            "quorum (R, W) grid vs eager/lazy baselines under partition "
            "and crash schedules: latency, in-window commits, read repair, "
            "divergence",
            axes=("regime", "fault"),
            params=dict(
                regime=Param(
                    ("eager", "lazy", "quorum-r1w3", "quorum-r2w2", "quorum-r3w2"),
                    ("eager", "lazy", "quorum-r1w3", "quorum-r2w2", "quorum-r3w2", "quorum-r2w3"),
                    flag="--rw", parse=_quorum_regime, head=("eager", "lazy"), metavar="R:W",
                    help="quorum cells as R:W pairs, run after the eager and lazy "
                    "baselines (default: 1:3 2:2 3:2)",
                ),
                fault=Param(
                    ("partition", "crash"), ("none", "partition", "crash"),
                    flag="--faults", parse=str, choices=("none", "partition", "crash"),
                    help="fault schedules to run (default: partition crash)",
                ),
                **_FAULT_WORKLOAD,
                # Update transactions are write-pure: with the generator's
                # default 0.2 a "write" transaction is 80 % reads, drowning
                # the ack-discipline difference under read routing. Baselines
                # read at the primary: the strongly consistent read a quorum
                # read competes with.
                update_op_ratio=1.0, read_policy="primary",
                # The partition or crash starts at fault_at_ms and lasts
                # fault_ms. Suspicion is deliberately slow: between the cut
                # and the lease expiry is where the regimes differ (the
                # partitions sweep measures what a hair-trigger lease costs).
                fault_at_ms=6.0, fault_ms=30.0, lease_timeout_ms=12.0, drain_ms=200.0,
            ),
            run_cell=_quorum_cell,
            check=_check_quorum,
            tables=(
                ("committed", "{:10.0f}"), ("update_response_ms", "{:10.2f}"),
                ("window_update_committed", "{:10.0f}"), ("sync_acks_per_commit", "{:10.2f}"),
                ("read_repair_rate", "{:10.2f}"), ("divergent_replicas", "{:10.0f}"),
            ),
            caption="fault window {fault_ms} ms at t={fault_at_ms} ms",
        ),
        Sweep(
            "scale",
            "hash-ring elasticity: a site joins and another is "
            "decommissioned mid-workload; documents migrate online "
            "(ring-minimal moves, zero divergence)",
            axes=("sites", "clients"),
            params=dict(
                sites=Param((3, 4), (3, 4, 6), low="replication_factor"),
                clients=Param((6, 12), (6, 12, 18), low=1),
                tx_per_client=Param(4, 6),
                join_at_ms=Param(
                    8.0, flag="--join-at", parse=float, metavar="MS",
                    help="when the spare site joins the ring (default: 8)",
                ),
                leave_at_ms=Param(
                    60.0, flag="--leave-at", parse=float, metavar="MS",
                    help="when the decommissioned site leaves (default: 60)",
                ),
                replication_factor=2, ops_per_tx=3, update_ratio=0.4, protocol="xdgl",
                db_bytes=18_000, vnodes=64, seed=None,
                # settle_ms bounds how long migrations may outlive the workload.
                drain_ms=50.0, settle_ms=3000.0,
            ),
            run_cell=_scale_cell,
            check=_check_scale,
            tables=(
                ("committed", "{:10.0f}"), ("response_ms", "{:10.2f}"),
                ("moved_join", "{:10.0f}"), ("moved_leave", "{:10.0f}"),
                ("migrations_completed", "{:10.0f}"), ("spare_docs", "{:10.0f}"),
                ("divergent_replicas", "{:10.0f}"),
            ),
            caption="join at t={join_at_ms} ms, decommission at t={leave_at_ms} ms",
        ),
        Sweep(
            "views",
            "materialized XPath views vs the locked read path: a two-phase "
            "read-heavy scenario per staleness bound; the readonly phase must "
            "serve every read from the view host with zero lock-table "
            "operations and zero 2PC rounds",
            axes=("regime",),
            params=dict(
                regime=Param(
                    ("locked", "views-2ms", "views-20ms"),
                    ("locked", "views-2ms", "views-10ms", "views-50ms"),
                    flag="--staleness", parse=_views_regime, head=("locked",), metavar="MS",
                    help="view staleness bounds (ms) to sweep against the locked "
                    "baseline (default: 2 20)",
                ),
                sites=Param(3, low="replication_factor"),  # data sites, plus one view host
                clients=Param(8, 12, low=1),
                tx_per_client=Param(4, 6),
                n_docs=Param(4, 6),
                ops_per_tx=2, update_ratio=0.25, items_per_doc=6, replication_factor=2,
                protocol="xdgl", view_refresh_ms=2.0, seed=None,
                # Submissions are submit_gap_ms apart; settle_ms between the
                # phases lets the shadows catch up.
                submit_gap_ms=1.5, settle_ms=40.0,
            ),
            run_cell=_views_cell,
            check=_check_views,
            tables=(
                ("committed", "{:10.0f}"), ("response_ms", "{:10.2f}"),
                ("view_hit_rate", "{:10.2f}"), ("staleness_ms", "{:10.2f}"),
                ("lock_ops", "{:10.0f}"), ("commit_requests", "{:10.0f}"),
            ),
            caption="refresh every {view_refresh_ms} ms",
            phases=("mixed", "readonly"),
        ),
    )
}
