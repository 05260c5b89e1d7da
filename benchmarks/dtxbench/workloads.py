"""The five dtxbench workloads, built from the public API only.

Every workload is a closed loop: each simulated client (``core.client.Client``,
the paper's DTXTester) submits a transaction, waits for its outcome, thinks
``client_think_ms`` and submits the next. Clients are simulated sessions in
one OS thread, never OS threads; storage is ``InMemoryStore`` (no real I/O).
``seed`` feeds both ``WorkloadSpec.seed`` and ``SystemConfig.seed``; the
program under test receives only the generated documents and transactions.

A workload's ``tx_per_client`` is the size of one *repetition* (a few seconds
of wall time); a driver run pools ``repetitions`` of them, each on its own
sub-seed (see ``measure.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.experiments import ExperimentConfig, build_cluster
from repro.update.operations import ChangeOp
from repro.workload import WorkloadSpec
from repro.xml.builder import E, doc

#: ``--quick`` multiplies every ``tx_per_client`` by this and runs one
#: repetition: a smoke test of the harness, not a measurement.
QUICK_SCALE = 0.1


def _xmark_cluster(system: SystemConfig, seed: int, db_bytes: int, **spec) -> DTXCluster:
    """The paper's set-up (``build_cluster``): an XMark database of
    ``db_bytes`` split into 4 fragments over 4 sites, 12 clients placed
    round-robin, DTXTester transaction streams."""
    cfg = ExperimentConfig(
        n_sites=4,
        db_bytes=db_bytes,
        workload=WorkloadSpec(n_clients=12, seed=seed, **spec),
        system=system,
    )
    cluster, _ = build_cluster(cfg)
    return cluster


def _eager(seed: int, tracing: bool, window_ms: float) -> SystemConfig:
    """Primary-copy ROWA at factor 2: ``nearest`` reads, ``primary`` writes."""
    return SystemConfig().with_(
        seed=seed,
        tracing=tracing,
        replication_factor=2,
        replica_read_policy="nearest",
        replica_write_policy="primary",
        group_commit_window_ms=window_ms,
    )


def mixed(seed: int, tx_per_client: int, tracing: bool = False) -> DTXCluster:
    return _xmark_cluster(
        _eager(seed, tracing, window_ms=0.5), seed, 120_000,
        tx_per_client=tx_per_client, ops_per_tx=5, update_tx_ratio=0.3,
    )


def read_scan(seed: int, tx_per_client: int, tracing: bool = False) -> DTXCluster:
    return _xmark_cluster(
        SystemConfig().with_(seed=seed, tracing=tracing), seed, 240_000,
        tx_per_client=tx_per_client, ops_per_tx=5, update_tx_ratio=0.0,
    )


def write_heavy(seed: int, tx_per_client: int, tracing: bool = False) -> DTXCluster:
    return _xmark_cluster(
        _eager(seed, tracing, window_ms=0.0), seed, 120_000,
        tx_per_client=tx_per_client, ops_per_tx=2,
        update_tx_ratio=1.0, update_op_ratio=1.0,
    )


CONTENDED_GROUPS = 16
CONTENDED_CLIENTS_PER_GROUP = 8
CONTENDED_OPS_PER_TX = 8


def contended(seed: int, tx_per_client: int, tracing: bool = False) -> DTXCluster:
    system = SystemConfig().with_(seed=seed, tracing=tracing, client_think_ms=0.0)
    cluster = DTXCluster(config=system)
    hot = doc("hot", E("hot", *[E(f"v{g}", text="0") for g in range(CONTENDED_GROUPS)]))
    cluster.add_site("s1", [hot])
    cluster.add_site("s2", [hot])
    cluster.add_site("s3")  # data-less coordinator site: every wake is a notice
    clients = 0
    for g in range(CONTENDED_GROUPS):
        for c in range(CONTENDED_CLIENTS_PER_GROUP):
            txs = [
                Transaction(
                    [
                        # A constant payload: the final state does not
                        # depend on the commit order.
                        Operation.update("hot", ChangeOp(f"/hot/v{g}", "x"))
                        for _ in range(CONTENDED_OPS_PER_TX)
                    ],
                    label=f"g{g}c{c}t{t}",
                )
                for t in range(tx_per_client)
            ]
            cluster.add_client(f"c{clients}", "s3", txs)
            clients += 1
    return cluster


def regimes(seed: int, tx_per_client: int, tracing: bool = False) -> DTXCluster:
    system = SystemConfig.preset(
        "quorum", seed=seed, tracing=tracing, view_staleness_ms=20.0
    )
    cluster = _xmark_cluster(
        system, seed, 120_000,
        tx_per_client=tx_per_client, ops_per_tx=5, update_tx_ratio=0.3,
    )
    for name in cluster.catalog.all_documents():
        # Factor 3 on 4 sites: exactly one site holds no replica of the fragment.
        (host,) = set(cluster.sites) - set(cluster.catalog.sites_for(name))
        cluster.register_view(f"view-{name}", "//*", [name], host=host)
    return cluster


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., DTXCluster]  # (seed, tx_per_client, tracing) -> cluster
    tx_per_client: int  # per repetition
    repetitions: int  # per run of metrics.RUN_SECONDS
    why: str  # one line, copied into BENCHMARK.json


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mixed", mixed, tx_per_client=50, repetitions=6,
            why="Every layer works: XMark 120 KB, 4 sites, factor 2, nearest reads, "
                "primary writes, group commit; 12 clients x 5 ops, 30 % update tx. "
                "A regression anywhere shows here.",
        ),
        Workload(
            "read_scan", read_scan, tx_per_client=50, repetitions=6,
            why="Read-only, paper regime, XMark 240 KB: XPath evaluation and DataGuide "
                "matching dominate, xml does nothing. Persistence work must not show here.",
        ),
        Workload(
            "write_heavy", write_heavy, tx_per_client=25, repetitions=5,
            why="Every op an update, 2 ops per tx, no group commit: whole-document "
                "serialize per commit per replica dominates. Persistence and applier "
                "changes show here most.",
        ),
        Workload(
            "contended", contended, tx_per_client=5, repetitions=4,
            why="128 clients on a data-less site write 16 hot leaves of one tiny document "
                "replicated write-all: locks, wait-for graph, wakes, messages and "
                "coordinator code, no xml or xpath.",
        ),
        Workload(
            "regimes", regimes, tx_per_client=45, repetitions=5,
            why="Quorum preset (factor 3, leases, heartbeats) plus one //* view per "
                "fragment: the only workload that runs distribution, views and the "
                "sequenced-sync and view-push paths.",
        ),
    )
}
