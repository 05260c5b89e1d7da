"""Schedule determinism: hash-seed independence and pinned deliveries.

Python randomises ``str``/``bytes`` hashes per interpreter process, so any
accidental iteration over an unordered ``set``/``dict``-keyed-by-hash on the
hot path shows up as run-to-run schedule drift between interpreters even
with a fixed simulation seed. In-process tests cannot catch this (the hash
seed is fixed at startup), so one test runs the same contended scenario in
subprocesses under three different ``PYTHONHASHSEED`` values and asserts the
final state digest *and* the simulated duration are identical.

The other pins the message schedule of nine small runs: per cluster, the
number and SHA-256 of the ``Network._deliver`` items of its dispatch trace
(time, source, destination, message class). Five are one-cell sweeps; two
cover the lease-mode promotions, an election under a partition and a
migration cutover with writers; the refusal run covers refused commits and
aborts and the fails they lead to; the last runs materialized views under
the lease detector, a view host crashing and recovering with writers in
flight. Unlike a full trace these
name no process, so renaming or merging generators leaves them alone while
any moved, added or dropped message changes them — the check for a
refactor that must keep every schedule.

The last pins what storage holds at the end of five runs: per site, the
text ``InMemoryStore.raw`` gives back for every document and the store's
counters. A crash flush with transactions in flight, a view hydration from
a snapshot taken while writes were in flight, many commits of a write-only
workload, kept effects written through by a fail, and the lease-mode view
run each reach the committed state a different way; a refactor of how it is
kept must leave all five unchanged.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.experiments import ExperimentConfig, build_cluster, run_sweep
from repro.sim.environment import Environment
from repro.update import ChangeOp, InsertOp
from repro.verify import TraceRecorder, trace_digest
from repro.workload import WorkloadSpec

from .conftest import insert_tx, make_people_doc, make_products_doc, settle_migrations
from .test_core_distributed import two_site_cluster
from .test_migration import LEASE, migration_cluster
from .test_replication import rowa_cluster
from .test_snapshot_handover import views_under_faults

_SRC = str(Path(__file__).resolve().parent.parent / "src")

# Small contended scenario: remote coordinator, conflicting writer groups,
# replicated hot document — exercises locking, wake-ups, 2PC and sync paths.
_SCENARIO = """
import hashlib
from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.update import ChangeOp
from repro.xml import E, doc, serialize_document

cfg = SystemConfig().with_(client_think_ms=0.0)
cluster = DTXCluster(protocol="xdgl", config=cfg)
hot = doc("hot", E("hot", *[E(f"v{i}", text="0") for i in range(3)]))
cluster.add_site("s1", [hot])
cluster.add_site("s2", [hot])
cluster.add_site("s3", [])
n = 0
for g in range(3):
    for c in range(2):
        txs = [
            Transaction(
                [Operation.update("hot", ChangeOp(f"/hot/v{g}", "x")) for _ in range(2)],
                label=f"g{g}c{c}t{t}",
            )
            for t in range(2)
        ]
        cluster.add_client(f"c{n}", "s3", txs)
        n += 1
result = cluster.run()
digest = hashlib.sha256()
for sid in ("s1", "s2"):
    digest.update(serialize_document(cluster.document_at(sid, "hot")).encode())
print(f"{digest.hexdigest()} {result.duration_ms!r} {len(result.committed)}")
"""


def _run_under_hash_seed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SCENARIO],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, f"scenario failed under PYTHONHASHSEED={seed}:\n{proc.stderr}"
    return proc.stdout.strip()


def test_schedule_is_hash_seed_independent():
    outcomes = {seed: _run_under_hash_seed(seed) for seed in ("0", "1", "42")}
    digests = set(outcomes.values())
    assert len(digests) == 1, (
        "state digest / schedule drifts with the interpreter hash seed:\n"
        + "\n".join(f"  PYTHONHASHSEED={s}: {o}" for s, o in outcomes.items())
    )
    # Sanity: the scenario actually committed work.
    committed = next(iter(digests)).rsplit(" ", 1)[1]
    assert int(committed) == 12


def _sweep(name, **overrides):
    return lambda: run_sweep(name, **overrides)


def _partition_election():
    """One partitions cell: the busiest primary is cut off and the majority
    side elects over the wire (lease mode)."""
    result = run_sweep("partitions", lease_timeout_ms=(4.0,))
    assert all(cell["elections_won"] > 0 for cell in result.cells.values())


def _lease_cutover():
    """A lease-mode migration with writers at both old replicas: the target
    assumes primacy on request and announces it."""
    cluster = migration_cluster(config=LEASE)
    cluster.add_client("c1", "s1", [insert_tx(200 + k) for k in range(4)])
    cluster.add_client("c2", "s2", [insert_tx(300 + k) for k in range(4)])
    cluster.schedule_migration("d1", ("s4", "s3"), at_ms=3.0)
    cluster.run(drain_ms=80.0)
    settle_migrations(cluster, drain_ms=80.0)
    assert cluster.migration.history[-1].cutover_epoch > 0


def refusal_run():
    """The refusal paths, one cluster each: a refused commit aborts; a
    refused commit and a refused abort fail it (``FailNotice`` without
    ``persist``); a commit refused after the sync, with the primary a
    remote participant, fails it keeping the effects (``FailNotice`` with
    ``persist``)."""
    statuses = []
    for refuse_abort in (False, True):
        cluster = two_site_cluster()
        cluster.site("s2").refuse_commit.add("*")
        if refuse_abort:
            cluster.site("s2").refuse_abort.add("*")
        cluster.add_client("c1", "s1", [Transaction(
            [Operation.update("d1", ChangeOp("/people/person[id=1]/name", "V"))]
        )])
        statuses.append(cluster.run().records[0].status)
    cluster = rowa_cluster(n_sites=3, replicate_at=["s2", "s3"])  # primary s2
    cluster.host_document("s1", make_products_doc())
    cluster.site("s2").refuse_commit.add("*")
    cluster.add_client("c1", "s1", [Transaction(
        [Operation.update("d1", InsertOp("<person><id>9</id></person>", "/people"))]
    )])
    statuses.append(cluster.run().records[0].status)
    assert statuses == ["aborted", "failed", "failed"]


def lease_views_run():
    """dtxbench's ``regimes`` shape, smaller: the quorum preset (lease
    detector), one ``//*`` view per fragment hosted at the one site outside
    its replica set, and writers in flight when the first view host crashes
    and recovers (it re-hydrates while the others keep serving)."""
    system = SystemConfig.preset("quorum", seed=17, view_staleness_ms=20.0)
    workload = WorkloadSpec(
        n_clients=8, seed=17, tx_per_client=6, ops_per_tx=3, update_tx_ratio=0.5,
    )
    cluster, _ = build_cluster(
        ExperimentConfig(n_sites=4, db_bytes=20_000, workload=workload, system=system)
    )
    hosts = []
    for name in cluster.catalog.all_documents():
        (host,) = set(cluster.sites) - set(cluster.catalog.sites_for(name))
        cluster.register_view(f"view-{name}", "//*", [name], host=host)
        hosts.append(host)
    cluster.schedule_crash(hosts[0], at_ms=4.0, recover_at_ms=10.0)
    cluster.run(drain_ms=100.0)
    stats = cluster.site(hosts[0]).stats
    assert stats.crashes == 1 and stats.view_hydrations >= 2
    assert stats.view_reads_served > 0


#: run -> one (deliveries, digest) per cluster it built.
_PINNED_DELIVERIES = [
    ("availability", _sweep("availability", mode=("lazy",), crashes=(1,)), [
        (327, "c814ad2450e9d97b490827eea5d378af6cdd19373d2fd0f82b1047d2c392326c"),
    ]),
    ("quorum", _sweep("quorum", regime=("quorum-r2w2",), fault=("crash",)), [
        (3693, "d536c9565cc42e9098a05bcb39721d605f860d77a27e4c76ed649b67f96efa37"),
    ]),
    ("views", _sweep("views"), [
        (440, "349a63863f597a47e3c018b92eb2378050a5445abc9a21c14d9a7cbdf3959100"),
        (604, "9f6748cc1b600bb09a7d811a7a575bc34775914d68307799355365aec159021d"),
        (600, "a6cbde64f78d070deea4a9816df7894392ad266a46df5a960a5d9af0397e928f"),
    ]),
    ("replication", _sweep("replication", factor=(2,), update_ratio=(0.5,)), [
        (753, "e68196d0fb5e06277ad3563753ab0ac8da268b73c5de205c9e1f4f490e5d9db9"),
    ]),
    # Hash-ring placement plus its join and leave rebalances: 3 migrations,
    # 2 cutovers.
    ("scale", _sweep("scale", sites=(3,), clients=(6,)), [
        (250, "a3ced450654067e57eac7048b706ca4af0c1a4a32e5235cb803a43e3009cba53"),
    ]),
    ("partitions", _partition_election, [
        (2427, "5412c7a2e930becf2fc86b04a7828f5b7cc351ec8f1e663e7bfbcd5ff806243c"),
    ]),
    ("lease-cutover", _lease_cutover, [
        (2288, "e4e7a97f4d9985f78ff11adb467197db0f3d8909367153f43da64fa13b72443e"),
    ]),
    # Refused commits and aborts: an abort round, and a FailNotice with and
    # without persist.
    ("refusals", refusal_run, [
        (8, "3777922cb9566e232c27ff609f5dbf1c536fec8ba2c2b971422ef362824af542"),
        (9, "d6b529f024e2c759fe20c859ec9d34d2f9a64c017280e0efef5564da9ea29e96"),
        (9, "562e29ac3a6d075502baa7aa2d848bb178fd486b1ef3df361f3b16a0470c473c"),
    ]),
    # Views under leases: deltas, beacons, hydration, routed reads and
    # fallbacks, and a view host's crash, wipe and re-hydration.
    ("lease-views", lease_views_run, [
        (2433, "7dbebd1c6295a6dd6aced5ee419380f47a2a392cab5f57d6a7daeb0fc6c8d8c3"),
    ]),
]


@pytest.mark.parametrize(
    "run, pinned", [p[1:] for p in _PINNED_DELIVERIES], ids=[p[0] for p in _PINNED_DELIVERIES]
)
def test_delivery_fingerprints_are_pinned(monkeypatch, run, pinned):
    recorders = []
    init = Environment.__init__

    def recording_init(env, *args, **kwargs):
        init(env, *args, **kwargs)
        recorders.append(TraceRecorder().attach(env))

    monkeypatch.setattr(Environment, "__init__", recording_init)
    run()
    fingerprints = []
    for recorder in recorders:
        deliveries = [
            item for item in recorder.entries if item[1].startswith("call:Network._deliver:")
        ]
        fingerprints.append((len(deliveries), trace_digest(deliveries)))
    assert fingerprints == pinned


def _write_heavy():
    """dtxbench's ``write_heavy`` shape, smaller: 4 sites, factor 2, every
    operation an update, 2 per transaction, no group commit."""
    system = SystemConfig().with_(
        seed=11, replication_factor=2, replica_read_policy="nearest",
        replica_write_policy="primary", group_commit_window_ms=0.0,
    )
    workload = WorkloadSpec(
        n_clients=12, seed=11, tx_per_client=4, ops_per_tx=2,
        update_tx_ratio=1.0, update_op_ratio=1.0,
    )
    cluster, _ = build_cluster(
        ExperimentConfig(n_sites=4, db_bytes=30_000, workload=workload, system=system)
    )
    cluster.run()


#: run -> sha256 of every store's texts and counters, per cluster it built.
_PINNED_STORES = [
    # The crashed primary's flush renders with a transaction in flight, and
    # a catch-up snapshot is taken while another is.
    ("availability", lambda: run_sweep("availability", mode=("eager",), crashes=(1,)), [
        "1cf8a8d5c2a88c5963b9b7a4d3468c5f85cfc1179695f055ae14b88ab701412f",
    ]),
    # No views sweep cell hydrates while writes are in flight (hydration
    # settles before the first write); here a view re-hydrates after a
    # host crash while a write is in flight.
    ("views", lambda: views_under_faults(make_people_doc()), [
        "281348939e9a36a78334e4008404bbe39f1f4f2113a5adbd2740e579ae42b5df",
    ]),
    ("write_heavy", _write_heavy, [
        "c7954a88797c8cfe3c66620d681b1be7904e86844c827eb2bcdf28f458025388",
    ]),
    # A refused commit's abort, and kept effects persisted by a fail.
    ("refusals", refusal_run, [
        "af7f9667cbe8780e66f7caeef427f1c27e6cca4e4a29b610e1bb66b115cb0b4a",
        "9a8278be29262d61a983d243faf86d6210f181be8bd97240654cc8a93186ddbe",
        "02c4c7902e7e6a537291213693a9bef45450e840d6f8479623bd70b34683b432",
    ]),
    ("lease-views", lease_views_run, [
        "773444b1b63359a602b3da13e53566ebf11730d9ee89547955b6a40465f0bf18",
    ]),
]


def _store_fingerprint(cluster) -> str:
    digest = hashlib.sha256()
    for sid in sorted(cluster.sites, key=str):
        store = cluster.site(sid).data_manager.backend
        for name in store.list_documents():
            digest.update(f"{sid}/{name}\n".encode())
            digest.update(store.raw(name).encode())
        stats = store.stats
        digest.update(repr((
            stats.stores, stats.bytes_written, sorted(stats.per_document_stores.items()),
        )).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "run, pinned", [p[1:] for p in _PINNED_STORES], ids=[p[0] for p in _PINNED_STORES]
)
def test_persisted_state_is_pinned(monkeypatch, run, pinned):
    clusters = []
    init = DTXCluster.__init__

    def recording_init(cluster, *args, **kwargs):
        init(cluster, *args, **kwargs)
        clusters.append(cluster)

    monkeypatch.setattr(DTXCluster, "__init__", recording_init)
    run()
    assert [_store_fingerprint(cluster) for cluster in clusters] == pinned
