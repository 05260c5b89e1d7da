"""Replication layer: replica sets, primary-copy ROWA routing, sync-on-commit."""

from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import pytest

from repro import DTXCluster, Operation, SystemConfig, Transaction, TxState
from repro.distribution import (
    Catalog,
    ReplicaSet,
    ReplicationPolicy,
    replica_placement,
)
from repro.errors import ConfigError, DistributionError
from repro.experiments import run_sweep
from repro.sim.rng import substream
from repro.update import ChangeOp, InsertOp, TransposeOp
from repro.verify import final_state_serializable, quiescent
from repro.xml import serialize_document

from .conftest import doc_at, make_people_doc, make_products_doc, replicated_cluster

ROWA = SystemConfig().with_(
    client_think_ms=0.0,
    detector_interval_ms=50.0,
    detector_initial_delay_ms=10.0,
    replication_factor=2,
    replica_read_policy="nearest",
    replica_write_policy="primary",
)


rowa_cluster = partial(replicated_cluster, config=ROWA, n_sites=3)


# ---------------------------------------------------------------------------
# units: ReplicaSet / catalog / policy / placement
# ---------------------------------------------------------------------------


class TestReplicaSet:
    def test_basic_properties(self):
        rset = ReplicaSet("d1", primary="s1", secondaries=("s2", "s3"))
        assert rset.all_sites == ("s1", "s2", "s3")
        assert rset.degree == 3
        assert rset.is_replicated
        assert "s2" in rset and "s9" not in rset

    def test_unreplicated_set(self):
        rset = ReplicaSet("d1", primary="s1")
        assert rset.degree == 1
        assert not rset.is_replicated
        assert rset.all_sites == ("s1",)

    def test_primary_among_secondaries_rejected(self):
        with pytest.raises(DistributionError):
            ReplicaSet("d1", primary="s1", secondaries=("s1", "s2"))


class TestCatalogReplicaSets:
    def test_replica_set_primary_is_first_site(self):
        catalog = Catalog()
        catalog.add("d1", ["s2", "s1", "s3"])
        rset = catalog.replica_set("d1")
        assert rset.primary == "s2"
        assert rset.secondaries == ("s1", "s3")

    def test_set_primary_reorders_placement(self):
        catalog = Catalog()
        catalog.add("d1", ["s1", "s2", "s3"])
        catalog.set_primary("d1", "s3")
        assert catalog.replica_set("d1").primary == "s3"
        assert set(catalog.sites_for("d1")) == {"s1", "s2", "s3"}

    def test_set_primary_requires_existing_replica(self):
        catalog = Catalog()
        catalog.add("d1", ["s1"])
        with pytest.raises(DistributionError):
            catalog.set_primary("d1", "s9")

    def test_multi_site_lookup_unknown_document(self):
        with pytest.raises(DistributionError):
            Catalog().replica_set("ghost")


class TestReplicationPolicy:
    RSET = ReplicaSet("d1", primary="s1", secondaries=("s2", "s3"))

    def test_default_policy_is_the_papers_regime(self):
        policy = ReplicationPolicy()
        policy.validate()
        assert policy.route_read(self.RSET, origin="s9") == ["s1", "s2", "s3"]
        assert policy.route_write(self.RSET) == ["s1", "s2", "s3"]
        assert policy.sync_targets(self.RSET) == []
        assert not policy.is_primary_copy

    def test_primary_copy_write_routing(self):
        policy = ReplicationPolicy(read_policy="primary", write_policy="primary")
        assert policy.route_write(self.RSET) == ["s1"]
        assert policy.sync_targets(self.RSET) == ["s2", "s3"]
        assert policy.is_primary_copy

    def test_nearest_read_prefers_local_replica(self):
        policy = ReplicationPolicy(read_policy="nearest", write_policy="primary")
        assert policy.route_read(self.RSET, origin="s3") == ["s3"]
        assert policy.route_read(self.RSET, origin="s9") == ["s1"]

    def test_random_read_stays_inside_the_replica_set(self):
        policy = ReplicationPolicy(read_policy="random", write_policy="primary")
        rng = substream(7, "test-route")
        picks = {policy.route_read(self.RSET, "s9", rng=rng)[0] for _ in range(40)}
        assert picks <= {"s1", "s2", "s3"}
        assert len(picks) > 1  # actually spreads the reads

    def test_read_your_writes_pins_to_primary(self):
        policy = ReplicationPolicy(read_policy="nearest", write_policy="primary")
        routed = policy.route_read(self.RSET, origin="s3", wrote_before=True)
        assert routed == ["s1"]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigError):
            ReplicationPolicy(read_policy="quorum").validate()
        with pytest.raises(ConfigError):
            ReplicationPolicy(write_policy="none").validate()
        with pytest.raises(ConfigError):
            ReplicationPolicy(factor=0).validate()

    def test_config_knobs_validated_through_system_config(self):
        with pytest.raises(ConfigError):
            SystemConfig().with_(replica_read_policy="quorum")
        with pytest.raises(ConfigError):
            SystemConfig().with_(replication_factor=0)


def allocated_cluster():
    """d1 and d2 at factor 2 over three sites, primaries rotating."""
    sites = ["s1", "s2", "s3"]
    cluster = DTXCluster(protocol="xdgl", config=ROWA)
    for s in sites:
        cluster.add_site(s)
    for i, doc in enumerate([make_people_doc("d1"), make_products_doc("d2")]):
        cluster.replicate_document(doc, replica_placement(i, sites, 2))
    return cluster


class TestReplicatedAllocation:
    def test_replica_placement_round_robin(self):
        sites = ["s1", "s2", "s3"]
        assert replica_placement(0, sites, 2) == ["s1", "s2"]
        assert replica_placement(2, sites, 2) == ["s3", "s1"]

    def test_replica_placement_bounds(self):
        with pytest.raises(DistributionError):
            replica_placement(0, ["s1"], 2)
        with pytest.raises(DistributionError):
            replica_placement(0, [], 1)

    def test_replicated_placement_rotates_primaries(self):
        cluster = allocated_cluster()
        assert cluster.catalog.replica_set("d1").primary == "s1"
        assert cluster.catalog.replica_set("d2").primary == "s2"
        for name in ("d1", "d2"):
            assert cluster.catalog.replication_degree(name) == 2

    def test_replicate_document_elects_primary_over_existing_placement(self):
        cluster = DTXCluster(protocol="xdgl", config=ROWA)
        for s in ("s1", "s2", "s3"):
            cluster.add_site(s)
        d = make_people_doc()
        cluster.host_document("s3", d)  # pre-existing single-site placement
        cluster.replicate_document(d, ["s1", "s2"])
        assert cluster.catalog.replica_set("d1").primary == "s1"
        assert set(cluster.catalog.sites_for("d1")) == {"s1", "s2", "s3"}

    def test_allocated_cluster_runs(self):
        cluster = allocated_cluster()
        tx = Transaction(
            [Operation.update("d1", InsertOp("<person><id>8</id></person>", "/people"))]
        )
        cluster.add_client("c1", "s3", [tx])
        res = cluster.run()
        assert len(res.committed) == 1
        assert quiescent(cluster) == []


class TestReplicationSweepCheck:
    """The sweep's read-only bound: 5 % over factor 1 for ``primary`` and
    ``nearest`` reads, one network round trip (0.6 ms at the default
    latency and jitter) for ``random`` reads, which go remote more often as
    the factor grows."""

    @pytest.fixture(scope="class")
    def random_grid(self):
        return run_sweep("replication", read_policy="random", clients=6)

    def test_random_reads_on_six_clients_pass(self, random_grid):
        notes = random_grid.sweep.check(random_grid)
        assert notes[0].endswith("random reads may add one round trip (0.60 ms)")

    def test_an_inflated_cell_fails(self, random_grid):
        cells = {key: dict(cell) for key, cell in random_grid.cells.items()}
        grid = replace(random_grid, cells=cells)
        base = cells[(1, 0.0)]["response_ms"]
        cells[(4, 0.0)]["response_ms"] = base + 0.61
        with pytest.raises(AssertionError, match="one round trip"):
            grid.sweep.check(grid)
        # Within one round trip but more than 5 % over: only random passes.
        cells[(4, 0.0)]["response_ms"] = base + 0.59
        grid.sweep.check(grid)
        grid.params = SimpleNamespace(**{**vars(grid.params), "read_policy": "nearest"})
        with pytest.raises(AssertionError, match="worsened under replication"):
            grid.sweep.check(grid)


# ---------------------------------------------------------------------------
# integration: sync-on-commit visibility, routing, rollback
# ---------------------------------------------------------------------------


class TestPrimaryCopyIntegration:
    def test_write_at_primary_visible_at_every_secondary(self):
        cluster = rowa_cluster(n_sites=4, replicate_at=["s1", "s2", "s3", "s4"])
        tx = Transaction(
            [Operation.update("d1", InsertOp("<person><id>9</id><name>Rui</name></person>", "/people"))]
        )
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run()
        assert len(res.committed) == 1
        assert quiescent(cluster) == []
        assert "Rui" in doc_at(cluster, "s1")
        # Persisted to storage at every replica, not just live memory.
        for s in ("s1", "s2", "s3", "s4"):
            assert "Rui" in cluster.site(s).data_manager.backend.raw("d1")

    def test_write_from_secondary_coordinator_routes_to_primary(self):
        cluster = rowa_cluster(n_sites=3)
        tx = Transaction(
            [Operation.update("d1", ChangeOp("/people/person[id=4]/name", "Ana"))]
        )
        cluster.add_client("c1", "s3", [tx])  # s3 is a secondary of d1
        res = cluster.run()
        assert len(res.committed) == 1
        assert tx.sites_involved == {"s1"}  # locked at the primary only
        for s in ("s1", "s2", "s3"):
            assert "Ana" in serialize_document(cluster.document_at(s, "d1"))

    def test_write_then_read_pins_read_to_primary(self):
        cluster = rowa_cluster(n_sites=3)
        tx = Transaction(
            [
                Operation.update("d1", InsertOp("<person><id>9</id></person>", "/people")),
                Operation.query("d1", "/people/person"),
            ]
        )
        cluster.add_client("c1", "s3", [tx])
        res = cluster.run()
        assert len(res.committed) == 1
        # Without read-your-writes the query would run at the local s3
        # replica; with it, the whole transaction stays at the primary.
        assert tx.sites_involved == {"s1"}

    def test_read_only_transaction_stays_local(self):
        cluster = rowa_cluster(n_sites=3)
        tx = Transaction([Operation.query("d1", "/people/person[id=4]")])
        cluster.add_client("c1", "s2", [tx])
        res = cluster.run()
        assert len(res.committed) == 1
        assert tx.sites_involved == {"s2"}
        assert cluster.site("s1").stats.ops_executed == 0
        assert cluster.site("s2").stats.ops_executed == 1
        assert cluster.site("s2").stats.reads_routed == 1

    def test_abort_never_reaches_secondaries(self):
        cluster = rowa_cluster(n_sites=3)
        before = serialize_document(make_people_doc())
        tx = Transaction(
            [
                Operation.update("d1", InsertOp("<person><id>9</id></person>", "/people")),
                # Fails at the primary -> abort before any sync is sent.
                Operation.update("d1", TransposeOp("/people", "/people/person")),
            ]
        )
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run()
        assert len(res.aborted) == 1
        for s in ("s1", "s2", "s3"):
            assert serialize_document(cluster.document_at(s, "d1")) == before
            assert cluster.site(s).stats.replica_syncs_served == 0
            assert cluster.site(s).lock_manager.table.is_empty()

    def test_sync_messages_counted_per_secondary(self):
        cluster = rowa_cluster(n_sites=3)
        txs = [
            Transaction([Operation.update("d1", InsertOp(f"<person><id>{i}</id></person>", "/people"))])
            for i in range(50, 53)
        ]
        cluster.add_client("c1", "s1", txs)
        res = cluster.run()
        assert len(res.committed) == 3
        # 3 tx x 2 secondaries, each a batch of one (the primary coordinates,
        # so its own record is a local append, not a message).
        assert cluster.network.stats.by_kind.get("ReplicaSyncBatch") == 6
        assert cluster.site("s1").stats.group_batches_sent == 6
        assert cluster.site("s1").stats.group_batched_syncs == 3
        assert cluster.site("s2").stats.replica_syncs_served == 3
        assert cluster.site("s3").stats.replica_syncs_served == 3
        assert cluster.site("s1").stats.replica_syncs_served == 0

    def test_commit_refused_after_sync_fails_without_diverging(self):
        """A participant refusing the commit vote *after* secondaries were
        synced must not undo at the primary alone: the transaction fails
        with its effects kept everywhere, and replicas stay identical."""
        cluster = rowa_cluster(n_sites=3, replicate_at=["s1", "s2"])
        cluster.host_document("s3", make_products_doc())
        cluster.site("s3").refuse_commit.add("*")
        tx = Transaction(
            [
                Operation.query("d2", "/products/product"),  # involves s3
                Operation.update("d1", InsertOp("<person><id>9</id></person>", "/people")),
            ]
        )
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run()
        assert len(res.failed) == 1
        assert quiescent(cluster) == []  # no divergence: effects kept at both
        assert "<id>9</id>" in doc_at(cluster, "s1")
        for s in ("s1", "s2"):  # durable at both, like a normal sync
            assert "<id>9</id>" in cluster.site(s).data_manager.backend.raw("d1")

    def test_commit_refused_after_sync_persists_at_remote_primary(self):
        """Coordinator, primary and secondary on three different sites: the
        post-sync failure must persist the kept effects at the *primary*
        (a remote participant that only receives a FailNotice), not just
        wherever the coordinator happens to be."""
        cluster = rowa_cluster(n_sites=3, replicate_at=["s2", "s3"])  # primary s2
        cluster.host_document("s1", make_products_doc())
        cluster.site("s2").refuse_commit.add("*")
        tx = Transaction(
            [Operation.update("d1", InsertOp("<person><id>9</id></person>", "/people"))]
        )
        cluster.add_client("c1", "s1", [tx])  # s1 holds no replica of d1
        res = cluster.run()
        assert len(res.failed) == 1
        for s in ("s2", "s3"):
            assert "<id>9</id>" in cluster.site(s).data_manager.backend.raw("d1")
        assert quiescent(cluster) == []

    def test_read_your_writes_pin_outranks_read_policy_all(self):
        """write_policy='primary' + read_policy='all': a read of a document
        the transaction already wrote must stay at the primary — the
        secondaries do not have the update before commit."""
        cfg = ROWA.with_(replica_read_policy="all")
        cluster = rowa_cluster(config=cfg, n_sites=3)
        tx = Transaction(
            [
                Operation.update("d1", InsertOp("<person><id>9</id></person>", "/people")),
                Operation.query("d1", "/people/person[id=9]"),
            ]
        )
        cluster.add_client("c1", "s2", [tx])
        res = cluster.run()
        assert len(res.committed) == 1
        assert tx.sites_involved == {"s1"}  # both ops pinned to the primary

    def test_commit_refused_before_sync_still_aborts_cleanly(self):
        """Same fault but with no executed update: nothing was synced, so
        the ordinary abort path runs and nothing changes anywhere."""
        before = serialize_document(make_people_doc())
        cluster = rowa_cluster(n_sites=3, replicate_at=["s1", "s2"])
        cluster.site("s2").refuse_commit.add("*")
        tx = Transaction(
            [
                Operation.query("d1", "/people/person"),
                Operation.query("d1", "/people/person[id=4]"),
            ]
        )
        cfg_all_reads = ROWA.with_(replica_read_policy="all")
        cluster2 = rowa_cluster(config=cfg_all_reads, n_sites=2, replicate_at=["s1", "s2"])
        cluster2.site("s2").refuse_commit.add("*")
        cluster2.add_client("c1", "s1", [tx])
        res = cluster2.run()
        assert len(res.aborted) == 1
        assert res.aborted[0].reason == "commit-refused"
        assert serialize_document(cluster2.document_at("s1", "d1")) == before

    def test_dataguides_stay_synced_at_secondaries(self):
        cluster = rowa_cluster(n_sites=3)
        tx = Transaction(
            [Operation.update("d1", InsertOp("<person><id>9</id><tag/></person>", "/people"))]
        )
        cluster.add_client("c1", "s1", [tx])
        cluster.run()
        for s in ("s1", "s2", "s3"):
            site = cluster.site(s)
            site.protocol.guide("d1").validate_against(site.data_manager.document("d1"))


class TestConflictSerialization:
    def test_two_writers_on_different_replicas_serialize_through_primary(self):
        """Writers connected to *different* replicas of d1 both route their
        updates to the primary, whose lock table orders them."""
        initial = {"d1": make_people_doc()}
        cluster = rowa_cluster(n_sites=2, replicate_at=["s1", "s2"])
        t1 = Transaction(
            [Operation.update("d1", ChangeOp("/people/person[id=4]/name", "A"))],
            label="t1",
        )
        t2 = Transaction(
            [Operation.update("d1", ChangeOp("/people/person[id=4]/name", "B"))],
            label="t2",
        )
        cluster.add_client("c1", "s1", [t1])
        cluster.add_client("c2", "s2", [t2])
        res = cluster.run()
        # No replica-acquisition race exists under primary-copy routing:
        # both writers commit, one strictly after the other.
        assert sorted(r.status for r in res.records) == ["committed", "committed"]
        assert t1.sites_involved == t2.sites_involved == {"s1"}
        # Primary's lock table made one of them wait (or at least ordered
        # them); the final state matches exactly one serial order.
        final = {
            s: serialize_document(cluster.document_at(s, "d1")) for s in ("s1", "s2")
        }
        assert final["s1"] == final["s2"]
        committed = [t for t in (t1, t2) if t.state is TxState.COMMITTED]
        observed = {"d1": final["s1"]}
        assert final_state_serializable(initial, committed, observed)

    def test_conflicting_writer_waits_for_primary_lock(self):
        cluster = rowa_cluster(n_sites=2, replicate_at=["s1", "s2"])
        t1 = Transaction(
            [
                Operation.update("d1", ChangeOp("/people/person[id=4]/name", "A")),
                Operation.update("d1", ChangeOp("/people/person[id=1]/name", "AA")),
            ],
            label="t1",
        )
        t2 = Transaction(
            [Operation.update("d1", ChangeOp("/people/person[id=4]/name", "B"))],
            label="t2",
        )
        cluster.add_client("c1", "s1", [t1])
        cluster.add_client("c2", "s2", [t2])
        res = cluster.run()
        assert sorted(r.status for r in res.records) == ["committed", "committed"]
        # The loser blocked at the primary at least once.
        assert cluster.site("s1").stats.ops_blocked >= 1
        assert t1.stats.waits + t2.stats.waits >= 1

    @pytest.mark.parametrize("protocol", ["xdgl", "node2pl", "doclock2pl"])
    def test_replicated_mixed_workload_serializable(self, protocol):
        initial = {"d1": make_people_doc(), "d2": make_products_doc()}
        cluster = DTXCluster(protocol=protocol, config=ROWA)
        for s in ("s1", "s2", "s3"):
            cluster.add_site(s)
        cluster.replicate_document(initial["d1"], ["s1", "s2"])
        cluster.replicate_document(initial["d2"], ["s2", "s3"])
        all_txs = []
        for c in range(4):
            if c % 2 == 0:
                ops = [
                    Operation.update(
                        "d1", InsertOp(f"<person><id>{80 + c}</id></person>", "/people")
                    ),
                    Operation.query("d2", "/products/product"),
                ]
            else:
                ops = [
                    Operation.query("d1", "/people/person"),
                    Operation.update(
                        "d2", ChangeOp("/products/product[id=4]/price", f"{c}.00")
                    ),
                ]
            tx = Transaction(ops, label=f"m{c}")
            all_txs.append(tx)
            cluster.add_client(f"c{c}", f"s{c % 3 + 1}", [tx])
        cluster.run()
        committed = [t for t in all_txs if t.state is TxState.COMMITTED]
        assert committed  # at least someone made it
        for sid in ("s1", "s2", "s3"):
            site = cluster.site(sid)
            observed = {
                name: serialize_document(site.data_manager.document(name))
                for name in site.data_manager.live_documents()
            }
            site_initial = {n: d for n, d in initial.items() if n in observed}
            assert final_state_serializable(site_initial, committed, observed), (
                f"{protocol}: state at {sid} matches no serial order"
            )
        assert quiescent(cluster) == []  # replicas byte-identical, among the rest
