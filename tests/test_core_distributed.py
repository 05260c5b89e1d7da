"""Integration tests for distributed execution: replication, remote ops,
distributed deadlock detection, commit/abort/fail messaging."""

import pytest

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.verify import quiescent
from repro.config import NetworkConfig
from repro.update import ChangeOp, InsertOp, RemoveOp, TransposeOp
from repro.xml import serialize_document

from .conftest import make_people_doc, make_products_doc

CFG = SystemConfig().with_(
    client_think_ms=0.0, detector_interval_ms=50.0, detector_initial_delay_ms=10.0
)


def two_site_cluster(protocol="xdgl", config=CFG):
    """Paper §2.4 layout: s1 holds d1; s2 holds d1 and d2."""
    cluster = DTXCluster(protocol=protocol, config=config)
    cluster.add_site("s1", [make_people_doc()])
    cluster.add_site("s2", [make_people_doc(), make_products_doc()])
    return cluster


class TestReplication:
    def test_update_applies_at_all_replicas(self):
        cluster = two_site_cluster()
        tx = Transaction(
            [Operation.update("d1", InsertOp("<person><id>9</id><name>Rui</name></person>", "/people"))]
        )
        cluster.add_client("c1", "s1", [tx])
        cluster.run()
        s1_doc = serialize_document(cluster.document_at("s1", "d1"))
        s2_doc = serialize_document(cluster.document_at("s2", "d1"))
        assert s1_doc == s2_doc
        assert "Rui" in s1_doc

    def test_remote_only_document(self):
        """Coordinator at s1 operates on d2, which lives only at s2."""
        cluster = two_site_cluster()
        tx = Transaction(
            [Operation.update("d2", ChangeOp("/products/product[id=4]/price", "1.23"))]
        )
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run()
        assert len(res.committed) == 1
        assert cluster.document_at("s2", "d2").root.children[0].child("price").text == "1.23"

    def test_replica_persisted_at_both_sites_on_commit(self):
        cluster = two_site_cluster()
        tx = Transaction([Operation.update("d1", ChangeOp("/people/person[id=1]/name", "Q"))])
        cluster.add_client("c1", "s1", [tx])
        cluster.run()
        for sid in ("s1", "s2"):
            raw = cluster.site(sid).data_manager.backend.raw("d1")
            assert "Q" in raw

    def test_abort_rolls_back_every_replica(self):
        cluster = two_site_cluster()
        before = serialize_document(make_people_doc())
        tx = Transaction(
            [
                Operation.update("d1", InsertOp("<person><id>9</id></person>", "/people")),
                # fails everywhere -> abort
                Operation.update("d1", TransposeOp("/people", "/people/person")),
            ]
        )
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run()
        assert len(res.aborted) == 1
        assert serialize_document(cluster.document_at("s1", "d1")) == before
        assert serialize_document(cluster.document_at("s2", "d1")) == before

    def test_locks_released_everywhere_after_commit(self):
        cluster = two_site_cluster()
        tx = Transaction([Operation.update("d1", ChangeOp("/people/person[id=4]/name", "W"))])
        cluster.add_client("c1", "s1", [tx])
        cluster.run()
        assert quiescent(cluster) == []

    def test_total_replication_more_messages_than_partial(self):
        # Same logical workload against a replicated vs a single-home doc.
        r1 = self._run_with_placement(["s1", "s2", "s3"])
        r2 = self._run_with_placement(["s1"])
        assert r1.network_messages > r2.network_messages
        assert r1.mean_response_ms() > r2.mean_response_ms()

    @staticmethod
    def _run_with_placement(sites):
        cluster = DTXCluster(protocol="xdgl", config=CFG)
        for s in ("s1", "s2", "s3"):
            cluster.add_site(s)
        doc = make_people_doc()
        for s in sites:
            cluster.host_document(s, doc)
        txs = [
            Transaction([Operation.update("d1", InsertOp(f"<person><id>{i}</id></person>", "/people"))])
            for i in range(300, 305)
        ]
        cluster.add_client("c1", "s1", txs)
        return cluster.run()


class TestDistributedDeadlock:
    def crosswise_transactions(self):
        t1 = Transaction(
            [
                Operation.query("d1", "/people/person[id=4]"),
                Operation.update("d2", InsertOp("<product><id>13</id></product>", "/products")),
            ],
            label="t1",
        )
        t2 = Transaction(
            [
                Operation.query("d2", "/products/product"),
                Operation.update("d1", InsertOp("<person><id>22</id></person>", "/people")),
            ],
            label="t2",
        )
        return t1, t2

    def test_crosswise_deadlock_detected_and_resolved(self):
        cluster = two_site_cluster()
        t1, t2 = self.crosswise_transactions()
        cluster.add_client("c1", "s1", [t1])
        cluster.add_client("c2", "s2", [t2])
        res = cluster.run()
        statuses = {r.label: r.status for r in res.records}
        assert sorted(statuses.values()) == ["aborted", "committed"]
        assert res.distributed_deadlocks >= 1

    def test_victim_is_most_recent_transaction(self):
        """The paper's rule: t2 (submitted second) is rolled back."""
        cfg = CFG.with_(client_think_ms=0.0)
        cluster = two_site_cluster(config=cfg)
        t1, t2 = self.crosswise_transactions()
        cluster.add_client("c1", "s1", [t1])

        # Delay t2's submission slightly so its start timestamp is larger.
        def delayed():
            yield cluster.env.timeout(0.05)
            cluster.add_client("c2", "s2", [t2])

        cluster.env.process(delayed())
        res = cluster.run()
        by_label = {r.label: r for r in res.records}
        assert by_label["t1"].status == "committed"
        assert by_label["t2"].status == "aborted"
        assert by_label["t2"].reason == "distributed-deadlock"

    def test_deadlock_leaves_consistent_state(self):
        cluster = two_site_cluster()
        t1, t2 = self.crosswise_transactions()
        cluster.add_client("c1", "s1", [t1])
        cluster.add_client("c2", "s2", [t2])
        cluster.run()
        assert quiescent(cluster) == []
        for sid in ("s1", "s2"):
            site = cluster.site(sid)
            for name in site.data_manager.live_documents():
                site.protocol.guide(name).validate_against(site.data_manager.document(name))

    def test_detector_sweeps_counted(self):
        def sweeps(config):
            cluster = two_site_cluster(config=config)
            cluster.add_client(
                "c1", "s1", [Transaction([Operation.query("d1", "/people")])]
            )
            return cluster.run(until=500.0).detector_sweeps

        assert sweeps(CFG) >= 5
        # A faster detector sweeps more.
        slow = CFG.with_(detector_interval_ms=200.0, detector_initial_delay_ms=100.0)
        assert sweeps(CFG) > sweeps(slow) >= 1

    def test_aborted_victim_can_be_resubmitted(self):
        # Client think time gives the survivor room to finish; with zero
        # think time the crosswise pair deterministically re-deadlocks on
        # every resubmission (the paper leaves the retry decision to the
        # client application for exactly this reason).
        cfg = CFG.with_(max_restarts=3, client_think_ms=30.0)
        cluster = two_site_cluster(config=cfg)
        t1, t2 = self.crosswise_transactions()
        cluster.add_client("c1", "s1", [t1])
        cluster.add_client("c2", "s2", [t2])
        res = cluster.run()
        # With restarts allowed, both transactions eventually commit.
        assert sorted(r.status for r in res.records) == ["committed", "committed"]
        assert res.total_restarts >= 1


class TestCommitAbortFaults:
    def test_refused_commit_aborts_transaction(self):
        cluster = two_site_cluster()
        cluster.site("s2").refuse_commit.add("*")
        tx = Transaction([Operation.update("d1", ChangeOp("/people/person[id=1]/name", "V"))])
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run()
        assert len(res.aborted) == 1
        assert res.aborted[0].reason == "commit-refused"
        # Abort rolled the update back on the healthy site.
        assert cluster.document_at("s1", "d1").root.children[0].child("name").text == "Carlos"

    def test_refused_abort_fails_transaction(self):
        cluster = two_site_cluster()
        cluster.site("s2").refuse_commit.add("*")
        cluster.site("s2").refuse_abort.add("*")
        tx = Transaction([Operation.update("d1", ChangeOp("/people/person[id=1]/name", "V"))])
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run()
        assert len(res.failed) == 1
        # Locks must not leak even on failure.
        assert quiescent(cluster) == []

    def test_fail_counts_in_site_stats(self):
        cluster = two_site_cluster()
        cluster.site("s2").refuse_commit.add("*")
        cluster.site("s2").refuse_abort.add("*")
        tx = Transaction([Operation.update("d1", ChangeOp("/people/person[id=1]/name", "V"))])
        cluster.add_client("c1", "s1", [tx])
        cluster.run()
        assert cluster.site("s1").stats.fails >= 1


class TestManySites:
    def test_eight_site_cluster_runs(self):
        cluster = DTXCluster(protocol="xdgl", config=CFG)
        doc = make_people_doc()
        for i in range(1, 9):
            cluster.add_site(f"s{i}")
        for i in range(1, 9):
            cluster.host_document(f"s{i}", doc)  # total replication
        txs = [
            Transaction([Operation.update("d1", InsertOp(f"<person><id>{400+i}</id></person>", "/people"))])
            for i in range(3)
        ]
        cluster.add_client("c1", "s1", txs)
        res = cluster.run()
        assert len(res.committed) == 3
        texts = {
            serialize_document(cluster.document_at(f"s{i}", "d1")) for i in range(1, 9)
        }
        assert len(texts) == 1  # all eight replicas identical

    def test_more_replicas_cost_more_time(self):
        def run(n_sites, latency_ms=None):
            config = CFG
            if latency_ms is not None:
                config = CFG.with_(network=NetworkConfig(latency_ms=latency_ms))
            cluster = DTXCluster(protocol="xdgl", config=config)
            doc = make_people_doc()
            for i in range(n_sites):
                cluster.add_site(f"s{i}")
                cluster.host_document(f"s{i}", doc)
            tx = Transaction(
                [Operation.update("d1", InsertOp("<person><id>7</id></person>", "/people"))]
            )
            cluster.add_client("c", "s0", [tx])
            return cluster.run().mean_response_ms()

        assert run(8) > run(2)
        # Response time grows with network latency; WAN-scale latency gives
        # more than 5x the LAN response.
        resp = [run(4, latency) for latency in (0.25, 1.0, 5.0, 20.0)]
        assert resp == sorted(resp), f"response should grow with latency: {resp}"
        assert resp[-1] > 5 * resp[0]
