"""Fault tolerance: crash/recovery, primary failover, update-log catch-up,
epoch fencing, lazy propagation, and crash-during-2PC edge cases."""

from functools import partial

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.core.messages import ReplicaSyncBatch
from repro.distribution import UpdateLog, UpdateLogEntry
from repro.errors import ConfigError, DistributionError
from repro.sim.queues import Store
from repro.update import ChangeOp, InsertOp, InsertPosition, RemoveOp
from repro.verify import final_state_serializable, quiescent
from repro.xml import parse_document, serialize_document

from .conftest import (
    EagerReferenceStore,
    doc_at,
    example_budget,
    insert_op,
    insert_tx,
    make_people_doc,
    make_products_doc,
    replicated_cluster,
    settle_migrations,
)

FT = SystemConfig().with_(
    client_think_ms=0.0,
    detector_interval_ms=50.0,
    detector_initial_delay_ms=10.0,
    replication_factor=3,
    replica_read_policy="nearest",
    replica_write_policy="primary",
)
LAZY = FT.with_(replica_write_policy="lazy")


ft_cluster = partial(replicated_cluster, config=FT)


def one_entry_batch(coordinator, tid, lsn, epoch, ops):
    """A hand-built commit-time sync of one transaction's batch on d1 (its
    ack names no round in flight at ``coordinator`` and is dropped there)."""
    entry = UpdateLogEntry(lsn=lsn, epoch=epoch, tid=tid, doc_name="d1", ops=tuple(ops))
    return ReplicaSyncBatch(coordinator=coordinator, doc_name="d1", batch_id=0, entries=[entry])


# ---------------------------------------------------------------------------
# units: refusal helper, update log, network liveness, store
# ---------------------------------------------------------------------------


class TestShouldRefuse:
    def test_wildcard_and_tid(self):
        cluster = ft_cluster()
        site = cluster.site("s1")
        tid = object()
        assert not site.should_refuse(tid, set())
        assert site.should_refuse(tid, {"*"})
        assert site.should_refuse(tid, {tid})
        assert not site.should_refuse(tid, {object()})

    def test_shared_by_commit_abort_and_sync_hooks(self):
        site = ft_cluster().site("s1")
        for hook in (site.refuse_commit, site.refuse_abort, site.refuse_sync):
            hook.add("*")
            assert site.should_refuse(object(), hook)


class TestUpdateLog:
    def entry(self, lsn, epoch=0):
        return UpdateLogEntry(lsn=lsn, epoch=epoch, tid=f"t{lsn}", doc_name="d")

    def test_record_and_watermark(self):
        log = UpdateLog("d")
        assert log.applied_lsn == 0 and len(log) == 0
        log.record(self.entry(1))
        log.record(self.entry(2))
        assert log.applied_lsn == 2
        assert log.max_recorded_lsn == 2
        assert log.has(1) and log.has(2) and not log.has(3)

    def test_out_of_order_hole_then_fill(self):
        log = UpdateLog("d")
        log.record(self.entry(1))
        log.record(self.entry(3))  # racing non-conflicting batch
        assert log.applied_lsn == 1  # watermark stops at the hole
        assert log.max_recorded_lsn == 3
        assert log.contiguous_entries_after(0) == [log.entries[1]]
        log.record(self.entry(2))
        assert log.applied_lsn == 3
        assert [e.lsn for e in log.contiguous_entries_after(1)] == [2, 3]

    def test_record_twice_rejected(self):
        log = UpdateLog("d")
        log.record(self.entry(1))
        with pytest.raises(DistributionError):
            log.record(self.entry(1))

    def test_snapshot_reset(self):
        log = UpdateLog("d")
        log.record(self.entry(1))
        log.reset_to_snapshot(7, epoch=3)
        assert log.applied_lsn == 7
        assert log.last_epoch == 3
        assert log.has(5) and not log.has(8)
        assert not log.can_serve_after(6) and log.can_serve_after(7)

    def test_epoch_at(self):
        log = UpdateLog("d")
        log.record(self.entry(1, epoch=0))
        log.record(self.entry(2, epoch=2))
        assert log.epoch_at(0) == 0  # base
        assert log.epoch_at(1) == 0
        assert log.epoch_at(2) == 2
        assert log.epoch_at(9) is None

    def test_append_mints_above_the_tip(self):
        log = UpdateLog("d")
        assert log.append(self.entry(0)).lsn == 1
        assert log.append(self.entry(0)).lsn == 2
        log.record(self.entry(9))  # out of order, above a hole
        recorded = log.append(self.entry(0))
        assert recorded.lsn == 10 and log.entries[10] is recorded
        log.reset_to_snapshot(20, epoch=1)
        assert log.append(self.entry(0, epoch=1)).lsn == 21
        log.append(self.entry(0, epoch=1))
        assert log.compact_to(21) == 1 and log.max_recorded_lsn == 22
        assert log.append(self.entry(0, epoch=1)).lsn == 23
        with pytest.raises(DistributionError):
            log.append(self.entry(24))  # a shipped LSN is recorded, not minted

    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(("record", "append", "reset", "compact")),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=example_budget(60), deadline=None)
    def test_tip_is_the_highest_recorded_lsn(self, steps):
        log = UpdateLog("d")
        for action, lsn in steps:
            if action == "record":
                if log.has(lsn):
                    with pytest.raises(DistributionError):
                        log.record(self.entry(lsn))
                else:
                    log.record(self.entry(lsn))
            elif action == "append":
                tip = log.max_recorded_lsn
                assert log.append(self.entry(0)).lsn == tip + 1
            elif action == "reset":
                log.reset_to_snapshot(lsn, epoch=0)
            else:
                log.compact_to(lsn)
            assert log.max_recorded_lsn == max(log.entries, default=log.base_lsn)


class TestNetworkLiveness:
    def test_down_endpoint_drops_messages(self):
        cluster = ft_cluster()
        net = cluster.network
        net.set_down("s2")
        assert not net.is_up("s2")
        before = net.stats.messages
        assert net.send("s1", "s2", object(), size_bytes=10) == 0.0
        assert net.send("s2", "s1", object(), size_bytes=10) == 0.0
        assert net.stats.messages == before
        assert net.stats.dropped == 2
        net.set_up("s2")
        assert net.send("s1", "s2", object(), size_bytes=10) > 0.0

    def test_store_clear(self):
        cluster = ft_cluster()
        store = Store(cluster.env)
        store.put("a")
        store.put("b")
        assert store.clear() == 2
        assert len(store) == 0


class TestCatalogEpochsAndLsns:
    def test_set_primary_bumps_epoch(self):
        cluster = ft_cluster()
        epoch0 = cluster.catalog.epoch("d1")
        cluster.catalog.set_primary("d1", "s2")
        assert cluster.catalog.epoch("d1") == epoch0 + 1

    def test_lsn_allocation_and_reset(self):
        """The primary's log mints each LSN; a promoted primary's log
        continues above the tip it had at promotion, under the new epoch."""
        cluster = ft_cluster()
        for site in ("s2", "s3"):  # both secondaries hold LSNs 1 and 2
            for lsn in (1, 2):
                cluster.site(site).log_for("d1").record(
                    UpdateLogEntry(lsn=lsn, epoch=0, tid=f"t{lsn}", doc_name="d1")
                )
        epoch0 = cluster.catalog.epoch("d1")
        cluster.crash_site("s1")
        assert cluster.catalog.replica_set("d1").primary == "s2"
        tx = insert_tx(9)
        cluster.add_client("c1", "s4", [tx])
        assert len(cluster.run().committed) == 1
        for site in ("s2", "s3"):
            entry = cluster.site(site).log_for("d1").entries[3]
            assert (entry.epoch, entry.tid) == (epoch0 + 1, tx.tid)
            assert cluster.site(site).log_for("d1").max_recorded_lsn == 3


# ---------------------------------------------------------------------------
# crash basics
# ---------------------------------------------------------------------------


class TestCrashBasics:
    def test_crash_wipes_volatile_state_and_recover_reloads(self):
        cluster = ft_cluster()
        tx = insert_tx(9)
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run()
        assert len(res.committed) == 1
        site = cluster.site("s1")
        # Write the live document *without* committing, then crash.
        site.data_manager.write("d1", InsertOp("<dirty/>", "/people"))
        site.crash()
        assert not site.alive
        assert site.lock_manager.table.is_empty()
        site.recover()
        assert site.alive
        # The uncommitted in-memory mutation is gone; the committed insert
        # (persisted at commit) survived the crash.
        text = doc_at(cluster, "s1")
        assert "dirty" not in text
        assert "<id>9</id>" in text

    def test_submit_to_down_site_fails_fast(self):
        cluster = ft_cluster()
        cluster.site("s4").crash()
        tx = insert_tx(9)
        cluster.add_client("c1", "s4", [tx])
        res = cluster.run()
        assert len(res.failed) == 1
        assert res.failed[0].reason == "site-down"
        for s in ("s1", "s2", "s3"):
            assert "<id>9</id>" not in doc_at(cluster, s)

    def test_crash_mid_transaction_fails_client_and_releases_locks(self):
        cluster = ft_cluster()
        tx = insert_tx(9)
        cluster.add_client("c1", "s1", [tx])
        cluster.schedule_crash("s1", at_ms=0.02)  # mid-flight
        res = cluster.run(drain_ms=20.0)
        assert len(res.failed) == 1
        assert res.failed[0].reason in ("site-crashed", "site-down")
        assert quiescent(cluster) == []

    def test_schedule_crash_validation(self):
        cluster = ft_cluster()
        with pytest.raises(ConfigError):
            cluster.schedule_crash("s1", at_ms=-1.0)
        with pytest.raises(ConfigError):
            cluster.schedule_crash("s1", at_ms=5.0, recover_at_ms=5.0)


# ---------------------------------------------------------------------------
# failover: promotion, fencing, routing
# ---------------------------------------------------------------------------


class TestFailover:
    def test_promotion_picks_most_caught_up_live_secondary(self):
        cluster = ft_cluster()
        # s3's log is ahead of s2's: it must win the election.
        cluster.site("s2").log_for("d1").record(
            UpdateLogEntry(lsn=1, epoch=0, tid="t1", doc_name="d1")
        )
        for lsn in (1, 2):
            cluster.site("s3").log_for("d1").record(
                UpdateLogEntry(lsn=lsn, epoch=0, tid=f"t{lsn}", doc_name="d1")
            )
        epoch0 = cluster.catalog.epoch("d1")
        cluster.crash_site("s1")
        rset = cluster.catalog.replica_set("d1")
        assert rset.primary == "s3"
        assert cluster.catalog.epoch("d1") == epoch0 + 1  # fencing epoch
        assert cluster.faults.stats.promotions == 1

    def test_promotion_tie_breaks_by_placement_order(self):
        cluster = ft_cluster()
        cluster.crash_site("s1")
        assert cluster.catalog.replica_set("d1").primary == "s2"

    def test_writes_route_to_new_primary_after_crash(self):
        cluster = ft_cluster()
        cluster.crash_site("s1")
        tx = insert_tx(9)
        cluster.add_client("c1", "s4", [tx])
        res = cluster.run()
        assert len(res.committed) == 1
        assert tx.sites_involved == {"s2"}  # the promoted primary
        assert "<id>9</id>" in doc_at(cluster, "s2")
        assert "<id>9</id>" in doc_at(cluster, "s3")

    def test_reads_survive_primary_crash(self):
        cluster = ft_cluster()
        cluster.crash_site("s1")
        tx = Transaction([Operation.query("d1", "/people/person[id=4]")])
        cluster.add_client("c1", "s3", [tx])
        res = cluster.run()
        assert len(res.committed) == 1
        assert tx.sites_involved == {"s3"}  # nearest live replica

    def test_no_live_replica_aborts(self):
        cluster = ft_cluster(replicate_at=["s1", "s2"])
        cluster.crash_site("s1")
        cluster.crash_site("s2")
        tx = insert_tx(9)
        cluster.add_client("c1", "s4", [tx])
        res = cluster.run()
        assert len(res.committed) == 0
        record = res.records[0]
        assert record.status in ("aborted", "failed")
        assert record.reason == "no-live-replica"

    def test_stale_epoch_sync_refused(self):
        cluster = ft_cluster()
        cluster.start()
        before = doc_at(cluster, "s3")
        stale_epoch = cluster.catalog.epoch("d1")
        cluster.catalog.set_primary("d1", "s2")  # bump: fences the old epoch
        msg = one_entry_batch(
            "s1", tid="stale-tx", lsn=1, epoch=stale_epoch,
            ops=[Operation.update("d1", InsertOp("<person><id>66</id></person>", "/people"))],
        )
        cluster.network.send("s1", "s3", msg)
        cluster.env.run(until=cluster.env.now + 10.0)
        assert doc_at(cluster, "s3") == before  # fenced: not applied
        assert cluster.site("s3").stats.syncs_refused == 1
        assert len(cluster.site("s3").log_for("d1")) == 0


# ---------------------------------------------------------------------------
# the acceptance scenario: primary crash mid-workload, factor 3
# ---------------------------------------------------------------------------


class TestPrimaryCrashMidWorkload:
    def test_promotion_catchup_and_zero_lost_updates(self):
        initial = {"d1": make_people_doc()}
        cluster = ft_cluster(config=FT.with_(client_think_ms=0.2))
        txs = []
        # Clients at the secondaries and the spare site — the primary s1
        # crashes mid-workload and recovers later.
        for i, site in enumerate(("s2", "s3", "s4")):
            mine = [insert_tx(100 + 10 * i + k) for k in range(2)]
            txs.extend(mine)
            cluster.add_client(f"c{i}", site, mine)
        cluster.schedule_crash("s1", at_ms=1.2, recover_at_ms=12.0)
        res = cluster.run(drain_ms=120.0)
        assert res.site_crashes == 1 and res.site_recoveries == 1
        assert res.promotions >= 1
        new_primary = cluster.catalog.replica_set("d1").primary
        assert new_primary != "s1"
        assert cluster.catalog.epoch("d1") >= 1

        committed = [t for t in txs if t.state.value == "committed"]
        assert committed, "the workload made no progress through the crash"
        texts = {s: doc_at(cluster, s) for s in ("s1", "s2", "s3")}
        # Zero lost committed updates: every committed marker is at every
        # replica — including the recovered ex-primary — exactly once.
        for tx in committed:
            marker = str(tx.operations[0].payload)
            marker = marker[marker.index("<id>"):marker.index("</id>") + 5]
            for site, text in texts.items():
                assert text.count(marker) == 1, (
                    f"committed {tx.label}: marker {marker} at {site} "
                    f"appears {text.count(marker)} times"
                )
        # Replicas byte-identical after recovery + catch-up.
        assert quiescent(cluster) == []
        # The recovered site reconciled through the catch-up machinery —
        # by log replay when its tip is on the survivors' timeline, by
        # snapshot when it crashed holding records the fan-out never
        # delivered (primary-first sequencing makes that window real: the
        # primary records before any secondary sees the batch, so a crash
        # in between leaves a fenced tail only a snapshot can heal).
        s1 = cluster.site("s1")
        assert s1.stats.catchups >= 1
        assert s1.stats.catchup_entries_replayed + s1.stats.catchup_snapshots >= 1
        # And the final state matches a serial order of the committed txs.
        observed = {"d1": texts[new_primary]}
        assert final_state_serializable(initial, committed, observed)


# ---------------------------------------------------------------------------
# crash-during-2PC edge cases (satellite)
# ---------------------------------------------------------------------------


class TestCrashDuring2PC:
    def test_coordinator_crashes_after_sending_commit_request(self):
        """The client sees 'failed'; the participants — already holding the
        synced updates — resolve to commit and stay byte-identical."""
        cluster = ft_cluster(replicate_at=["s2", "s3"])  # primary s2
        coordinator = cluster.site("s1")
        coordinator.crash_points.add("commit-request-sent")
        tx = insert_tx(9)
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run(drain_ms=60.0)
        assert len(res.failed) == 1
        assert res.failed[0].reason == "site-crashed"
        assert not coordinator.alive
        # s2 (primary) got the CommitRequest or resolved the orphan as
        # synced; s3 applied the eager sync: identical, durable, unlocked.
        assert "<id>9</id>" in doc_at(cluster, "s2")
        assert quiescent(cluster) == []

    def test_coordinator_crashes_before_sync_aborts_orphans(self):
        """Crash before any replication: participants abort the orphan and
        no effects survive anywhere."""
        cluster = ft_cluster(replicate_at=["s2", "s3"])
        before = doc_at(cluster, "s2")
        coordinator = cluster.site("s1")

        # Crash the coordinator at the exact moment the remote op executed
        # at the primary (stepping the kernel makes the timing precise).
        cluster.start()
        tx = insert_tx(9)
        cluster.add_client("c1", "s1", [tx])
        while cluster.site("s2").stats.ops_executed < 1:
            cluster.env.step()
        cluster.crash_site("s1")
        cluster.env.run(until=cluster.env.now + 60.0)
        assert not coordinator.alive
        assert doc_at(cluster, "s2") == before
        assert doc_at(cluster, "s3") == before
        assert cluster.site("s2").lock_manager.table.is_empty()

    def test_secondary_crashes_mid_sync_commit_proceeds(self):
        """A secondary dying before it applies the sync no longer blocks
        the commit; it converges by log replay after recovery."""
        cluster = ft_cluster()
        cluster.site("s3").crash_points.add("sync-recv")
        tx = insert_tx(9)
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run(drain_ms=10.0)
        assert len(res.committed) == 1  # availability: commit went through
        assert not cluster.site("s3").alive
        assert "<id>9</id>" in doc_at(cluster, "s2")
        assert "<id>9</id>" not in doc_at(cluster, "s3")
        cluster.recover_site("s3")
        cluster.env.run(until=cluster.env.now + 120.0)
        assert quiescent(cluster) == []
        assert cluster.site("s3").stats.catchup_entries_replayed == 1

    def test_secondary_crashes_after_apply_before_ack(self):
        """Crash between the durable apply and the ack: the commit still
        proceeds, and recovery replay is idempotent — one copy remains."""
        cluster = ft_cluster()
        cluster.site("s3").crash_points.add("sync-applied")
        tx = insert_tx(9)
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run(drain_ms=10.0)
        assert len(res.committed) == 1
        cluster.recover_site("s3")
        cluster.env.run(until=cluster.env.now + 120.0)
        text = doc_at(cluster, "s3")
        assert text.count("<id>9</id>") == 1  # replayed at most once
        assert text == doc_at(cluster, "s1")


class TestReplayIdempotence:
    def test_duplicate_sync_applies_once(self):
        cluster = ft_cluster()
        tx = insert_tx(9)
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run()
        assert len(res.committed) == 1
        # Replay the exact committed log entry at a secondary.
        entry = cluster.site("s1").log_for("d1").entries[1]
        dup = one_entry_batch(
            "s1", tid=entry.tid, lsn=entry.lsn, epoch=entry.epoch, ops=entry.ops
        )
        cluster.network.send("s1", "s2", dup)
        cluster.env.run(until=cluster.env.now + 10.0)
        text = doc_at(cluster, "s2")
        assert text.count("<id>9</id>") == 1  # one copy, not two
        assert text == doc_at(cluster, "s1")


# ---------------------------------------------------------------------------
# refusal healing and lazy propagation
# ---------------------------------------------------------------------------


class TestRefusedSyncHeals:
    def test_refusing_secondary_catches_up_on_next_write(self):
        cluster = ft_cluster()
        s3 = cluster.site("s3")
        s3.refuse_sync.add("*")
        cluster.add_client("c1", "s1", [insert_tx(9, "w1")])
        cluster.run(drain_ms=2.0)
        assert "<id>9</id>" not in doc_at(cluster, "s3")  # refused, behind
        # Lift the fault; the next write's gap triggers an inline catch-up.
        s3.refuse_sync.discard("*")
        cluster.add_client("c2", "s1", [insert_tx(10, "w2")])
        cluster.env.run(until=cluster.env.now + 60.0)
        text = doc_at(cluster, "s3")
        assert "<id>9</id>" in text and "<id>10</id>" in text
        assert text == doc_at(cluster, "s1")
        assert s3.stats.catchup_entries_replayed >= 1


class TestTwoDocumentSync:
    def test_one_primary_refuses_the_other_documents_record_keeps_state(self):
        """Each document's batch rides its own outbox and round. d2's
        primary refuses to record; d1's primary already holds a durable
        record, so the transaction cannot unwind cleanly: it fails with
        its effects kept — on *both* documents — and every replica pair
        is identical once the kept d2 effect has been pushed."""
        cluster = ft_cluster(config=FT.with_(replication_factor=2), replicate_at=["s1", "s3"])
        cluster.replicate_document(make_products_doc(), ["s2", "s3"])
        cluster.site("s2").refuse_sync.add("*")  # d2's primary; no d1 copy
        tx = Transaction(
            [
                insert_op(9),
                Operation.update("d2", InsertOp("<product><id>99</id></product>", "/products")),
            ]
        )
        cluster.add_client("c1", "s4", [tx])
        res = cluster.run(drain_ms=60.0)
        (record,) = res.records
        assert (record.status, record.reason) == ("failed", "sync-quorum-lost")
        assert cluster.site("s2").stats.syncs_refused == 1
        assert quiescent(cluster) == []
        assert "<id>9</id>" in doc_at(cluster, "s1")
        assert "<id>99</id>" in doc_at(cluster, "s2", "d2")


class TestLazyPropagation:
    def test_commit_returns_before_secondaries_sync(self):
        cluster = ft_cluster(config=LAZY)
        tx = insert_tx(9)
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run(drain_ms=0.0)
        assert len(res.committed) == 1
        assert tx.sites_involved == {"s1"}
        # Inside the staleness window: the primary has it, secondaries not.
        assert "<id>9</id>" in doc_at(cluster, "s1")
        assert "<id>9</id>" not in doc_at(cluster, "s2")
        cluster.env.run(until=cluster.env.now + 30.0)
        for s in ("s2", "s3"):
            assert "<id>9</id>" in doc_at(cluster, s)
        assert cluster.site("s1").stats.lazy_batches_propagated == 2
        assert cluster.site("s2").log_for("d1").applied_lsn == 1

    def test_lazy_primary_crash_loses_unpropagated_tail(self):
        """The documented lazy loss window: a commit inside the staleness
        delay dies with the primary; the cluster converges on the promoted
        secondary's (shorter) timeline, including the deposed primary."""
        cluster = ft_cluster(config=LAZY)
        tx = insert_tx(9)
        cluster.add_client("c1", "s1", [tx])
        res = cluster.run(drain_ms=0.0)
        assert len(res.committed) == 1
        cluster.crash_site("s1")  # inside the staleness window
        cluster.env.run(until=cluster.env.now + 30.0)
        assert cluster.catalog.replica_set("d1").primary == "s2"
        assert "<id>9</id>" not in doc_at(cluster, "s2")  # tail lost
        cluster.recover_site("s1")
        cluster.env.run(until=cluster.env.now + 120.0)
        # The deposed primary discarded its phantom tail (snapshot heal).
        assert quiescent(cluster) == []
        assert "<id>9</id>" not in doc_at(cluster, "s1")


class TestPhantomLsnReuse:
    def test_reused_lsn_under_new_epoch_heals_by_snapshot(self):
        """Promotion restarts the LSN sequence at the new primary's tip, so
        a slot can be reused under a newer epoch while another replica
        still holds a *phantom* entry (same LSN, deposed epoch) above a
        hole. The phantom holder must detect the epoch mismatch and heal
        by snapshot — acking the new batch as a duplicate would silently
        diverge forever."""
        cluster = ft_cluster()
        cluster.start()
        env = cluster.env
        # Four ordinary commits: every replica reaches watermark 4.
        cluster.add_client("c0", "s1", [insert_tx(50 + k) for k in range(4)])
        env.run(until=40.0)
        assert cluster.site("s2").log_for("d1").applied_lsn == 4
        epoch0 = cluster.catalog.epoch("d1")

        def batch(lsn, marker):
            return one_entry_batch(
                "s4", tid=f"race-{lsn}", lsn=lsn, epoch=epoch0,
                ops=[Operation.update(
                    "d1", InsertOp(f"<person><id>{marker}</id></person>", "/people"))],
            )

        # Two racing batches whose sender then dies: lsn 6 ("B") reaches
        # the primary and s2 first (hole at 5), lsn 5 ("A") reaches the
        # primary and s3 only.
        cluster.network.send("s4", "s1", batch(6, "666"))
        env.run(until=env.now + 5.0)
        cluster.network.send("s4", "s2", batch(6, "666"))
        env.run(until=env.now + 5.0)
        cluster.network.send("s4", "s1", batch(5, "555"))
        cluster.network.send("s4", "s3", batch(5, "555"))
        env.run(until=env.now + 5.0)
        s2_log = cluster.site("s2").log_for("d1")
        assert s2_log.applied_lsn == 4 and s2_log.max_recorded_lsn == 6  # hole
        assert cluster.site("s3").log_for("d1").applied_lsn == 5

        # Primary dies; s3 (watermark 5) wins over s2 (watermark 4), and
        # the LSN sequence restarts at 5 — the next batch reuses LSN 6.
        cluster.crash_site("s1")
        assert cluster.catalog.replica_set("d1").primary == "s3"
        cluster.add_client("c1", "s4", [insert_tx(777)])
        env.run(until=env.now + 80.0)

        s3_text = doc_at(cluster, "s3")
        s2_text = doc_at(cluster, "s2")
        assert "<id>777</id>" in s3_text and "<id>555</id>" in s3_text
        # s2 healed by snapshot: the phantom "666" was discarded, the new
        # timeline (including the reused LSN 6) fully adopted.
        assert cluster.site("s2").stats.catchup_snapshots >= 1
        assert "<id>666</id>" not in s2_text
        assert s2_text == s3_text
        # The deposed primary converges too once it comes back.
        cluster.recover_site("s1")
        env.run(until=env.now + 120.0)
        assert quiescent(cluster) == []


class TestWhatAPromotionLeavesBehind:
    @pytest.mark.parametrize("detector", ["perfect", "lease"])
    def test_winner_with_an_inherited_hole(self, detector):
        """Perfect failover and a lease election leave the same state: the
        winner's log compacted to its tip, the next write one LSN above it
        under the new epoch, one promotion row, and the other survivor
        converged byte for byte."""
        config = FT
        if detector == "lease":
            config = FT.with_(
                failure_detector="lease", lease_timeout_ms=4.0, lock_wait_timeout_ms=100.0
            )
        cluster = ft_cluster(config=config)
        cluster.start()
        env = cluster.env
        cluster.add_client("c0", "s1", [insert_tx(50 + k) for k in range(4)])
        env.run(until=40.0)
        s2 = cluster.site("s2")
        epoch0 = s2.catalog.epoch("d1")
        # LSN 6 reaches s2 and LSN 5 never does: s2 records above a hole.
        # It ties with s3 on the applied LSN (4) and wins on placement order.
        cluster.network.send("s4", "s2", one_entry_batch(
            "s4", tid="race-6", lsn=6, epoch=epoch0, ops=[insert_op(666)],
        ))
        env.run(until=env.now + 5.0)
        log = s2.log_for("d1")
        assert (log.applied_lsn, log.max_recorded_lsn) == (4, 6)
        assert cluster.site("s3").log_for("d1").applied_lsn == 4

        rows = len(cluster.faults.stats.promotion_log)
        crashed_at = env.now
        cluster.crash_site("s1")
        env.run(until=env.now + 30.0)  # lease mode: suspicion and election
        epoch = s2.catalog.epoch("d1")
        assert epoch > epoch0
        new_rows = cluster.faults.stats.promotion_log[rows:]
        assert [row[1:] for row in new_rows] == [("d1", "s1", "s2", epoch)]
        assert new_rows[0][0] >= crashed_at
        log = s2.log_for("d1")
        assert (log.base_lsn, log.applied_lsn, log.max_recorded_lsn) == (6, 6, 6)

        cluster.add_client("c1", "s4", [insert_tx(777)])
        env.run(until=env.now + 80.0)
        log = s2.log_for("d1")
        assert log.max_recorded_lsn == 7
        assert log.entries[7].epoch == epoch
        assert "<id>777</id>" in doc_at(cluster, "s2")
        assert quiescent(cluster) == []


# ---------------------------------------------------------------------------
# durability: text rendered when read vs. an eager store at every persist
# ---------------------------------------------------------------------------


def _checked_cluster(config):
    """``ft_cluster`` on stores that compare every persist and read with an
    eager ``store(committed tree)`` (see ``EagerReferenceStore``)."""
    return replicated_cluster(config, backend_factory=EagerReferenceStore)


def _recover_and_check(cluster, site_id):
    """Recover ``site_id``: each reloaded tree must be the committed state
    storage held — an eager rendering of the committed tree, parsed."""
    site = cluster.site(site_id)
    durable = dict(site.data_manager.backend.reference)
    cluster.recover_site(site_id)
    for name in site.documents_hosted():
        assert serialize_document(cluster.document_at(site_id, name)) == serialize_document(
            parse_document(durable[name], name=name)
        )


class TestDeferredDurability:
    def test_crash_resurrects_no_uncommitted_effect(self):
        cluster = _checked_cluster(FT)
        cluster.start()
        cluster.add_client("c0", "s1", [insert_tx(50)])
        cluster.env.run(until=40.0)
        # Two statements: crash the primary once the first has executed.
        cluster.add_client("c1", "s1", [Transaction([
            insert_op(900),
            Operation.update("d1", ChangeOp("/people/person[id=1]/name", "Late")),
        ])])
        store = cluster.site("s1").data_manager.backend
        for _ in range(400):
            cluster.env.run(until=cluster.env.now + 0.01)
            if "<id>900</id>" in doc_at(cluster, "s1"):
                break
        assert "<id>900</id>" in doc_at(cluster, "s1")
        assert "<id>900</id>" not in store.raw("d1")
        cluster.crash_site("s1")
        store.check_reads()
        _recover_and_check(cluster, "s1")
        assert "<id>900</id>" not in doc_at(cluster, "s1")
        assert "<id>50</id>" in doc_at(cluster, "s1")

    @given(
        seed=st.integers(0, 2**16),
        crash_site=st.sampled_from(["s1", "s2"]),
        crash_at=st.floats(0.5, 12.0),
        down_ms=st.sampled_from([2.0, 15.0]),
        migrate_at=st.one_of(st.none(), st.floats(1.0, 12.0)),
        read_at=st.lists(st.floats(0.1, 40.0), max_size=6),
    )
    @settings(
        max_examples=example_budget(25),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_persist_and_read_matches_an_eager_store(
        self, seed, crash_site, crash_at, down_ms, migrate_at, read_at
    ):
        """Committed batches, aborts, replicated entries at the secondaries,
        a promoted secondary's first own write (its store reference moves to
        the shadow), catch-up by replay and by snapshot install, migration
        retire (``drop_document``) and crash + recover, at random times. The
        stores assert the charged bytes at every persist; read probes and
        recoveries compare what storage answers with the eager reference."""
        config = FT.with_(
            client_think_ms=0.3, seed=seed, lock_wait_timeout_ms=200.0, max_restarts=1
        )
        cluster = _checked_cluster(config)
        for i, site in enumerate(("s1", "s2", "s4")):
            base = 100 + 10 * i
            cluster.add_client(f"c{i}", site, [
                insert_tx(base),
                Transaction([  # aborts: a sibling insert cannot reach the root
                    insert_op(base + 1),
                    Operation.update("d1", InsertOp("<x/>", "/people", InsertPosition.BEFORE)),
                ], label=f"a{base + 1}"),
                Transaction([
                    Operation.update(
                        "d1", ChangeOp("/people/person[id=4]/name", f"n\u00e9{base} & <co>")
                    ),
                    insert_op(base + 2),
                ], label=f"w{base + 2}"),
                Transaction([Operation.update("d1", RemoveOp(f"/people/person[id={base}]"))]),
                insert_tx(base + 3),
            ])
        stores = {sid: site.data_manager.backend for sid, site in cluster.sites.items()}

        def probe():
            for store in stores.values():
                store.check_reads()

        def crash():
            cluster.crash_site(crash_site)
            stores[crash_site].check_reads()

        cluster.env.schedule_call(crash_at, crash)
        cluster.env.schedule_call(crash_at + down_ms, _recover_and_check, cluster, crash_site)
        for at in read_at:
            cluster.env.schedule_call(at, probe)
        if migrate_at is not None:
            cluster.schedule_migration("d1", ("s3", "s4"), at_ms=migrate_at)

        result = cluster.run(drain_ms=0.0)
        if migrate_at is not None:
            settle_migrations(cluster)
        cluster.env.run(until=cluster.env.now + 400.0)
        probe()

        assert any(r.status == "committed" for r in result.records)
        assert not any(r.label.startswith("a") and r.status == "committed" for r in result.records)
        assert sum(store.persists for store in stores.values()) > 0
        assert quiescent(cluster) == []
        for s in cluster.catalog.sites_for("d1"):
            if cluster.site(s).alive and not cluster.site(s).holds_placeholder("d1"):
                # Quiesced: what storage holds is what the site serves.
                assert serialize_document(parse_document(stores[s].raw("d1"))) == doc_at(cluster, s)


class TestFailKeepsState:
    def test_a_refused_abort_keeps_its_effects_as_committed_state(self):
        """The abort round of ``V`` is refused, so it fails without
        ``persist`` at both sites and they keep its effects. A later
        committed write on the same node must persist as committed, with
        the bytes it charges, and come back after crash + recover."""
        config = SystemConfig().with_(client_think_ms=0.0)  # both copies written
        cluster = DTXCluster(protocol="xdgl", config=config, backend_factory=EagerReferenceStore)
        cluster.add_site("s1", [make_people_doc()])
        cluster.add_site("s2", [make_people_doc()])
        refusing = cluster.site("s2")
        refusing.refuse_commit.add("*")
        refusing.refuse_abort.add("*")

        def rename(text):
            return Transaction(
                [Operation.update("d1", ChangeOp("/people/person[id=1]/name", text))], label=text
            )

        cluster.add_client("c0", "s1", [rename("V")])
        cluster.run()
        refusing.refuse_commit.clear()
        refusing.refuse_abort.clear()
        cluster.add_client("c1", "s1", [rename("Longer")])
        result = cluster.run()
        assert [(r.label, r.status) for r in result.records] == [
            ("V", "failed"), ("Longer", "committed"),
        ]
        for site_id in ("s1", "s2"):
            store = cluster.site(site_id).data_manager.backend
            store.check_reads()
            assert "<name>Longer</name>" in store.raw("d1")
            assert store.raw("d1") == doc_at(cluster, site_id)
            cluster.crash_site(site_id)
            store.check_reads()
            _recover_and_check(cluster, site_id)
            assert "<name>Longer</name>" in doc_at(cluster, site_id)


# ---------------------------------------------------------------------------
# availability experiment smoke
# ---------------------------------------------------------------------------


class TestAvailabilitySweep:
    def test_tiny_sweep_runs_and_checks(self):
        from repro.experiments import run_sweep

        result = run_sweep(
            "availability",
            crashes=(0, 1),
            sites=3,
            replication_factor=2,
            clients=4,
            tx_per_client=2,
            ops_per_tx=2,
            db_bytes=8_000,
            drain_ms=60.0,
        )
        assert len(result.cells) == 4  # 2 modes x 2 crash counts
        notes = result.sweep.check(result)
        assert any("cells" in n for n in notes)
        table = result.render("committed", "{:9.0f}")
        assert "eager" in table and "lazy" in table
