"""Lease-based membership: heartbeats, suspicion, election over the wire,
network partitions, split-brain prevention, view dissemination, and the
heartbeat-watermark log compaction."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.core.faults import SiteMembership
from repro.distribution import (
    Catalog,
    CatalogView,
    ReplicaSet,
    UpdateLog,
    UpdateLogEntry,
)
from repro.errors import ConfigError, SimulationError
from repro.experiments.sweeps import _divergent_pairs
from repro.sim.environment import Environment
from repro.sim.network import Network
from repro.update import InsertOp
from repro.xml import serialize_document

from .conftest import example_budget, make_people_doc

LEASE = SystemConfig().with_(
    client_think_ms=2.0,
    detector_interval_ms=50.0,
    detector_initial_delay_ms=10.0,
    replication_factor=3,
    replica_read_policy="nearest",
    replica_write_policy="primary",
    failure_detector="lease",
    lease_timeout_ms=4.0,
    lock_wait_timeout_ms=100.0,
    max_restarts=3,
)


def lease_cluster(config=LEASE, n_sites=4, replicate_at=None):
    """d1 replicated at ``replicate_at`` (default: s1 primary, s2, s3)."""
    cluster = DTXCluster(protocol="xdgl", config=config)
    sites = [f"s{i + 1}" for i in range(n_sites)]
    for s in sites:
        cluster.add_site(s)
    cluster.replicate_document(make_people_doc(), replicate_at or sites[:3])
    return cluster


def insert_tx(marker, label=""):
    return Transaction(
        [Operation.update("d1", InsertOp(f"<person><id>{marker}</id></person>", "/people"))],
        label=label or f"w{marker}",
    )


def doc_at(cluster, site):
    return serialize_document(cluster.document_at(site, "d1"))


def assert_committed_exactly_once(cluster, txs, result=None, sites=("s1", "s2", "s3")):
    """Every committed insert present exactly once at every replica.

    Committed labels come from the run ``result``'s records when given:
    client restarts resubmit *clones* sharing the label, so the original
    objects miss retried-then-committed writers.
    """
    texts = {s: doc_at(cluster, s) for s in sites}
    if result is not None:
        labels = sorted({r.label for r in result.committed})
    else:
        labels = sorted(t.label for t in txs if t.state.value == "committed")
    for label in labels:
        marker = f"<id>{label[1:]}</id>"
        for site, text in texts.items():
            assert text.count(marker) == 1, (
                f"committed {label} at {site}: {text.count(marker)} copies"
            )
    assert len(set(texts.values())) == 1, "replicas diverged"
    return labels


# ---------------------------------------------------------------------------
# units: config, network partitions, catalog views, lease table, compaction
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_detector_names(self):
        SystemConfig().with_(failure_detector="lease").validate()
        with pytest.raises(ConfigError):
            SystemConfig().with_(failure_detector="gossip")

    def test_lease_must_exceed_heartbeat(self):
        with pytest.raises(ConfigError):
            SystemConfig().with_(lease_timeout_ms=1.0)

    def test_timer_positivity(self):
        for knob in ("lease_timeout_ms", "detector_interval_ms", "view_refresh_ms"):
            with pytest.raises(ConfigError):
                SystemConfig().with_(**{knob: 0.0})
        # The heartbeat period and election window are constants, not knobs.
        with pytest.raises(ConfigError, match="unknown SystemConfig field"):
            SystemConfig().with_(heartbeat_interval_ms=1.0)


class TestNetworkPartitions:
    def net(self):
        env = Environment()
        net = Network(env, SystemConfig().network)
        for s in ("a", "b", "c", "d"):
            net.register(s)
        return env, net

    def test_partition_cuts_cross_group_sends(self):
        env, net = self.net()
        net.partition(["a"], ["b", "c"])
        assert not net.reachable("a", "b")
        assert net.reachable("b", "c")
        assert net.send("a", "b", object(), size_bytes=8) == 0.0
        assert net.stats.partition_drops == 1
        assert net.send("b", "c", object(), size_bytes=8) > 0.0

    def test_unlisted_sites_form_an_implicit_group(self):
        env, net = self.net()
        net.partition(["a"], ["b"])
        assert net.reachable("c", "d")  # both unlisted: together
        assert not net.reachable("c", "a")
        assert not net.reachable("c", "b")

    def test_heal_reconnects(self):
        env, net = self.net()
        net.partition(["a"], ["b", "c", "d"])
        net.heal_partition()
        assert net.reachable("a", "b")
        assert net.send("a", "b", object(), size_bytes=8) > 0.0

    def test_in_flight_messages_die_at_the_cut(self):
        env, net = self.net()
        net.send("a", "b", "payload", size_bytes=8)
        net.partition(["a"], ["b"])  # cut while in flight
        env.run(until=10.0)
        assert len(net.inbox("b")) == 0
        assert net.stats.partition_drops == 1

    def test_duplicate_group_membership_rejected(self):
        env, net = self.net()
        with pytest.raises(SimulationError):
            net.partition(["a", "b"], ["b", "c"])

    def test_link_loss_blackhole_and_validation(self):
        env, net = self.net()
        with pytest.raises(SimulationError):
            net.set_link_loss("a", "b", 1.5)
        net.set_link_loss("a", "b", 1.0)
        assert net.send("a", "b", object(), size_bytes=8) == 0.0
        assert net.stats.loss_drops == 1
        assert net.send("b", "a", object(), size_bytes=8) == 0.0  # symmetric
        net.set_link_loss("a", "b", 0.0)
        assert net.send("a", "b", object(), size_bytes=8) > 0.0

    def test_asymmetric_loss(self):
        env, net = self.net()
        net.set_link_loss("a", "b", 1.0, symmetric=False)
        assert net.send("a", "b", object(), size_bytes=8) == 0.0
        assert net.send("b", "a", object(), size_bytes=8) > 0.0


PLACED = ("d", "e")
PLACEMENT_SITES = ("s1", "s2", "s3", "s4")
placement_sites = st.sampled_from(PLACEMENT_SITES)
placement_actions = st.one_of(
    st.tuples(
        st.just("add"),
        st.sampled_from(PLACED),
        st.permutations(PLACEMENT_SITES).flatmap(
            lambda sites: st.integers(1, len(sites)).map(lambda n: tuple(sites[:n]))
        ),
    ),
    st.tuples(st.just("set_primary"), st.sampled_from(PLACED), placement_sites),
    st.tuples(
        st.just("apply_primary"),
        st.sampled_from(PLACED),
        st.integers(0, 1),
        placement_sites,
        st.integers(0, 8),
    ),
)


def fresh_replica_set(catalog, doc_name):
    """The placement as a ReplicaSet, built from scratch."""
    sites = catalog.sites_for(doc_name)
    return ReplicaSet(doc_name=doc_name, primary=sites[0], secondaries=sites[1:])


def fresh_view_replica_set(view, doc_name):
    """A view's set, built from scratch: its override while that is newer
    than the shared catalog's epoch, the shared placement otherwise."""
    override = view._overrides.get(doc_name)
    if override is None or override[1] <= view._shared.epoch(doc_name):
        return fresh_replica_set(view._shared, doc_name)
    primary = override[0]
    secondaries = tuple(s for s in view.sites_for(doc_name) if s != primary)
    return ReplicaSet(doc_name=doc_name, primary=primary, secondaries=secondaries)


class TestCatalogView:
    def shared(self):
        catalog = Catalog()
        catalog.add("d", ("s1", "s2", "s3"))
        return catalog

    def test_passthrough_before_any_announce(self):
        shared = self.shared()
        view = CatalogView(shared)
        assert view.replica_set("d").primary == "s1"
        assert view.epoch("d") == shared.epoch("d")
        assert view.sites_for("d") == ("s1", "s2", "s3")

    def test_apply_primary_newer_wins_stale_ignored(self):
        view = CatalogView(self.shared())
        assert view.apply_primary("d", "s2", epoch=3)
        assert view.replica_set("d").primary == "s2"
        assert view.replica_set("d").secondaries == ("s1", "s3")
        assert view.epoch("d") == 3
        assert not view.apply_primary("d", "s3", epoch=2)  # stale announce
        assert view.replica_set("d").primary == "s2"
        assert view.view_of("d") == (3, "s2")

    def test_views_at_two_sites_can_disagree(self):
        shared = self.shared()
        v1, v2 = CatalogView(shared), CatalogView(shared)
        v1.apply_primary("d", "s2", epoch=5)
        assert v1.replica_set("d").primary == "s2"
        assert v2.replica_set("d").primary == "s1"  # never heard the announce

    def test_epoch_keyed_lsn_allocation_is_independent(self):
        shared = self.shared()
        stale, fresh = CatalogView(shared), CatalogView(shared)
        fresh.apply_primary("d", "s2", epoch=1)
        fresh.reset_lsn("d", 4)  # the new primary's log tip
        assert stale.allocate_lsn("d") == 1  # old epoch: own counter
        assert fresh.allocate_lsn("d") == 5  # new epoch: continues above tip
        assert stale.allocate_lsn("d") == 2  # unperturbed by the new regime

    def test_claimed_epochs_are_unique_across_concurrent_electors(self):
        """Two electors that both reach a majority (asymmetric loss,
        degree >= 5) must never be handed the same epoch — the lower
        claim stays fenceable by the higher one."""
        shared = self.shared()
        a, b = CatalogView(shared), CatalogView(shared)
        ea = a.claim_epoch("d")
        eb = b.claim_epoch("d")
        assert ea != eb
        assert max(ea, eb) > min(ea, eb)
        # A later claim from a view that already adopted the winner keeps
        # strictly increasing.
        a.apply_primary("d", "s2", epoch=max(ea, eb))
        assert a.claim_epoch("d") > max(ea, eb)

    def test_announced_primary_must_hold_a_replica(self):
        from repro.errors import DistributionError

        view = CatalogView(self.shared())
        with pytest.raises(DistributionError):
            view.apply_primary("d", "s9", epoch=9)

    def test_replica_set_under_override_stale_and_newer(self):
        shared = self.shared()
        view = CatalogView(shared)
        assert view.replica_set("d") is shared.replica_set("d")  # no override
        assert view.apply_primary("d", "s2", epoch=2)
        assert view.replica_set("d") == ReplicaSet("d", "s2", ("s1", "s3"))
        # stale: the shared catalog's own elections caught up with epoch 2
        shared.set_primary("d", "s3")
        shared.set_primary("d", "s3")
        assert view.replica_set("d") is shared.replica_set("d")
        assert view.replica_set("d") == ReplicaSet("d", "s3", ("s1", "s2"))
        # a newer override, then a new placement beneath it
        assert view.apply_primary("d", "s1", epoch=5)
        assert view.replica_set("d") == ReplicaSet("d", "s1", ("s3", "s2"))
        shared.add("d", ("s2", "s1"))
        assert view.replica_set("d") == ReplicaSet("d", "s1", ("s2",))

    @settings(max_examples=example_budget(100), deadline=None)
    @given(st.lists(placement_actions, max_size=25))
    def test_cached_sets_equal_fresh_constructions(self, steps):
        from repro.errors import DistributionError

        shared = Catalog()
        for doc_name in PLACED:
            shared.add(doc_name, PLACEMENT_SITES)
        views = [CatalogView(shared), CatalogView(shared)]
        for step in steps:
            kind, doc_name = step[0], step[1]
            try:
                if kind == "add":
                    shared.add(doc_name, step[2])
                elif kind == "set_primary":
                    shared.set_primary(doc_name, step[2])
                else:
                    views[step[2]].apply_primary(doc_name, step[3], step[4])
            except DistributionError:
                pass  # a primary the placement no longer holds
            for doc_name in PLACED:
                rset = shared.replica_set(doc_name)
                assert rset == fresh_replica_set(shared, doc_name)
                assert shared.replica_set(doc_name) is rset
                for view in views:
                    assert view.replica_set(doc_name) == fresh_view_replica_set(
                        view, doc_name
                    )
                    if view.epoch(doc_name) == shared.epoch(doc_name):
                        # no newer override: the shared placement's one set
                        assert view.replica_set(doc_name) is rset


class TestSiteMembership:
    def test_heard_from_unsuspects_and_tracks_incarnation(self):
        m = SiteMembership(lease_timeout_ms=4.0)
        m.suspected.add("p")
        assert not m.is_live("p")
        assert m.heard_from("p", now=10.0, incarnation=2)  # came back
        assert m.is_live("p")
        assert m.incarnation_of("p") == 2
        assert not m.heard_from("p", now=11.0, incarnation=1)  # stale incarnation kept
        assert m.incarnation_of("p") == 2

    def test_lease_expiry_and_grace(self):
        m = SiteMembership(lease_timeout_ms=4.0)
        assert not m.lease_expired("p", now=100.0)  # never heard: no lease yet
        m.grace(["p"], now=0.0)
        assert not m.lease_expired("p", now=4.0)
        assert m.lease_expired("p", now=4.1)
        m.grace(["p"], now=50.0)  # grace never shortens an existing lease
        assert m.lease_expired("p", now=50.0)


class TestLogCompaction:
    def entry(self, lsn, epoch=0):
        return UpdateLogEntry(lsn=lsn, epoch=epoch, tid=f"t{lsn}", doc_name="d")

    def test_compact_to_truncates_and_moves_base(self):
        log = UpdateLog("d")
        for lsn in (1, 2, 3, 4):
            log.record(self.entry(lsn, epoch=lsn % 2))
        assert log.compact_to(3) == 3
        assert log.base_lsn == 3 and log.base_epoch == 1
        assert len(log) == 1 and log.has(2) and log.has(4)
        assert log.applied_lsn == 4
        assert not log.can_serve_after(2) and log.can_serve_after(3)

    def test_compact_never_passes_the_watermark(self):
        log = UpdateLog("d")
        log.record(self.entry(1))
        log.record(self.entry(3))  # hole at 2
        assert log.compact_to(3) == 1  # clamped to applied_lsn == 1
        assert log.base_lsn == 1 and log.has(3)

    def test_compact_below_base_is_a_noop(self):
        log = UpdateLog("d")
        log.reset_to_snapshot(5, epoch=2)
        assert log.compact_to(4) == 0
        assert log.base_lsn == 5


# ---------------------------------------------------------------------------
# heartbeats and suspicion
# ---------------------------------------------------------------------------


class TestHeartbeats:
    def test_quiet_cluster_suspects_nobody(self):
        cluster = lease_cluster()
        cluster.start()
        cluster.env.run(until=30.0)
        for sid, site in cluster.sites.items():
            assert site.stats.heartbeats_sent > 0
            assert site.stats.suspicions == 0
            assert site.membership.suspected == set()

    def test_perfect_mode_runs_no_membership_machinery(self):
        from repro.core.messages import HeartbeatMessage

        cfg = LEASE.with_(failure_detector="perfect")
        cluster = lease_cluster(config=cfg)
        cluster.start()
        cluster.env.run(until=30.0)
        for site in cluster.sites.values():
            assert site.membership is None
            assert site.stats.heartbeats_sent == 0
        assert cluster.network.stats.by_kind.get(HeartbeatMessage.__name__, 0) == 0

    def test_crashed_site_gets_suspected_after_lease_timeout(self):
        cluster = lease_cluster()
        cluster.start()
        cluster.env.run(until=10.0)
        cluster.crash_site("s4")  # leads nothing: no election needed
        crash_time = cluster.env.now
        cluster.env.run(until=crash_time + LEASE.lease_timeout_ms - 1.0)
        assert all(
            cluster.sites[s].membership.is_live("s4") for s in ("s1", "s2", "s3")
        )
        cluster.env.run(until=crash_time + LEASE.lease_timeout_ms + 3.0)
        for s in ("s1", "s2", "s3"):
            assert not cluster.sites[s].membership.is_live("s4")
            assert cluster.sites[s].stats.suspicions >= 1
            assert cluster.sites[s].stats.false_suspicions == 0

    def test_recovered_site_is_unsuspected_by_resumed_heartbeats(self):
        cluster = lease_cluster()
        cluster.start()
        cluster.env.run(until=10.0)
        cluster.crash_site("s4")
        cluster.env.run(until=cluster.env.now + 10.0)
        cluster.recover_site("s4")
        cluster.env.run(until=cluster.env.now + 5.0)
        for s in ("s1", "s2", "s3"):
            assert cluster.sites[s].membership.is_live("s4")
            assert cluster.sites[s].membership.incarnation_of("s4") == 1


# ---------------------------------------------------------------------------
# election over the wire
# ---------------------------------------------------------------------------


class TestElection:
    def test_primary_crash_elects_most_caught_up_over_the_wire(self):
        cluster = lease_cluster()
        cluster.start()
        env = cluster.env
        # s3's log is ahead of s2's: it must win the log-tip vote.
        cluster.sites["s2"].log_for("d1").record(
            UpdateLogEntry(lsn=1, epoch=0, tid="t1", doc_name="d1")
        )
        for lsn in (1, 2):
            cluster.sites["s3"].log_for("d1").record(
                UpdateLogEntry(lsn=lsn, epoch=0, tid=f"t{lsn}", doc_name="d1")
            )
        env.run(until=5.0)
        cluster.crash_site("s1")
        env.run(until=env.now + 30.0)
        assert cluster.sites["s3"].stats.elections_won == 1
        assert cluster.sites["s3"].catalog.replica_set("d1").primary == "s3"
        # The announce reached the other survivors' views.
        assert cluster.sites["s2"].catalog.replica_set("d1").primary == "s3"
        assert cluster.sites["s4"].catalog.replica_set("d1").primary == "s3"
        # The shared catalog never moved: membership travelled as messages.
        assert cluster.catalog.replica_set("d1").primary == "s1"
        assert cluster.faults.stats.promotions == 1

    def test_sweeps_count_divergence_against_the_elected_primary(self):
        """The shared catalog still names s1 after the election, so the
        elected primary is altered by hand: both other replicas differ
        from it, which is two divergent replicas, not one."""
        cluster = lease_cluster()
        cluster.start()
        cluster.env.run(until=5.0)
        cluster.crash_site("s1")
        cluster.env.run(until=cluster.env.now + 30.0)
        cluster.recover_site("s1")
        cluster.env.run(until=cluster.env.now + 30.0)
        elected = cluster.sites["s2"].catalog.replica_set("d1").primary
        assert elected != "s1" == cluster.catalog.replica_set("d1").primary
        assert _divergent_pairs(cluster) == 0
        cluster.document_at(elected, "d1").root.attrib["altered"] = "by hand"
        assert _divergent_pairs(cluster) == 2

    def test_writes_reroute_to_elected_primary(self):
        cluster = lease_cluster()
        cluster.start()
        cluster.env.run(until=5.0)
        cluster.crash_site("s1")
        cluster.env.run(until=cluster.env.now + 20.0)  # detect + elect
        tx = insert_tx(9)
        cluster.add_client("c1", "s4", [tx])
        res = cluster.run(drain_ms=60.0)
        assert len(res.committed) == 1
        assert tx.sites_involved == {"s2"}  # the elected primary
        assert "<id>9</id>" in doc_at(cluster, "s2")
        assert "<id>9</id>" in doc_at(cluster, "s3")

    def test_minority_side_cannot_elect(self):
        """Replicas s1(primary), s2, s3: isolating {s1, s4} leaves s1 alone
        among the replica holders — its election can never reach a
        majority, while the {s2, s3} side elects immediately."""
        cluster = lease_cluster()
        cluster.start()
        env = cluster.env
        env.run(until=5.0)
        cluster.partition_network(["s1", "s4"], ["s2", "s3"])
        env.run(until=env.now + 40.0)
        s1 = cluster.sites["s1"]
        assert s1.stats.elections_won == 0
        assert s1.catalog.replica_set("d1").primary == "s1"  # still believes
        winner = cluster.sites["s2"]
        assert winner.stats.elections_won == 1
        assert winner.catalog.replica_set("d1").primary == "s2"
        assert cluster.sites["s3"].catalog.replica_set("d1").primary == "s2"

    def test_false_suspicion_cancelled_by_primary_log_tip_report(self):
        """A partition too short to finish an election: the primary's own
        report (or resumed heartbeats) proves it alive and no election
        deposes it."""
        cluster = lease_cluster()
        cluster.start()
        env = cluster.env
        env.run(until=5.0)
        # Cut just longer than the lease, much shorter than suspicion +
        # election round trip needs to complete a deposition.
        cluster.schedule_partition(
            [["s1"], ["s2", "s3", "s4"]], at_ms=env.now, heal_at_ms=env.now + 5.0
        )
        env.run(until=env.now + 40.0)
        for s in ("s1", "s2", "s3", "s4"):
            assert cluster.sites[s].catalog.replica_set("d1").primary == "s1"
        assert sum(cluster.sites[s].stats.elections_won for s in cluster.sites) == 0
        assert sum(cluster.sites[s].stats.false_suspicions for s in cluster.sites) >= 1


# ---------------------------------------------------------------------------
# partitions: no split-brain, false-suspicion recovery
# ---------------------------------------------------------------------------


class TestNoSplitBrain:
    def test_two_sides_at_most_one_epochs_writes_commit(self):
        """Clients write on both sides of a cut that isolates the primary.
        The majority side elects and commits under the new epoch; the
        minority primary loses its lease and refuses — after the heal all
        replicas converge byte-identically with every committed marker
        exactly once."""
        cluster = lease_cluster()
        txs = []
        for i, site in enumerate(("s1", "s2", "s3")):
            mine = [insert_tx(100 + 10 * i + k) for k in range(4)]
            txs.extend(mine)
            cluster.add_client(f"c{i}", site, mine)
        cluster.schedule_partition(
            [["s1"], ["s2", "s3", "s4"]], at_ms=2.0, heal_at_ms=60.0
        )
        res = cluster.run(drain_ms=300.0)
        committed = assert_committed_exactly_once(cluster, txs, res)
        assert committed, "the majority side should have made progress"
        # The minority primary refused writes rather than splitting the brain.
        s1 = cluster.sites["s1"]
        assert s1.stats.lease_refusals >= 1
        assert s1.stats.elections_won == 0
        # One election epoch won on the majority side.
        assert sum(cluster.sites[s].stats.elections_won for s in cluster.sites) == 1
        # Commits happened under at most the initial + elected epochs; all
        # post-partition commits carry the new primary's timeline.
        assert any(r.reason == "no-primary-lease" for r in res.aborted) or (
            s1.stats.lease_refusals > 0
        )

    def test_deposed_primary_discards_fenced_tail_after_heal(self):
        """Effects the minority primary kept (fail-with-state-kept inside
        the lease window) are fenced out of the new timeline and discarded
        when it reconciles — committed state never diverges."""
        cluster = lease_cluster()
        txs = [insert_tx(500 + k) for k in range(3)]
        cluster.add_client("c-minority", "s1", txs)
        majority = [insert_tx(600 + k) for k in range(3)]
        cluster.add_client("c-majority", "s2", majority)
        cluster.schedule_partition(
            [["s1"], ["s2", "s3", "s4"]], at_ms=1.0, heal_at_ms=60.0
        )
        res = cluster.run(drain_ms=300.0)
        assert_committed_exactly_once(cluster, txs + majority, res)
        # Nothing the minority side reported *committed* was lost, and
        # nothing it merely kept leaked into the converged state without
        # being counted committed everywhere.
        final = doc_at(cluster, "s2")
        for tx in txs:
            marker = f"<id>{tx.label[1:]}</id>"
            if tx.state.value == "committed":
                assert final.count(marker) == 1


class TestFalseSuspicionRecovery:
    def test_suspected_but_alive_secondary_rejoins_via_catchup(self):
        cluster = lease_cluster()
        txs = [insert_tx(700 + k) for k in range(4)]
        cluster.add_client("c1", "s1", txs)
        # Isolate the *secondary* s3: it gets suspected (falsely), misses
        # syncs — the primary side keeps committing (s1 + s2 are a
        # majority of 3) — then heals and catches up.
        cluster.schedule_partition(
            [["s3"], ["s1", "s2", "s4"]], at_ms=2.0, heal_at_ms=40.0
        )
        res = cluster.run(drain_ms=300.0)
        committed = assert_committed_exactly_once(cluster, txs, res)
        assert committed
        suspectors = [
            s for s in ("s1", "s2") if cluster.sites[s].stats.false_suspicions
        ]
        assert suspectors, "nobody falsely suspected the cut-off secondary"
        s3 = cluster.sites["s3"]
        assert s3.alive  # never crashed — only suspected
        assert s3.stats.catchups >= 1 or s3.stats.replica_syncs_served >= 1


class TestCommitSyncConsultsNoOracle:
    def test_crashed_but_unsuspected_primary_reads_as_a_lost_message(self):
        """The primary dies after executing the update and before the
        coordinator ships the sync, well inside its lease. Without the
        oracle the coordinator cannot know: the record request goes out
        and is lost, and the round ends ambiguous — the transaction fails
        with state kept (``sync-quorum-lost``), never a clean abort
        decided by a peek at the network's physical truth."""
        cluster = lease_cluster(
            config=LEASE.with_(group_commit_window_ms=0.5, max_restarts=0)
        )
        coordinator = cluster.site("s2")
        enqueue = coordinator._enqueue_group_sync

        def crash_primary_then_enqueue(rec, doc_name, ops):
            cluster.crash_site("s1")
            return enqueue(rec, doc_name, ops)

        coordinator._enqueue_group_sync = crash_primary_then_enqueue
        cluster.add_client("c1", "s2", [insert_tx(9)])
        res = cluster.run(drain_ms=100.0)
        assert coordinator.stats.group_batches_sent == 1  # sent — and lost
        (record,) = res.records
        assert (record.status, record.reason) == ("failed", "sync-quorum-lost")
        for s in ("s2", "s3", "s4"):
            assert cluster.site(s).lock_manager.table.is_empty()
        assert doc_at(cluster, "s2") == doc_at(cluster, "s3")


# ---------------------------------------------------------------------------
# lease-mode equivalence under crash-only schedules
# ---------------------------------------------------------------------------


class TestDetectorEquivalence:
    def run_mode(self, detector):
        config = LEASE.with_(failure_detector=detector)
        cluster = lease_cluster(config=config)
        txs = []
        for i, site in enumerate(("s2", "s3", "s4")):
            mine = [insert_tx(800 + 10 * i + k) for k in range(3)]
            txs.extend(mine)
            cluster.add_client(f"c{i}", site, mine)
        cluster.schedule_crash("s1", at_ms=1.5, recover_at_ms=40.0)
        res = cluster.run(drain_ms=300.0)
        committed = assert_committed_exactly_once(cluster, txs, res)
        return cluster, committed

    def test_both_detectors_converge_under_crash_only_faults(self):
        """Same workload, same crash schedule, both detector modes: each
        must elect away from the dead primary, finish the workload, and
        converge replicas byte-identically (timings differ — the lease
        detector pays a detection latency the oracle does not)."""
        for detector in ("perfect", "lease"):
            cluster, committed = self.run_mode(detector)
            assert committed, f"{detector}: no transaction survived the crash"
            assert cluster.faults.stats.promotions >= 1
            new_primary = (
                cluster.sites["s2"].catalog.replica_set("d1").primary
                if detector == "lease"
                else cluster.catalog.replica_set("d1").primary
            )
            assert new_primary != "s1"


# ---------------------------------------------------------------------------
# log compaction through heartbeat watermarks
# ---------------------------------------------------------------------------


class TestHeartbeatCompaction:
    def test_primary_log_compacts_once_watermarks_pass(self):
        cluster = lease_cluster()
        txs = [insert_tx(900 + k) for k in range(5)]
        cluster.add_client("c1", "s1", txs)
        cluster.run(drain_ms=60.0)  # heartbeats carry the watermarks
        s1_log = cluster.sites["s1"].log_for("d1")
        assert s1_log.base_lsn >= 1, "no entry was ever checkpointed"
        assert cluster.sites["s1"].stats.log_entries_compacted >= 1
        # Compaction reflects only what every replica reported applied.
        for s in ("s2", "s3"):
            assert cluster.sites[s].log_for("d1").applied_lsn >= s1_log.base_lsn

    def test_silent_replica_freezes_the_compaction_floor(self):
        cluster = lease_cluster()
        cluster.start()
        cluster.env.run(until=5.0)
        cluster.crash_site("s3")  # stops reporting; floor freezes at its tip
        txs = [insert_tx(950 + k) for k in range(4)]
        cluster.add_client("c1", "s1", txs)
        cluster.run(drain_ms=80.0)
        s1_log = cluster.sites["s1"].log_for("d1")
        s3_watermark = cluster.sites["s1"].membership.watermark_of("s3", "d1")
        assert s1_log.base_lsn <= s3_watermark  # never compacted past it
        # The frozen floor is what lets the dead replica catch up by replay.
        cluster.recover_site("s3")
        cluster.env.run(until=cluster.env.now + 150.0)
        assert doc_at(cluster, "s3") == doc_at(cluster, "s1")

    def test_compaction_off_in_perfect_mode(self):
        cfg = LEASE.with_(failure_detector="perfect")
        cluster = lease_cluster(config=cfg)
        txs = [insert_tx(970 + k) for k in range(3)]
        cluster.add_client("c1", "s1", txs)
        cluster.run(drain_ms=60.0)
        assert cluster.sites["s1"].log_for("d1").base_lsn == 0
        assert cluster.sites["s1"].stats.log_entries_compacted == 0


# ---------------------------------------------------------------------------
# lazy propagation batching
# ---------------------------------------------------------------------------


class TestLazyBatching:
    LAZY = SystemConfig().with_(
        client_think_ms=0.0,
        replication_factor=3,
        replica_read_policy="nearest",
        replica_write_policy="lazy",
    )

    def test_burst_coalesces_into_one_batch_per_target(self):
        cluster = lease_cluster(config=self.LAZY)
        # Two writers at the primary commit well inside one staleness
        # window: their two log entries must ride one ReplicaSyncBatch per
        # secondary instead of two messages each.
        cluster.add_client("c1", "s1", [insert_tx(21)])
        cluster.add_client("c2", "s1", [insert_tx(22)])
        cluster.run(drain_ms=40.0)
        s1 = cluster.sites["s1"]
        assert s1.stats.lazy_batches_propagated == 2  # one per secondary
        assert s1.stats.lazy_entries_coalesced == 4  # both entries, in each
        for s in ("s2", "s3"):
            text = doc_at(cluster, s)
            assert "<id>21</id>" in text and "<id>22</id>" in text
            assert cluster.sites[s].log_for("d1").applied_lsn == 2

    def test_no_live_secondary_coalesces_nothing(self):
        """Entries count once per batch that carried them (as view deltas
        do): with every secondary down no batch leaves, so none counts."""
        cluster = lease_cluster(config=self.LAZY)
        cluster.crash_site("s2")
        cluster.crash_site("s3")
        cluster.add_client("c1", "s1", [insert_tx(21)])
        cluster.add_client("c2", "s1", [insert_tx(22)])
        cluster.run(drain_ms=40.0)
        s1 = cluster.sites["s1"]
        assert s1.log_for("d1").applied_lsn == 2
        assert s1.stats.lazy_batches_propagated == 0
        assert s1.stats.lazy_entries_coalesced == 0

    def test_windows_apart_ship_separately(self):
        cluster = lease_cluster(config=self.LAZY)
        cluster.add_client("c1", "s1", [insert_tx(31)])
        cluster.run(drain_ms=40.0)  # first window flushed
        cluster.add_client("c2", "s1", [insert_tx(32)])
        cluster.env.run(until=cluster.env.now + 60.0)
        s1 = cluster.sites["s1"]
        assert s1.stats.lazy_batches_propagated == 4  # 2 windows x 2 targets
        assert doc_at(cluster, "s2") == doc_at(cluster, "s1")


# ---------------------------------------------------------------------------
# partition sweep smoke
# ---------------------------------------------------------------------------


class TestPartitionSweep:
    def test_tiny_sweep_runs_and_checks(self):
        from repro.experiments import run_sweep

        result = run_sweep(
            "partitions",
            lease_timeout_ms=(3.0, 12.0),
            sites=3,
            replication_factor=3,
            clients=4,
            tx_per_client=2,
            ops_per_tx=2,
            db_bytes=8_000,
            partition_ms=25.0,
            drain_ms=120.0,
        )
        assert len(result.cells) == 2
        notes = result.sweep.check(result)
        assert any("no split-brain" in n for n in notes)
        table = result.render("committed", "{:9.0f}")
        assert "lease_timeout_ms" in table
