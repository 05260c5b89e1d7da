"""Hash-ring laws, config presets, per-transaction
quorums, and online migration — including the property suite: committed
writes survive random crash + partition schedules interleaved with live
migrations, and replicas never diverge after settle."""

from functools import partial

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import DTXCluster, SystemConfig
from repro.distribution import HashRing, ring_rebalance
from repro.errors import ConfigError, DistributionError
from repro.verify import quiescent

from .conftest import (
    doc_at,
    example_budget,
    insert_tx,
    make_people_doc,
    make_unnormalised_people_doc,
    replicated_cluster,
    settle_migrations,
)
from .test_quorum import QUORUM

# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

EAGER = SystemConfig().with_(
    client_think_ms=1.0,
    detector_interval_ms=50.0,
    detector_initial_delay_ms=10.0,
    replication_factor=2,
    replica_read_policy="nearest",
    replica_write_policy="primary",
    lock_wait_timeout_ms=200.0,
    max_restarts=2,
)

LEASE = EAGER.with_(
    failure_detector="lease",
    lease_timeout_ms=4.0,
    lock_wait_timeout_ms=100.0,
)



#: d1 replicated at s1 (primary) and s2; spare sites empty.
migration_cluster = partial(replicated_cluster, config=EAGER, replicate_at=["s1", "s2"])


# ---------------------------------------------------------------------------
# hash ring: determinism, balance, minimal movement
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_deterministic_across_instances(self):
        sites = ["s1", "s2", "s3", "s4"]
        a, b = HashRing(sites), HashRing(list(sites))
        for k in range(50):
            assert a.placement(f"doc-{k}", 2) == b.placement(f"doc-{k}", 2)

    def test_placement_distinct_sites_primary_first(self):
        ring = HashRing(["s1", "s2", "s3"])
        for k in range(30):
            placement = ring.placement(f"doc-{k}", 2)
            assert len(placement) == 2
            assert len(set(placement)) == 2

    def test_factor_clamped_to_site_count(self):
        ring = HashRing(["s1", "s2"])
        assert len(ring.placement("doc", 5)) == 2
        assert len(ring.placement("doc", 0)) == 1

    def test_every_site_owns_keys(self):
        ring = HashRing([f"s{i}" for i in range(1, 5)], vnodes=64)
        primaries = {ring.placement(f"doc-{k}", 1)[0] for k in range(200)}
        assert primaries == {f"s{i}" for i in range(1, 5)}

    def test_rejects_bad_rings(self):
        with pytest.raises(DistributionError):
            HashRing([])
        with pytest.raises(DistributionError):
            HashRing(["s1", "s1"])
        with pytest.raises(DistributionError):
            HashRing(["s1"], vnodes=0)

    @given(
        n_sites=st.integers(2, 6),
        factor=st.integers(1, 3),
        vnodes=st.sampled_from([8, 32, 64]),
        leave=st.booleans(),
    )
    @settings(max_examples=example_budget(25), deadline=None)
    def test_single_site_change_moves_at_most_one_member(
        self, n_sites, factor, vnodes, leave
    ):
        """The minimal-movement law: adding or removing one site changes
        any key's replica set by at most one member, and ``ring_rebalance``
        lists exactly the keys whose placement changed."""
        old = [f"s{i}" for i in range(1, n_sites + 1)]
        new = old[:-1] if leave else [*old, "s-new"]
        docs = [f"doc-{k}" for k in range(30)]
        old_ring, new_ring = HashRing(old, vnodes=vnodes), HashRing(new, vnodes=vnodes)
        moves = ring_rebalance(old_ring, new_ring, docs, factor)
        for name in docs:
            before = old_ring.placement(name, factor)
            after = new_ring.placement(name, factor)
            assert len(set(before) - set(after)) <= 1, (
                f"{name}: {before} -> {after} dropped more than one site"
            )
            assert len(set(after) - set(before)) <= 1, (
                f"{name}: {before} -> {after} gained more than one site"
            )
            assert (name in moves) == (before != after)
            if name in moves:
                assert moves[name] == after


# ---------------------------------------------------------------------------
# config presets and per-transaction quorum overrides
# ---------------------------------------------------------------------------


class TestPresets:
    def test_paper_preset_is_the_default(self):
        assert SystemConfig.preset("paper") == SystemConfig()

    def test_named_presets_select_their_regime(self):
        eager = SystemConfig.preset("eager")
        assert eager.replica_write_policy == "primary"
        assert eager.replication_factor == 3
        quorum = SystemConfig.preset("quorum")
        assert quorum.replica_write_policy == "quorum"
        assert quorum.failure_detector == "lease"
        lazy = SystemConfig.preset("lazy")
        assert lazy.replica_write_policy == "lazy"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            SystemConfig.preset("chaotic")

    def test_overrides_applied_and_revalidated(self):
        assert SystemConfig.preset("quorum", seed=7).seed == 7
        with pytest.raises(ConfigError):
            SystemConfig.preset("quorum", read_quorum_r=9)


# ---------------------------------------------------------------------------
# online migration: basics under both detectors
# ---------------------------------------------------------------------------


class TestMigrationBasics:
    def test_write_all_regime_cannot_migrate(self):
        cluster = DTXCluster(protocol="xdgl", config=SystemConfig())
        cluster.add_site("s1", [make_people_doc()])
        with pytest.raises(ConfigError, match="primary-copy"):
            cluster.migration  # noqa: B018 — the property raises

    def test_bad_migrations_rejected_up_front(self):
        cluster = migration_cluster()
        manager = cluster.migration
        with pytest.raises(DistributionError, match="at least one"):
            manager.migrate("d1", [])
        with pytest.raises(DistributionError, match="duplicate"):
            manager.migrate("d1", ["s3", "s3"])
        with pytest.raises(DistributionError, match="unknown"):
            manager.migrate("d1", ["s9"])
        with pytest.raises(DistributionError, match="not in catalog"):
            manager.migrate("ghost", ["s3"])
        manager.migrate("d1", ["s3", "s4"])
        with pytest.raises(DistributionError, match="in flight"):
            manager.migrate("d1", ["s4", "s3"])

    def test_noop_migration_completes_without_moving(self):
        cluster = migration_cluster()
        mig = cluster.migration.migrate("d1", ("s1", "s2"))
        cluster.env.run(until=1.0)
        assert mig.ok and mig.phase == "done"
        assert cluster.migration.stats.replicas_added == 0
        assert cluster.catalog.sites_for("d1") == ("s1", "s2")

    def test_quiet_migration_moves_placement_and_primary(self):
        cluster = migration_cluster()
        old_epoch = cluster.catalog.epoch("d1")
        mig = cluster.migration.migrate("d1", ("s3", "s4"))
        settle_migrations(cluster, drain_ms=50.0)
        assert mig.ok, f"migration parked in phase {mig.phase}"
        assert cluster.catalog.sites_for("d1") == ("s3", "s4")
        assert cluster.catalog.replica_set("d1").primary == "s3"
        assert mig.cutover_epoch > old_epoch
        assert mig.joined == ("s3", "s4") and set(mig.retired) == {"s1", "s2"}
        # The leavers really dropped their copies; the joiners hold the data.
        assert not cluster.sites["s1"].data_manager.is_loaded("d1")
        assert not cluster.sites["s2"].data_manager.is_loaded("d1")
        assert quiescent(cluster) == []
        assert "Maria" in doc_at(cluster, "s3")  # the payload survived the move

    def test_migrated_replica_is_byte_identical_to_the_primary(self):
        """The joining site installs a clone of the primary's committed tree
        as it is. Rendered and parsed back, Carlos would lose his padding
        and the empty note would come back as ``<note/>``. (Crash recovery
        still reloads through the parser and so still normalises: that is
        the storage format's business, not the handover's.)"""
        cluster = migration_cluster(document=make_unnormalised_people_doc())
        cluster.schedule_migration("d1", ("s1", "s3"), at_ms=3.0)
        cluster.start()
        cluster.env.run(until=5.0)
        settle_migrations(cluster, drain_ms=50.0)
        assert cluster.migration.history[-1].ok
        assert cluster.catalog.sites_for("d1") == ("s1", "s3")
        assert quiescent(cluster) == []  # s3's copy renders the primary's bytes
        primary = doc_at(cluster, "s1")
        assert "<name>  Carlos  </name>" in primary and "<note></note>" in primary

    def test_migration_under_live_writes_keeps_every_commit(self):
        cluster = migration_cluster()
        txs = [insert_tx(100 + k) for k in range(6)]
        cluster.add_client("c1", "s1", txs[:3])
        cluster.add_client("c2", "s2", txs[3:])
        cluster.schedule_migration("d1", ("s3", "s2"), at_ms=3.0)
        result = cluster.run(drain_ms=50.0)
        settle_migrations(cluster, drain_ms=50.0)
        committed = {r.label for r in result.committed}
        assert committed, "nothing committed under the migration"
        assert cluster.catalog.sites_for("d1") == ("s3", "s2")
        assert cluster.catalog.replica_set("d1").primary == "s3"
        assert quiescent(cluster) == []
        for label in committed:
            assert doc_at(cluster, "s3").count(f"<id>{label[1:]}</id>") == 1, label

    def test_shrink_to_one_copy_settles_the_staged_syncs(self):
        """The replica set shrinks to a single copy while transactions sit
        in the sync outbox: nothing is left to sync, and every one of them
        must still be settled (commit handles a single copy alone) — an
        unsettled waiter parks its transaction in ``committing`` forever,
        locks held."""
        cluster = migration_cluster(config=EAGER.with_(group_commit_window_ms=0.5))
        for i in range(4):
            cluster.add_client(
                f"c{i + 1}", f"s{i + 1}", [insert_tx(100 * (i + 1) + k) for k in range(40)]
            )
        cluster.start()
        cluster.env.run(until=6.3)  # a sync outbox is open when the drain shrinks d1
        cluster.migration.migrate("d1", ("s1",))
        cluster.env.run(until=3000.0)
        result = cluster.collect_results()
        assert len(result.committed) == 160
        assert cluster.catalog.sites_for("d1") == ("s1",)
        assert quiescent(cluster) == []

    def test_lease_mode_cutover_announces_new_primary(self):
        cluster = migration_cluster(config=LEASE)
        txs = [insert_tx(200 + k) for k in range(4)]
        cluster.add_client("c1", "s1", txs)
        cluster.schedule_migration("d1", ("s4", "s3"), at_ms=3.0)
        result = cluster.run(drain_ms=80.0)
        settle_migrations(cluster, drain_ms=80.0)
        mig = cluster.migration.history[-1]
        assert mig.ok, f"migration parked in phase {mig.phase}"
        assert mig.cutover_epoch > 0
        assert cluster.catalog.sites_for("d1") == ("s4", "s3")
        # Under the lease detector primacy is the *sites'* belief — the
        # announce must have reached the target and its new secondary.
        assert cluster.sites["s4"].catalog.replica_set("d1").primary == "s4"
        assert cluster.sites["s3"].catalog.replica_set("d1").primary == "s4"
        assert quiescent(cluster) == []
        for label in {r.label for r in result.committed}:
            assert doc_at(cluster, "s4").count(f"<id>{label[1:]}</id>") == 1

    def test_quorum_regime_migration(self):
        cluster = replicated_cluster(QUORUM, 5)
        txs = [insert_tx(300 + k) for k in range(4)]
        cluster.add_client("c1", "s2", txs)
        cluster.schedule_migration("d1", ("s4", "s5", "s2"), at_ms=3.0)
        result = cluster.run(drain_ms=100.0)
        settle_migrations(cluster, drain_ms=100.0)
        assert cluster.migration.history[-1].ok
        assert cluster.catalog.sites_for("d1") == ("s4", "s5", "s2")
        committed = {r.label for r in result.committed}
        assert committed
        assert quiescent(cluster) == []
        for label in committed:
            assert doc_at(cluster, "s4").count(f"<id>{label[1:]}</id>") == 1


# ---------------------------------------------------------------------------
# the property suite: migration under random crash + partition schedules
# ---------------------------------------------------------------------------


class TestMigrationUnderFaults:
    """Committed writes survive live migration under faults.

    A 5-site lease-mode cluster holds d1 at (s1, s2). Writers on three
    sites insert markers while the placement migrates to (s3, s4); a
    random minority cut and a random crash/recovery disturb the window.
    After the workload, migrations settle and anti-entropy drains; then:

    * every committed marker appears **exactly once** at every live
      replica of the final placement (no lost, no doubled commits);
    * all those replicas are byte-identical (zero divergent pairs);
    * the migration machinery reached a terminal state (done or safely
      parked — never wedged, never dropping data while parked).
    """

    @given(
        seed=st.integers(0, 2**16),
        mig_at=st.floats(1.0, 10.0),
        isolate=st.sampled_from([None, "s1", "s4"]),
        cut_at=st.floats(1.0, 8.0),
        cut_ms=st.sampled_from([6.0, 20.0]),
        crash_site=st.sampled_from([None, "s2", "s3"]),
        crash_at=st.floats(2.0, 10.0),
    )
    # s1 is cut off while the majority elects s2 and then moves d1 to s3
    # and s4: after the heal a beat tells s1 of s2's election, a fact about
    # a primary that no longer holds d1 — stale, not an error.
    @example(
        seed=135, mig_at=6.75, isolate="s1", cut_at=1.0, cut_ms=20.0,
        crash_site=None, crash_at=2.0,
    )
    @settings(
        max_examples=example_budget(8),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_committed_writes_survive_migration_under_faults(
        self, seed, mig_at, isolate, cut_at, cut_ms, crash_site, crash_at
    ):
        config = LEASE.with_(client_think_ms=2.0, seed=seed)
        cluster = replicated_cluster(config, 5, ["s1", "s2"])
        for i, site in enumerate(("s1", "s2", "s3")):
            cluster.add_client(
                f"c{i}", site, [insert_tx(100 + 10 * i + k) for k in range(3)]
            )
        cluster.schedule_migration("d1", ("s3", "s4"), at_ms=mig_at)
        if isolate is not None:
            rest = [f"s{i + 1}" for i in range(5) if f"s{i + 1}" != isolate]
            cluster.schedule_partition(
                [[isolate], rest], at_ms=cut_at, heal_at_ms=cut_at + cut_ms
            )
        if crash_site is not None:
            cluster.schedule_crash(
                crash_site, at_ms=crash_at, recover_at_ms=crash_at + 15.0
            )

        result = cluster.run(drain_ms=0.0)
        committed = {r.label for r in result.committed}
        ctx = (
            f"seed={seed}, mig@{mig_at:.1f}, isolate={isolate}@{cut_at:.1f}"
            f"+{cut_ms}, crash={crash_site}@{crash_at:.1f}"
        )

        settle_migrations(cluster, drain_ms=400.0)  # then the anti-entropy drain

        assert quiescent(cluster) == [], f"unsettled after settle ({ctx})"
        copies = [
            site for site in map(cluster.site, cluster.catalog.sites_for("d1"))
            if site.alive and site.data_manager.is_loaded("d1")
            and not site.holds_placeholder("d1")
        ]
        assert copies, f"no live replica left ({ctx})"
        text = doc_at(cluster, copies[0].site_id)
        for label in sorted(committed):
            marker = f"<id>{label[1:]}</id>"
            assert text.count(marker) == 1, (
                f"committed {label}: {text.count(marker)} copies ({ctx})"
            )
