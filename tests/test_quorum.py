"""Quorum replication (R+W > N): spec laws, versioned quorum reads, write
quorums, read repair, and the intersection property under random crash +
partition schedules."""

from functools import partial
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.distribution import (
    QuorumSpec,
    ReplicationPolicy,
    VersionVector,
    choose_read_replica,
    majority,
)
from repro.errors import ConfigError
from repro.update import InsertOp
from repro.verify import quiescent
from repro.xml import serialize_document
from repro.xml.builder import E, doc

from .conftest import doc_at, example_budget, insert_tx, read_tx, replicated_cluster

QUORUM = SystemConfig().with_(
    client_think_ms=1.0,
    detector_interval_ms=50.0,
    detector_initial_delay_ms=10.0,
    replication_factor=3,
    replica_read_policy="quorum",
    replica_write_policy="quorum",
)

LEASE_QUORUM = QUORUM.with_(
    failure_detector="lease",
    lease_timeout_ms=4.0,
    lock_wait_timeout_ms=100.0,
    max_restarts=2,
)


quorum_cluster = partial(replicated_cluster, config=QUORUM)


def stat_sum(cluster, name):
    return sum(getattr(site.stats, name) for site in cluster.sites.values())


# ---------------------------------------------------------------------------
# units: quorum laws, read-replica choice, policy and config validation
# ---------------------------------------------------------------------------


class TestQuorumSpec:
    def test_majority(self):
        assert [majority(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 2, 3, 3]

    def test_intersection_laws_enforced(self):
        QuorumSpec(n=3, read_quorum=2, write_quorum=2).validate()
        with pytest.raises(ConfigError):
            QuorumSpec(n=1, read_quorum=1, write_quorum=1).validate()
        with pytest.raises(ConfigError):  # R + W <= N
            QuorumSpec(n=3, read_quorum=1, write_quorum=2).validate()
        with pytest.raises(ConfigError):  # W <= N/2
            QuorumSpec(n=4, read_quorum=3, write_quorum=2).validate()
        with pytest.raises(ConfigError):  # out of range
            QuorumSpec(n=3, read_quorum=4, write_quorum=3).validate()
        with pytest.raises(ConfigError):
            QuorumSpec(n=3, read_quorum=0, write_quorum=3).validate()

    def test_resolve_defaults_to_majorities(self):
        spec = QuorumSpec.resolve(3)
        assert (spec.read_quorum, spec.write_quorum) == (2, 2)
        spec = QuorumSpec.resolve(5)
        assert (spec.read_quorum, spec.write_quorum) == (3, 3)

    def test_resolve_honours_lawful_explicit_values(self):
        spec = QuorumSpec.resolve(3, r=1, w=3)
        assert (spec.read_quorum, spec.write_quorum) == (1, 3)
        spec = QuorumSpec.resolve(3, r=3, w=2)
        assert (spec.read_quorum, spec.write_quorum) == (3, 2)

    def test_resolve_falls_back_when_degree_shrank(self):
        # Configured for factor 5, but this document only has 2 copies:
        # the explicit values are unlawful for N=2 and majority wins.
        spec = QuorumSpec.resolve(2, r=3, w=4)
        spec.validate()
        assert spec.n == 2
        assert spec.read_quorum + spec.write_quorum > 2
        assert 2 * spec.write_quorum > 2

    def test_resolve_repairs_read_quorum_for_intersection(self):
        # r=1 is in range but intersects nothing once W fell back to the
        # majority: R is lifted to N - W + 1.
        spec = QuorumSpec.resolve(4, r=1, w=2)  # w=2 unlawful for N=4
        spec.validate()
        assert spec.read_quorum + spec.write_quorum > 4


class TestChooseReadReplica:
    def vector(self, site, epoch=0, applied=5, recorded=None):
        return VersionVector(
            site=site, epoch=epoch, applied_lsn=applied,
            max_recorded_lsn=recorded if recorded is not None else applied,
        )

    def test_freshest_complete_responder_wins(self):
        reports = {
            "a": self.vector("a", applied=5),
            "b": self.vector("b", applied=3),
        }
        winner, laggards = choose_read_replica(reports, primary="a")
        assert winner == "a"
        assert laggards == ["b"]

    def test_recorded_but_unapplied_frontier_disqualifies(self):
        # "b" recorded LSN 7 but its gapless watermark is 4: nobody has
        # provably applied everything up to the frontier (7), so no
        # responder qualifies — the caller falls back to the primary.
        reports = {
            "a": self.vector("a", applied=5, recorded=5),
            "b": self.vector("b", applied=4, recorded=7),
        }
        winner, laggards = choose_read_replica(reports, primary="c")
        assert winner is None
        assert set(laggards) == {"a", "b"}

    def test_primary_is_complete_regardless_of_watermark(self):
        # The primary executes every primary-copy write before it commits
        # anywhere: eligible even with holes in its log.
        reports = {
            "p": self.vector("p", applied=4, recorded=7),
            "b": self.vector("b", applied=4, recorded=4),
        }
        winner, _ = choose_read_replica(reports, primary="p")
        assert winner == "p"

    def test_newer_epoch_outranks_higher_lsn(self):
        reports = {
            "old": self.vector("old", epoch=1, applied=90, recorded=90),
            "new": self.vector("new", epoch=2, applied=3, recorded=3),
        }
        winner, laggards = choose_read_replica(reports, primary="new")
        assert winner == "new"
        assert laggards == ["old"]

    def test_preferred_breaks_ties(self):
        reports = {s: self.vector(s) for s in ("a", "b", "c")}
        winner, laggards = choose_read_replica(
            reports, primary="a", preferred="c", placement=("a", "b", "c")
        )
        assert winner == "c"
        assert laggards == []

    def test_empty_reports(self):
        assert choose_read_replica({}, primary="a") == (None, [])


class TestConfigValidation:
    def test_policies_registered(self):
        QUORUM.validate()
        SystemConfig().with_(
            replication_factor=3, replica_read_policy="quorum",
            replica_write_policy="primary",
        ).validate()

    def test_single_copy_quorum_is_nonsense(self):
        with pytest.raises(ConfigError, match="replication_factor"):
            SystemConfig().with_(
                replication_factor=1, replica_write_policy="quorum"
            )
        with pytest.raises(ConfigError, match="replication_factor"):
            SystemConfig().with_(
                replication_factor=1, replica_read_policy="quorum"
            )

    def test_quorums_cannot_exceed_replica_count(self):
        with pytest.raises(ConfigError, match="exceeds"):
            QUORUM.with_(read_quorum_r=4)
        with pytest.raises(ConfigError, match="exceeds"):
            QUORUM.with_(write_quorum_w=4)

    def test_intersection_validated_at_construction(self):
        with pytest.raises(ConfigError, match="R \\+ W > N"):
            QUORUM.with_(read_quorum_r=1, write_quorum_w=2)
        with pytest.raises(ConfigError, match="W > N/2"):
            SystemConfig().with_(
                replication_factor=4,
                replica_read_policy="quorum",
                replica_write_policy="quorum",
                read_quorum_r=3,
                write_quorum_w=2,
            )

    def test_quorum_knobs_without_quorum_policies_rejected(self):
        with pytest.raises(ConfigError, match="neither"):
            SystemConfig().with_(replication_factor=3, read_quorum_r=2)

    def test_quorum_reads_over_lazy_writes_rejected(self):
        with pytest.raises(ConfigError, match="lazy"):
            SystemConfig().with_(
                replication_factor=3,
                replica_read_policy="quorum",
                replica_write_policy="lazy",
            )

    def test_policy_predicates_and_describe(self):
        policy = ReplicationPolicy.from_config(QUORUM)
        assert policy.is_quorum_write and policy.is_quorum_read
        assert policy.is_primary_copy and policy.syncs_at_commit
        assert not policy.is_eager and not policy.is_lazy
        assert "R=2 W=2" in policy.describe()
        eager = ReplicationPolicy(factor=3, read_policy="nearest", write_policy="primary")
        assert eager.syncs_at_commit and not eager.is_quorum_write

    def test_route_read_quorum_degenerates_to_primary(self):
        policy = ReplicationPolicy.from_config(QUORUM)
        cluster = quorum_cluster()
        placement = cluster.catalog.replica_set("d1")
        assert policy.route_read(placement, origin="s4") == [placement.primary]


# ---------------------------------------------------------------------------
# integration: quorum writes and versioned quorum reads on a live cluster
# ---------------------------------------------------------------------------


class TestQuorumWrites:
    def test_commit_settles_at_w_and_replicas_converge(self):
        cluster = quorum_cluster()
        cluster.add_client("c", "s4", [insert_tx(42), read_tx()])
        result = cluster.run(drain_ms=60.0)
        assert len(result.committed) == 2
        assert quiescent(cluster) == []
        assert doc_at(cluster, "s1").count("<id>42</id>") == 1
        assert stat_sum(cluster, "sync_acks_awaited") >= 1

    def test_commit_survives_one_dead_secondary(self):
        # N=3, W=2: the primary plus one live secondary carry the write;
        # the crashed copy catches up after recovery.
        cluster = quorum_cluster()
        cluster.crash_site("s3")
        cluster.add_client("c", "s1", [insert_tx(55)])
        cluster.start()
        cluster.env.run(until=30.0)
        assert "<id>55</id>" in doc_at(cluster, "s1")
        assert "<id>55</id>" in doc_at(cluster, "s2")
        cluster.recover_site("s3")
        cluster.env.run(until=90.0)
        assert quiescent(cluster) == []

    def test_no_write_quorum_without_w_copies(self):
        # Both secondaries dead: W=2 is unreachable and the write must
        # not report success (it fails with its batch kept in the
        # primary's log, or aborts — never 'committed').
        cluster = quorum_cluster(config=QUORUM.with_(max_restarts=0))
        cluster.crash_site("s2")
        cluster.crash_site("s3")
        outcomes = []
        cluster.start()
        cluster.sites["s1"].submit(insert_tx(66), outcomes.append)
        cluster.env.run(until=60.0)
        assert len(outcomes) == 1
        assert outcomes[0].status != "committed"

    def test_group_commit_window_batches_quorum_syncs(self):
        cfg = QUORUM.with_(client_think_ms=0.0, group_commit_window_ms=0.5)
        cluster = quorum_cluster(config=cfg)
        for i in range(4):
            cluster.add_client(f"c{i}", "s1", [insert_tx(70 + i)])
        result = cluster.run(drain_ms=60.0)
        assert len(result.committed) == 4
        assert quiescent(cluster) == []
        for i in range(4):
            assert doc_at(cluster, "s1").count(f"<id>{70 + i}</id>") == 1
        assert stat_sum(cluster, "group_batches_sent") >= 1

    def test_a_shared_batch_settles_each_entry_on_its_own(self):
        """Two transactions share the outbox — and the batch messages — and
        each entry settles on its own acks: s3 refuses both entries and s2
        refuses only ``short``'s, so W=2 is met for ``plain`` (primary + s2)
        and not for ``short``, which fails with state kept."""
        cfg = QUORUM.with_(client_think_ms=0.0, group_commit_window_ms=0.5, max_restarts=0)
        cluster = DTXCluster(protocol="xdgl", config=cfg)
        for s in ("s1", "s2", "s3"):
            cluster.add_site(s)
        # Disjoint label paths: the two writers hold no conflicting lock,
        # so both reach commit inside one window.
        cluster.replicate_document(doc("d1", E("slots", E("a"), E("b"))), ["s1", "s2", "s3"])
        cluster.site("s3").refuse_sync.add("*")

        def fill(slot, label):
            return Transaction(
                [Operation.update("d1", InsertOp(f"<v>{label}</v>", f"/slots/{slot}"))],
                label=label,
            )

        short = fill("b", "short")
        cluster.add_client("c0", "s1", [fill("a", "plain")])
        cluster.add_client("c1", "s1", [short])
        batches = []
        send = cluster.network.send

        def spy(src, dst, msg):
            if type(msg).__name__ == "ReplicaSyncBatch":
                cluster.site("s2").refuse_sync.add(short.tid)
                batches.append((dst, sorted(e.tid.seq for e in msg.entries)))
            return send(src, dst, msg)

        cluster.network.send = spy
        result = cluster.run(drain_ms=60.0)
        assert batches == [("s2", [1, 2]), ("s3", [1, 2])]  # one shared round
        assert [cluster.site(s).stats.syncs_refused for s in ("s2", "s3")] == [1, 2]
        assert {r.label: (r.status, r.reason) for r in result.records} == {
            "plain": ("committed", ""),
            "short": ("failed", "sync-quorum-lost"),
        }
        # State kept: the failed entry is in the primary's log; the
        # refusers are merely behind.
        assert "plain" in doc_at(cluster, "s2") and "short" not in doc_at(cluster, "s2")
        assert "short" in doc_at(cluster, "s1") and "plain" not in doc_at(cluster, "s3")
        assert cluster.site("s1").log_for("d1").applied_lsn == 2

    def test_remote_coordinator_records_at_primary_first(self):
        # Coordinator s4 holds no replica: the batch is recorded at the
        # primary (primary-assigned LSN) before any secondary applies it.
        cluster = quorum_cluster()
        cluster.add_client("c", "s4", [insert_tx(81)])
        result = cluster.run(drain_ms=60.0)
        assert len(result.committed) == 1
        log = cluster.sites["s1"].log_for("d1")
        assert log.applied_lsn == 1 and log.max_recorded_lsn == 1
        for s in ("s2", "s3"):
            assert cluster.sites[s].log_for("d1").max_recorded_lsn <= 1


class TestQuorumReads:
    def test_reads_probe_and_execute_once(self):
        cluster = quorum_cluster()
        cluster.add_client("c", "s2", [read_tx("r1"), read_tx("r2")])
        result = cluster.run(drain_ms=30.0)
        assert len(result.committed) == 2
        assert stat_sum(cluster, "quorum_reads") == 2
        # Speculative fan-out: every live replica is probed per read.
        assert stat_sum(cluster, "version_probes_sent") == 6
        assert stat_sum(cluster, "version_reports_served") >= 4

    def test_read_repair_heals_refused_sync_straggler(self):
        # R=3 probes every replica, so the straggler's lag is observed by
        # the first read, which nudges it back into catch-up.
        cfg = QUORUM.with_(client_think_ms=0.5, read_quorum_r=3, write_quorum_w=2)
        cluster = quorum_cluster(config=cfg, n_sites=3)
        cluster.start()
        outcomes = []
        cluster.sites["s3"].refuse_sync.add("*")
        for marker in (90, 91, 92):
            cluster.sites["s1"].submit(insert_tx(marker), outcomes.append)
        cluster.env.run(until=25.0)
        cluster.sites["s3"].refuse_sync.discard("*")
        assert cluster.sites["s3"].log_for("d1").applied_lsn == 0  # behind
        cluster.sites["s2"].submit(read_tx(), outcomes.append)
        cluster.env.run(until=80.0)
        assert all(o.status == "committed" for o in outcomes)
        assert stat_sum(cluster, "read_repairs_sent") >= 1
        assert stat_sum(cluster, "read_repairs_received") >= 1
        assert quiescent(cluster) == []

    def test_read_aborts_without_r_live_replicas(self):
        cfg = QUORUM.with_(read_quorum_r=3, write_quorum_w=2, max_restarts=0)
        cluster = quorum_cluster(config=cfg)
        cluster.crash_site("s3")
        outcomes = []
        cluster.start()
        cluster.sites["s2"].submit(read_tx(), outcomes.append)
        cluster.env.run(until=60.0)
        assert len(outcomes) == 1
        assert outcomes[0].status == "aborted"
        assert outcomes[0].reason == "no-read-quorum"

    def test_read_your_writes_skips_the_probe(self):
        cluster = quorum_cluster()
        tx = Transaction(
            [
                Operation.update("d1", InsertOp("<person><id>77</id></person>", "/people")),
                Operation.query("d1", "/people/person[id=77]"),
            ],
            label="rw",
        )
        cluster.add_client("c", "s2", [tx])
        result = cluster.run(drain_ms=30.0)
        assert len(result.committed) == 1
        # The post-write read is pinned to the primary: no probe round.
        assert stat_sum(cluster, "quorum_reads") == 0

    def test_quorum_commits_through_minority_partition(self):
        # One secondary is cut off mid-run (lease mode): W=2 commits keep
        # flowing from the majority side, and after the heal the isolated
        # replica reconciles through anti-entropy — zero divergence.
        cluster = quorum_cluster(config=LEASE_QUORUM)
        markers = list(range(200, 206))
        cluster.add_client("c", "s1", [insert_tx(m) for m in markers])
        cluster.schedule_partition([["s3"], ["s1", "s2", "s4"]], at_ms=2.0, heal_at_ms=30.0)
        result = cluster.run(drain_ms=300.0)
        committed = {r.label for r in result.committed}
        assert committed  # the cut never starves the write path
        assert quiescent(cluster) == []
        for label in committed:
            assert doc_at(cluster, "s1").count(f"<id>{label[1:]}</id>") == 1

    def test_perfect_detector_quorum_converges_via_read_repair(self):
        # Under the perfect detector there is no heartbeat anti-entropy:
        # read repair is what finds (and heals) the straggler.
        cfg = QUORUM.with_(client_think_ms=0.5, read_quorum_r=3, write_quorum_w=2)
        cluster = quorum_cluster(config=cfg, n_sites=3)
        cluster.start()
        outcomes = []
        cluster.sites["s2"].refuse_sync.add("*")
        cluster.sites["s1"].submit(insert_tx(95), outcomes.append)
        cluster.env.run(until=20.0)
        cluster.sites["s2"].refuse_sync.discard("*")
        cluster.sites["s3"].submit(read_tx(), outcomes.append)
        cluster.env.run(until=80.0)
        assert all(o.status == "committed" for o in outcomes)
        assert quiescent(cluster) == []


# ---------------------------------------------------------------------------
# sweep plumbing
# ---------------------------------------------------------------------------


class TestQuorumProbe:
    def test_quorum_sweep_smoke(self):
        from repro.experiments import run_sweep

        result = run_sweep(
            "quorum",
            regime=("eager", "quorum-r2w2"),
            fault=("partition",),
            clients=6,
            tx_per_client=3,
        )
        notes = result.sweep.check(result)
        assert any("partition" in note for note in notes)

    def test_r1w3_crash_cell_leaves_no_divergent_replica(self):
        from repro.experiments import run_sweep

        result = run_sweep("quorum", full=True, regime=("quorum-r1w3",), fault=("crash",))
        (cell,) = result.cells.values()
        assert cell["divergent_replicas"] == 0

    def test_r3w2_cell_at_seed_3_leaves_no_divergent_replica(self):
        """An operation matching no guide node left unlocked (Bug A) leaves
        two replicas divergent here. The crash cell above stopped showing
        it once a recovered site no longer suspects its peers."""
        from repro.experiments import run_sweep

        result = run_sweep("quorum", full=True, seed=3, regime=("quorum-r3w2",), fault=("none",))
        (cell,) = result.cells.values()
        assert cell["divergent_replicas"] == 0


# ---------------------------------------------------------------------------
# the intersection property, under random crash + partition schedules
# ---------------------------------------------------------------------------


class TestQuorumIntersectionProperties:
    """R+W > N holds up under faults.

    A 4-site lease-mode cluster replicates one document at three sites
    under quorum reads/writes. A random minority cut and a random
    crash/recovery disturb the run while writers on three sites insert
    markers. Afterwards (before *and* after the anti-entropy drain):

    * for **every** R-sized subset of live replicas, the read path's
      replica choice — computed from the sites' actual durable logs —
      lands on a replica whose document contains every committed marker
      exactly once (quorum intersection: no committed write can hide from
      any quorum read);
    * after the drain all replicas are byte-identical (stragglers
      converged through catch-up, heartbeat watermarks and read repair).
    """

    @given(
        seed=st.integers(0, 2**16),
        isolate=st.sampled_from(["s1", "s3", "s4"]),
        cut_at=st.floats(1.0, 8.0),
        cut_ms=st.sampled_from([6.0, 20.0, 45.0]),
        crash_site=st.sampled_from([None, "s2", "s3"]),
        crash_at=st.floats(2.0, 10.0),
    )
    @settings(
        max_examples=example_budget(10),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_committed_writes_visible_to_every_quorum_read(
        self, seed, isolate, cut_at, cut_ms, crash_site, crash_at
    ):
        config = LEASE_QUORUM.with_(client_think_ms=2.0, seed=seed)
        cluster = replicated_cluster(config)
        txs = []
        for i, site in enumerate(("s1", "s2", "s3")):
            mine = [insert_tx(100 + 10 * i + k) for k in range(3)]
            txs.extend(mine)
            cluster.add_client(f"c{i}", site, mine)
        rest = [s for s in ("s1", "s2", "s3", "s4") if s != isolate]
        cluster.schedule_partition([[isolate], rest], at_ms=cut_at, heal_at_ms=cut_at + cut_ms)
        if crash_site is not None:
            cluster.schedule_crash(crash_site, at_ms=crash_at, recover_at_ms=crash_at + 15.0)
        result = cluster.run(drain_ms=0.0)
        committed = {r.label for r in result.committed}

        self.check_every_quorum_read(cluster, committed, seed, "pre-drain")
        cluster.env.run(until=cluster.env.now + 400.0)
        self.check_every_quorum_read(cluster, committed, seed, "post-drain")

        assert quiescent(cluster) == [], (
            f"unsettled after drain (seed={seed}, isolate={isolate}, "
            f"cut={cut_at}+{cut_ms}, crash={crash_site}@{crash_at})"
        )
        text = doc_at(cluster, "s1")
        for label in sorted(committed):
            marker = f"<id>{label[1:]}</id>"
            assert text.count(marker) == 1, (
                f"committed {label}: {text.count(marker)} copies (seed={seed}, isolate={isolate})"
            )

    def check_every_quorum_read(self, cluster, committed, seed, phase):
        """Every R-subset of live replicas must resolve to a complete doc.

        Mirrors the coordinator's read path on the sites' actual state:
        version vectors from the durable logs, the believed primary from
        the newest view among the probed subset, and the primary fallback
        when no responder is provably complete.
        """
        replicas = ["s1", "s2", "s3"]
        live = [s for s in replicas if cluster.sites[s].alive]
        spec = QuorumSpec.resolve(3)
        reports = {
            s: VersionVector(
                site=s,
                # The log tip's epoch, exactly as _on_version_probe
                # reports it: the timeline the data belongs to, not the
                # site's election view.
                epoch=cluster.sites[s].log_for("d1").last_epoch,
                applied_lsn=cluster.sites[s].log_for("d1").applied_lsn,
                max_recorded_lsn=cluster.sites[s].log_for("d1").max_recorded_lsn,
            )
            for s in live
        }
        for subset in combinations(live, spec.read_quorum):
            sub = {s: reports[s] for s in subset}
            freshest = max(subset, key=lambda s: sub[s].epoch)
            primary = cluster.sites[freshest].catalog.replica_set("d1").primary
            winner, _ = choose_read_replica(sub, primary=primary, placement=tuple(replicas))
            if winner is None:
                winner = primary  # the read path's universal fallback
            if not cluster.sites[winner].alive:
                continue  # a real read would exclude it and re-probe
            text = serialize_document(cluster.document_at(winner, "d1"))
            for label in sorted(committed):
                marker = f"<id>{label[1:]}</id>"
                assert text.count(marker) == 1, (
                    f"{phase}: committed {label} invisible (or duplicated) at "
                    f"quorum-read winner {winner} of subset {subset} "
                    f"({text.count(marker)} copies, seed={seed})"
                )
