"""Hot-path overhaul tests: targeted wake-ups, group commit, spec caching.

Three families:

* **no-lost-wakeup** — waiters are woken only by a conflicting release,
  yet every blocked transaction still reaches a terminal state, and (for
  a commutative workload, where any serial order yields the same bytes)
  the final committed state matches a one-client serial run;
* **group-commit equivalence** — batched and unbatched propagation yield
  byte-identical replica documents and the same serializability verdict,
  including under an injected primary crash mid-window (where the states
  legitimately differ between modes, but replicas must stay mutually
  identical and serializable in both);
* **retry-time caching** — the parse memo and the DataGuide-versioned
  LockSpec cache are hit on retries and invalidated by structure change,
  and leave simulated runs bit-identical.
"""

from __future__ import annotations

import re

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import DTXCluster, SystemConfig
from repro import protocols as protocol_registry
from repro.config import DEFAULT_CONFIG
from repro.core.messages import WakeNotice
from repro.core.transaction import Operation, Transaction, TxId
from repro.dataguide import DataGuide
from repro.errors import ConfigError
from repro.locking import XDGL_MATRIX, LockMode
from repro.locking.manager import LockManager
from repro.locking.requests import LockSpec
from repro.locking.table import LockTable
from repro.deadlock import WaitForGraph
from repro.update import ChangeOp, InsertOp, RemoveOp
from repro.verify import final_state_serializable
from repro.xml import E, doc, serialize_document
from repro.xpath.parser import clear_parse_cache, parse_cache_stats, parse_xpath

from .conftest import example_budget


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def contended_cluster(seed: int, serial: bool = False, groups: int = 4,
                      clients_per_group: int = 3, tx_per_client: int = 2,
                      ops_per_tx: int = 3) -> DTXCluster:
    """Disjoint writer groups on one single-copy document; coordinators remote.

    Each group hammers exactly one lock target, so waits form chains, never
    cycles: no deadlocks, no timeouts — *every* transaction must commit.
    A lost wake-up therefore cannot hide behind an abort: it starves the
    simulation (clients never finish) and the run fails loudly. The
    ChangeOp payload is a constant, so the final bytes are the same under
    every schedule — including ``serial``, where one client submits the
    same transactions one after the other and nothing ever waits.
    """
    cfg = SystemConfig().with_(client_think_ms=0.0, seed=seed)
    cluster = DTXCluster(protocol="xdgl", config=cfg)
    hot = doc("hot", E("hot", *[E(f"v{i}", text="0") for i in range(groups)]))
    cluster.add_site("s1", [hot])
    cluster.add_site("s2", [])
    cluster.add_site("s3", [])
    per_client = []
    for g in range(groups):
        for c in range(clients_per_group):
            per_client.append([
                Transaction(
                    [Operation.update("hot", ChangeOp(f"/hot/v{g}", "x"))
                     for _ in range(ops_per_tx)],
                    label=f"g{g}c{c}t{t}",
                )
                for t in range(tx_per_client)
            ])
    if serial:
        cluster.add_client("c0", "s2", [tx for txs in per_client for tx in txs])
    else:
        for n, txs in enumerate(per_client):
            cluster.add_client(f"c{n}", "s2" if n % 2 else "s3", txs)
    return cluster


def unversioned(monkeypatch, base: type) -> str:
    """Register, for this test only, a subclass of ``base`` whose
    ``structure_version`` is always ``None`` — the protocol contract for
    "never reuse a spec" — and return its registry name: the
    recompute-every-retry reference for ``base``."""

    class Unversioned(base):
        def structure_version(self, doc_name):
            return None

    monkeypatch.setitem(protocol_registry._REGISTRY, "unversioned", Unversioned)
    return "unversioned"


def retry_run(protocol: str, ops_per_tx: int, tx_per_client: int):
    """Three writers on one hot leaf, so every operation but the lock
    holder's blocks and retries. Returns (spec-reuse hits, records)."""
    cluster = DTXCluster(
        protocol=protocol, config=SystemConfig().with_(client_think_ms=0.0)
    )
    hot = doc("hot", E("hot", E("v", text="0")))
    cluster.add_site("s1", [hot])
    for c in range(3):
        txs = [
            Transaction(
                [Operation.update("hot", ChangeOp("/hot/v", "x"))
                 for _ in range(ops_per_tx)],
                label=f"c{c}t{t}",
            )
            for t in range(tx_per_client)
        ]
        cluster.add_client(f"c{c}", "s1", txs)
    result = cluster.run()
    hits = sum(s.spec_cache_hits for s in result.site_stats.values())
    return hits, [
        (r.label, r.status, r.submitted_ts, r.finished_ts) for r in result.records
    ]


def high_write_cluster(window_ms: float, seed: int = 0xD7C5, clients: int = 8,
                       tx_per_client: int = 4) -> tuple[DTXCluster, dict, dict]:
    """Non-conflicting writers on one replicated doc; returns the cluster,
    the initial document map and the label -> Transaction map."""
    cfg = SystemConfig().with_(
        client_think_ms=0.0, seed=seed,
        replica_write_policy="primary", replica_read_policy="nearest",
        group_commit_window_ms=window_ms,
    )
    cluster = DTXCluster(protocol="xdgl", config=cfg)
    hot = doc("hot", E("hot", *[E(f"c{i}") for i in range(clients)]))
    initial = {"hot": hot.clone()}
    for sid in ("s1", "s2", "s3"):
        cluster.add_site(sid)
    cluster.replicate_document(hot, ["s1", "s2", "s3"])
    by_label = {}
    for i in range(clients):
        txs = [
            Transaction(
                [Operation.update("hot", InsertOp(f"<e><t>{t}</t></e>", f"/hot/c{i}"))],
                label=f"c{i}t{t}",
            )
            for t in range(tx_per_client)
        ]
        for tx in txs:
            by_label[tx.label] = tx
        cluster.add_client(f"cl{i}", "s2", txs)  # coordinators off the primary
    return cluster, initial, by_label


def replica_states(cluster, sites, doc_name="hot") -> dict:
    return {sid: serialize_document(cluster.document_at(sid, doc_name)) for sid in sites}


# ---------------------------------------------------------------------------
# configuration knobs
# ---------------------------------------------------------------------------

class TestConfigKnobs:
    def test_group_commit_window_validated(self):
        assert DEFAULT_CONFIG.group_commit_window_ms == 0.0
        assert SystemConfig().with_(group_commit_window_ms=0.5).group_commit_window_ms == 0.5
        with pytest.raises(ConfigError):
            SystemConfig().with_(group_commit_window_ms=-1.0)


# ---------------------------------------------------------------------------
# conflict-indexed wait registry (lock-manager level)
# ---------------------------------------------------------------------------

class TestBlockedPairs:
    def make(self):
        return LockManager(LockTable(XDGL_MATRIX), WaitForGraph())

    def spec(self, *pairs):
        s = LockSpec()
        for key, mode in pairs:
            s.add(key, mode)
        return s

    def test_blocked_pairs_record_full_request(self):
        mgr = self.make()
        assert mgr.process_operation("t1", self.spec(("k1", LockMode.X))).granted
        outcome = mgr.process_operation(
            "t2", self.spec(("k1", LockMode.X), ("k2", LockMode.IX))
        )
        assert not outcome.granted
        assert outcome.blocked_pairs == frozenset(
            {("k1", LockMode.X), ("k2", LockMode.IX)}
        )

    def test_granted_outcome_has_no_blocked_pairs(self):
        mgr = self.make()
        outcome = mgr.process_operation("t1", self.spec(("k1", LockMode.ST)))
        assert outcome.granted and outcome.blocked_pairs == frozenset()

    def test_release_transaction_reports_modes(self):
        mgr = self.make()
        mgr.process_operation(
            "t1", self.spec(("k1", LockMode.X), ("k2", LockMode.IX))
        )
        released, ops = mgr.release_transaction("t1")
        assert released == {
            "k1": frozenset({LockMode.X}),
            "k2": frozenset({LockMode.IX}),
        }
        assert ops >= 1


# ---------------------------------------------------------------------------
# targeted wake-ups: precision and the no-lost-wakeup property
# ---------------------------------------------------------------------------

class TestTargetedWakeups:
    def test_intention_lock_overlap_does_not_wake(self):
        """Compatible shared keys must not count as conflicts. t_b commits
        while t_a2 waits on another group's X target: both transactions
        hold/request IX on the shared root, but IX||IX, so the wake sweep
        leaves t_a2 asleep; only t_a1's commit (releasing the X it
        actually waits for) wakes it."""
        cfg = SystemConfig().with_(client_think_ms=0.0)
        cluster = DTXCluster(protocol="xdgl", config=cfg)
        hot = doc("hot", E("hot", E("a", text="0"), E("b", text="0")))
        cluster.add_site("s1", [hot])
        t_a1 = Transaction(
            [Operation.update("hot", ChangeOp("/hot/a", "x")) for _ in range(6)],
            label="a1",
        )
        t_a2 = Transaction(
            [Operation.update("hot", ChangeOp("/hot/a", "y"))], label="a2"
        )
        t_b = Transaction(
            [Operation.update("hot", ChangeOp("/hot/b", "z")) for _ in range(2)],
            label="b",
        )
        cluster.add_client("c1", "s1", [t_a1])
        cluster.add_client("c2", "s1", [t_a2])
        cluster.add_client("c3", "s1", [t_b])
        result = cluster.run()
        assert len(result.committed) == 3
        done = {r.label: r.finished_ts for r in result.records}
        # t_a2 waited right through t_b's commit and ran after t_a1's...
        assert done["b"] < done["a1"] < done["a2"]
        # ...on one wake in all: it blocked once and retried once. A wake
        # on t_b's commit would show as a second wake and a third attempt.
        assert sum(s.waiter_wakes for s in result.site_stats.values()) == 1
        assert (t_a2.stats.waits, t_a2.stats.op_attempts) == (1, 2)

    @staticmethod
    def wake_site(monkeypatch):
        """A data site whose outgoing messages are recorded, not sent."""
        cluster = DTXCluster(protocol="xdgl", config=SystemConfig())
        cluster.add_site("s1", [doc("hot", E("hot", E("a"), E("b"), E("c")))])
        cluster.add_site("s2")
        cluster.add_site("s3")
        sent = []
        monkeypatch.setattr(
            cluster.network, "send",
            lambda src, dst, payload, size_bytes=None: sent.append((dst, payload)) or 0.0,
        )
        return cluster.sites["s1"], sent

    def test_wakes_exactly_the_conflicting_waiters_in_registration_order(
        self, monkeypatch
    ):
        """Remote wake notices draw network jitter in send order, so the
        order of one sweep's wakes is part of the schedule: registration
        order, whatever order the released keys come in."""
        site, sent = self.wake_site(monkeypatch)
        IS, IX, ST, X = LockMode.IS, LockMode.IX, LockMode.ST, LockMode.X
        t1, t2, t3, t4, t5, t6 = (TxId(f"s{2 + n % 2}", n, float(n)) for n in range(1, 7))
        for tid, pairs in [
            (t1, {("root", IX), ("a", X)}),
            (t2, {("root", IX), ("b", X)}),  # only the deferred key reaches it
            (t3, {("root", IX), ("a", X)}),
            (t4, {("root", IS), ("c", ST)}),  # root overlaps compatibly, c is not released
            (t5, {("root", IX), ("b", X), ("a", IX)}),  # hit through two keys, woken once
            (t6, {("root", IX), ("c", X)}),
        ]:
            site.waiters[tid] = (tid.site, frozenset(pairs))
        # An earlier single-operation undo gave up X on b without waking anyone.
        site._deferred_wake_keys["b"] = {X}
        site._notify_lock_release({"a": frozenset({X}), "root": frozenset({IX})})
        assert [(dst, n.tid) for dst, n in sent] == [
            ("s3", t1), ("s2", t2), ("s3", t3), ("s3", t5),
        ]
        assert all(isinstance(n, WakeNotice) and n.site == "s1" for _, n in sent)
        assert list(site.waiters) == [t4, t6] and not site._deferred_wake_keys
        assert (site.stats.waiter_wakes, site.stats.wake_notices_sent) == (4, 4)

        # A woken waiter that blocks again queues up behind everyone still
        # asleep; one that re-blocks while still registered (it was woken
        # at another site) keeps its place and waits for its new pairs.
        del sent[:]
        site.waiters[t1] = (t1.site, frozenset({("root", IX), ("a", X)}))
        site.waiters[t4] = (t4.site, frozenset({("root", IS), ("a", ST)}))
        assert list(site.waiters) == [t4, t6, t1]
        site._notify_lock_release({"a": frozenset({X})})
        assert [n.tid for _, n in sent] == [t4, t1]
        site._notify_lock_release({"c": frozenset({ST})})  # t4 no longer waits on c
        assert [n.tid for _, n in sent] == [t4, t1, t6]
        assert not site.waiters

    @pytest.mark.parametrize("end", ["commit", "abort", "fail", "crash"])
    def test_ended_waiter_is_forgotten(self, monkeypatch, end):
        site, sent = self.wake_site(monkeypatch)
        gone, stays = TxId("s2", 1, 1.0), TxId("s3", 2, 2.0)
        pairs = frozenset({("root", LockMode.IX), ("a", LockMode.X)})
        site.waiters[gone] = ("s2", pairs)
        site.waiters[stays] = ("s3", pairs)
        if end == "crash":
            site.crash()
            assert not site.waiters
        else:
            {"commit": site._commit_at_site, "abort": site._abort_at_site,
             "fail": site._fail_at_site}[end](gone)
            assert list(site.waiters) == [stays]
        # It held nothing: nobody is woken...
        assert not [n for _, n in sent if isinstance(n, WakeNotice)]
        # ...and a later release of what it waited for passes it by.
        site._notify_lock_release({"a": frozenset({LockMode.X})})
        assert [n.tid for _, n in sent if isinstance(n, WakeNotice)] == (
            [] if end == "crash" else [stays]
        )
        assert not site.waiters

    @settings(
        max_examples=example_budget(8),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_no_lost_wakeups_property(self, seed):
        """Every blocked transaction eventually wakes: the run terminates
        with all transactions committed, no waiter left at any site, and
        the committed bytes of a serial run of the same transactions."""
        total = 4 * 3 * 2
        states, blocked = {}, {}
        for serial in (True, False):
            cluster = contended_cluster(seed=seed, serial=serial)
            result = cluster.run()  # a lost wake-up starves the run -> SimulationError
            assert len(result.records) == total
            assert len(result.committed) == total  # chain waits: nothing can abort
            for site in cluster.sites.values():
                assert not site.waiters
            states[serial] = replica_states(cluster, ("s1",))
            blocked[serial] = sum(s.ops_blocked for s in result.site_stats.values())
        assert blocked[True] == 0 < blocked[False]  # the oracle never waited
        assert states[False] == states[True]


# ---------------------------------------------------------------------------
# group commit
# ---------------------------------------------------------------------------

class TestGroupCommit:
    def test_batched_equals_unbatched(self):
        cu, initial, by_label = high_write_cluster(0.0)
        ru = cu.run()
        cb, _, _ = high_write_cluster(0.75)
        rb = cb.run()
        states_u = replica_states(cu, ("s1", "s2", "s3"))
        states_b = replica_states(cb, ("s1", "s2", "s3"))
        # Replicas never diverge in either mode...
        assert len(set(states_u.values())) == 1
        assert len(set(states_b.values())) == 1
        # ...and the two modes commit the same transactions to the same bytes.
        assert sorted(r.label for r in ru.committed) == sorted(
            r.label for r in rb.committed
        )
        assert states_u == states_b
        # Both verdicts: final state reachable by a serial order. The
        # workload is commutative, so checking a handful of orders is exact.
        committed = [by_label[r.label] for r in rb.committed]
        assert final_state_serializable(initial, committed, {"hot": states_b["s1"]})
        # The batched run actually batched (and saved sync messages).
        batches = sum(s.group_batches_sent for s in rb.site_stats.values())
        assert batches > 0
        kinds_u = cu.network.stats.by_kind
        kinds_b = cb.network.stats.by_kind
        assert kinds_b["ReplicaSyncBatch"] < kinds_u["ReplicaSyncBatch"]

    def test_lsn_sequences_stay_contiguous(self):
        cb, _, _ = high_write_cluster(0.75)
        rb = cb.run()
        assert rb.committed
        for site in cb.sites.values():
            log = site.logs.get("hot")
            if log is None:
                continue
            # No holes at quiescence: catch-up replay (PR 2) is untouched.
            assert log.applied_lsn == log.max_recorded_lsn

    @pytest.mark.parametrize("window", [0.0, 0.75])
    def test_primary_crash_mid_window(self, window):
        """A primary crash mid-window must leave the survivors mutually
        byte-identical and serializable — in both propagation modes."""
        cluster, initial, by_label = high_write_cluster(window, clients=6, tx_per_client=4)
        cluster.schedule_crash("s1", at_ms=3.0)  # inside the commit storm
        result = cluster.run()
        survivors = ("s2", "s3")
        states = replica_states(cluster, survivors)
        assert len(set(states.values())) == 1, "survivors diverged"
        committed = [by_label[r.label] for r in result.committed]
        # Commutative workload: every committed insert must be present in
        # its own container, which is exactly the final-state
        # serializability condition here (failed-with-state-kept
        # transactions may add extras on top, so committed effects are
        # checked individually).
        final = states["s2"]
        for tx in committed:
            i, t = re.match(r"c(\d+)t(\d+)", tx.label).groups()
            section = re.search(rf"<c{i}>.*?</c{i}>", final, re.DOTALL)
            assert section and f"<t>{t}</t>" in section.group(0), tx.label
        # Post-crash the cluster kept making progress through the failover.
        assert result.promotions >= 1

    def test_coordinator_crash_and_recover_mid_window(self):
        """A flush whose coordinator crashed — and possibly recovered —
        before the window timer fired must do nothing: crash() already
        failed the queued transactions' clients, so resuming the flush
        would replicate effects of transactions reported failed (and
        double-trigger their settled waiter events)."""
        cluster, _, _ = high_write_cluster(5.0, clients=6, tx_per_client=4)
        # Clients coordinate at s2; crash it once the first window has
        # transactions queued (~2 ms in) and bring it back before the
        # 5 ms flush timer fires. Pre-fence, the resumed flush
        # double-triggered the settled waiters (SimulationError).
        cluster.schedule_crash("s2", at_ms=2.0, recover_at_ms=4.0)
        result = cluster.run()  # must not raise "event already triggered"
        assert all(
            r.status in ("committed", "aborted", "failed") for r in result.records
        )
        # Whatever survived is consistent: replicas identical, locks clear.
        states = replica_states(cluster, ("s1", "s2", "s3"))
        assert len(set(states.values())) == 1
        for site in cluster.sites.values():
            assert site.lock_manager.table.is_empty()
            assert not site._outboxes and not site._rounds

    def test_window_zero_is_a_batch_of_one_with_no_added_delay(self):
        """Window 0 is the same path with no wait: one one-entry batch per
        transaction per target, the first of them sent at the very instant
        the transaction staged its sync."""
        cu, _, _ = high_write_cluster(0.0, clients=1, tx_per_client=3)
        coordinator = cu.site("s2")
        staged_at, sent = [], []
        enqueue, send = coordinator._enqueue_group_sync, cu.network.send

        def spy_enqueue(rec, doc_name, ops):
            staged_at.append(cu.env.now)
            return enqueue(rec, doc_name, ops)

        def spy_send(src, dst, msg):
            if type(msg).__name__ == "ReplicaSyncBatch":
                sent.append((cu.env.now, dst, len(msg.entries)))
            return send(src, dst, msg)

        coordinator._enqueue_group_sync = spy_enqueue
        cu.network.send = spy_send
        ru = cu.run()
        assert len(ru.committed) == 3
        # Coordinator s2, primary s1: per transaction one record at s1,
        # then the secondaries — s3 and the coordinator's own copy.
        assert sorted((dst, n) for _, dst, n in sent) == sorted(
            [("s1", 1), ("s2", 1), ("s3", 1)] * 3
        )
        assert [t for t, dst, _ in sent if dst == "s1"] == staged_at
        assert sum(s.group_batches_sent for s in ru.site_stats.values()) == 9
        assert sum(s.group_batched_syncs for s in ru.site_stats.values()) == 3


# ---------------------------------------------------------------------------
# retry-time caching
# ---------------------------------------------------------------------------

class TestRetryCaching:
    def test_parse_cache_returns_shared_ast(self):
        clear_parse_cache()
        p1 = parse_xpath("/site/people/person[id=4]")
        p2 = parse_xpath("/site/people/person[id=4]")
        assert p1 is p2
        hits, misses = parse_cache_stats()
        assert hits >= 1 and misses >= 1

    def test_guide_version_moves_with_label_paths_only(self, people_doc):
        """Only a guide node's creation or pruning bumps the version: an
        insert or remove under a label path that already exists leaves it
        alone; a new label path, a prune, and the undo of either each move
        it to a version never seen before."""
        from repro.protocols.xdgl import XDGLProtocol
        from repro.update.applier import apply_update, revert

        protocol = XDGLProtocol()
        protocol.register_document(people_doc)
        seen = [protocol.structure_version("d1")]
        assert seen[0] is not None

        def step(op):
            """Apply ``op`` and then undo it; the version after each."""
            changes = apply_update(op, people_doc)
            protocol.after_apply("d1", changes)
            applied = protocol.structure_version("d1")
            protocol.after_apply("d1", [revert(c) for c in reversed(changes)])
            return applied, protocol.structure_version("d1")

        # target-only: one more (or one fewer) id under existing label paths
        assert step(InsertOp("<person><id>99</id></person>", "/people")) == (seen[0], seen[0])
        assert step(RemoveOp("/people/person[2]")) == (seen[0], seen[0])
        assert step(ChangeOp("/people/person/name", "x")) == (seen[0], seen[0])
        # a new label path (/people/person/email) and its undo, a prune; the
        # prune of /people/person/name and its undo, a re-creation
        for op in (InsertOp("<email/>", "/people/person[1]"), RemoveOp("/people/person/name")):
            applied, undone = step(op)
            assert applied not in seen
            assert undone not in seen + [applied]
            seen += [applied, undone]
        protocol.guide("d1").validate_against(people_doc)

    def test_guide_rebuild_never_reuses_a_version(self, people_doc):
        g1 = DataGuide.build(people_doc)
        g2 = DataGuide.build(people_doc)
        assert g1.version != g2.version

    def test_spec_cache_hits_on_retry_and_is_sim_transparent(self, monkeypatch):
        from repro.protocols.xdgl import XDGLProtocol

        hits, records = retry_run("xdgl", ops_per_tx=3, tx_per_client=2)
        ref_hits, ref_records = retry_run(
            unversioned(monkeypatch, XDGLProtocol), ops_per_tx=3, tx_per_client=2
        )
        assert hits > 0  # contended retries reused their specs
        assert ref_hits == 0
        assert records == ref_records  # bit-identical schedule

    def test_node2pl_version_bumps_on_change_and_rebuild(self, people_doc):
        from repro.protocols.node2pl import Node2PLProtocol
        from repro.update.applier import apply_update

        protocol = Node2PLProtocol()
        protocol.register_document(people_doc)
        v0 = protocol.structure_version("d1")
        assert v0 is not None
        changes = apply_update(
            InsertOp("<person><id>99</id></person>", "/people"), people_doc
        )
        protocol.after_apply("d1", changes)
        v1 = protocol.structure_version("d1")
        assert v1 != v0
        protocol.register_document(people_doc)  # snapshot install / reload
        assert protocol.structure_version("d1") not in (v0, v1)
        assert protocol.structure_version("nope") is None

    def test_node2pl_spec_cache_hits_on_retry_and_is_sim_transparent(self, monkeypatch):
        """PR 3 follow-on: the retry-time LockSpec reuse covers Node2PL
        through its tree-version clock — same contended workload, versioned
        vs not, hits recorded and schedules bit-identical.

        Single-operation writers: Node2PL must bump its version on *every*
        applied change (text edits move predicate matches, unlike the
        DataGuide's structural summary), so a waiter's cached spec
        survives only when the lock holder applies nothing after the
        waiter blocked — exactly the 1-op shape.
        """
        from repro.protocols.node2pl import Node2PLProtocol

        hits, records = retry_run("node2pl", ops_per_tx=1, tx_per_client=3)
        ref_hits, ref_records = retry_run(
            unversioned(monkeypatch, Node2PLProtocol), ops_per_tx=1, tx_per_client=3
        )
        assert hits > 0  # contended retries reused their specs
        assert ref_hits == 0
        assert records == ref_records  # bit-identical schedule

    def test_spec_cache_invalidated_by_structure_change(self):
        """A retry that straddles a guide mutation recomputes its spec
        (the cached version no longer matches) and still executes right."""
        cfg = SystemConfig().with_(client_think_ms=0.0)
        cluster = DTXCluster(protocol="xdgl", config=cfg)
        hot = doc("hot", E("hot", E("a", E("v", text="0")), E("b")))
        cluster.add_site("s1", [hot])
        blocker = Transaction(
            [Operation.update("hot", ChangeOp("/hot/a/v", "x")),
             Operation.update("hot", InsertOp("<w/>", "/hot/b"))],
            label="blocker",
        )
        waiter = Transaction(
            [Operation.update("hot", ChangeOp("/hot/a/v", "y"))], label="waiter"
        )
        cluster.add_client("c1", "s1", [blocker])
        cluster.add_client("c2", "s1", [waiter])
        result = cluster.run()
        assert {r.status for r in result.records} == {"committed"}
        text = serialize_document(cluster.document_at("s1", "hot"))
        assert "<w" in text
