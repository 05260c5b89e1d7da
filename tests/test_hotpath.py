"""Hot-path overhaul tests: targeted wake-ups, group commit, spec caching.

Three families:

* **no-lost-wakeup** — waiters are woken only by a conflicting release,
  and a coordinator drops a wake for an attempt it has superseded, yet
  every blocked transaction still reaches a terminal state, and (for
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

import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import DTXCluster, SystemConfig
from repro import protocols as protocol_registry
from repro.config import DEFAULT_CONFIG
from repro.core.context import CoordinatorRecord
from repro.core.messages import AbortOrder, SiteDownNotice, UndoOpRequest, WakeNotice
from repro.core.transaction import Operation, Transaction, TxId
from repro.dataguide import DataGuide
from repro.errors import ConfigError
from repro.experiments import ExperimentConfig, build_cluster
from repro.locking import XDGL_MATRIX, LockMode
from repro.locking.manager import LockManager
from repro.locking.requests import LockSpec
from repro.locking.table import LockTable
from repro.deadlock import WaitForGraph
from repro.update import ChangeOp, InsertOp, RemoveOp
from repro.verify import final_state_serializable, quiescent
from repro.workload import WorkloadSpec
from repro.xml import E, doc, serialize_document
from repro.xpath.parser import clear_parse_cache, parse_cache_stats, parse_xpath

from .conftest import (
    doc_at, example_budget, refuse, replicated_cluster, run_to_horizon, x_spec,
)


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


def write_all_cluster(seed: int, clients: int, leaves: int, ops_per_tx: int,
                      local_coordinator: bool) -> DTXCluster:
    """A hot document replicated write-all at s1 and s2; clients coordinate
    at s3 (one at s1 if ``local_coordinator``), two transactions each, every
    operation a write of its client's leaf at both replicas.

    One commit releases the leaf at both replicas, and each replica wakes
    the waiter: the second wake finds its attempt superseded. Lock waits
    never time out (``lock_wait_timeout_ms`` 0), so a lost wake-up starves
    its transaction. Replicas can deadlock crosswise; the detector aborts a
    victim, so a transaction ends committed or aborted.
    """
    cfg = SystemConfig().with_(client_think_ms=0.0, seed=seed)
    assert cfg.lock_wait_timeout_ms == 0 and cfg.replica_write_policy == "all"
    hot = doc("hot", E("hot", *[E(f"v{i}", text="0") for i in range(leaves)]))
    cluster = replicated_cluster(cfg, n_sites=3, replicate_at=["s1", "s2"], document=hot)
    for c in range(clients):
        txs = [
            Transaction(
                [Operation.update("hot", ChangeOp(f"/hot/v{c % leaves}", "x"))
                 for _ in range(ops_per_tx)],
                label=f"c{c}t{t}",
            )
            for t in range(2)
        ]
        site = "s1" if local_coordinator and c == 0 else "s3"
        cluster.add_client(f"c{c}", site, txs)
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


def retry_run(protocol: str, ops_per_tx: int, tx_per_client: int, readers: int = 0):
    """Three writers on one hot leaf, so every operation but the lock
    holder's blocks and retries, and ``readers`` more clients that only read
    it (a reader's end changes nothing, so a writer it held up retries
    against an unchanged structure). Returns (spec-reuse hits, records)."""
    cluster = DTXCluster(
        protocol=protocol, config=SystemConfig().with_(client_think_ms=0.0)
    )
    hot = doc("hot", E("hot", E("v", text="0")))
    cluster.add_site("s1", [hot])
    for c in range(3 + readers):
        txs = [
            Transaction(
                [Operation.update("hot", ChangeOp("/hot/v", "x")) if c < 3
                 else Operation.query("hot", "/hot/v")
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
    hot = doc("hot", E("hot", *[E(f"c{i}") for i in range(clients)]))
    initial = {"hot": hot.clone()}
    cluster = replicated_cluster(cfg, 3, document=hot)
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
        """t2 is refused at k1, before its request reaches k2, yet the
        registry keeps k2 too: once t1's release frees k1, t2 stays asleep
        behind t3's X on k2 and waits for t3."""
        mgr = self.make()
        assert mgr.process_operation("t1", self.spec(("k1", LockMode.X))).granted
        outcome = mgr.process_operation(
            "t2", self.spec(("k1", LockMode.X), ("k2", LockMode.IX)), "s2", 1
        )
        assert not outcome.granted
        assert mgr.process_operation("t3", self.spec(("k2", LockMode.X))).granted
        mgr.release_transaction("t1")
        assert mgr.pending() == [("waiter", "t2", "coordinator s2, attempt 1")]
        assert mgr.wfg.successors("t2") == {"t3"}

    def test_granted_outcome_has_no_blocked_pairs(self):
        """A grant registers nothing, and a granted retry drops the
        refusal of the earlier attempt."""
        mgr = self.make()
        assert mgr.process_operation("t1", self.spec(("k1", LockMode.ST))).granted
        assert mgr.pending() == []
        assert not mgr.process_operation("t2", self.spec(("k1", LockMode.X)), "s2", 1).granted
        mgr.table.release_transaction("t1")  # behind the policy's back: no walk
        assert mgr.process_operation("t2", self.spec(("k1", LockMode.X)), "s2", 2).granted
        assert mgr.pending() == []

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
        result = run_to_horizon(cluster, until=1000.0)
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

    def test_wakes_the_waiters_a_release_lets_start_oldest_first(self, monkeypatch):
        """One walk over the waiters a release reaches, oldest first,
        whatever order they registered in: one wakes only past the live
        holders and the turns of those woken before it, and one kept asleep
        waits for each of them in the wait-for graph. Remote wake notices
        draw network jitter in send order, so the order is schedule too.

        Mutations it catches: walking in registration order (t3 before
        t1), waking past a turn (t3, t5 woken), waking past a live holder
        (t0 woken), no edges for a sleeper, a turn not recorded, the
        pairs undo gave back not merged (t2 asleep)."""
        site, sent = self.wake_site(monkeypatch)
        manager = site.lock_manager
        IS, IX, ST, X = LockMode.IS, LockMode.IX, LockMode.ST, LockMode.X
        t0, t1, t2, t3, t4, t5, t6 = (TxId(f"s{2 + n % 2}", n, float(n)) for n in range(7))
        # ``hold`` ends below; ``holder`` keeps e and c; ``undoer`` takes b
        # in one operation and undoes it.
        hold, holder, undoer = (TxId("s1", n, float(n)) for n in (97, 98, 99))

        def spec(*pairs):
            wanted = LockSpec()
            for key, mode in pairs:
                wanted.add(key, mode)
            return wanted

        assert manager.process_operation(hold, spec(("root", IX), ("a", X), ("e", IX))).granted
        assert manager.process_operation(holder, spec(("e", IX), ("c", X))).granted
        taken = manager.process_operation(undoer, spec(("b", X))).new_pairs
        pairs = {  # each is refused at its first conflicting key
            t3: [("root", IX), ("a", X)],  # behind t1's turn on a
            t6: [("root", IX), ("c", X)],  # nothing on c is released
            t1: [("root", IX), ("a", X)],  # the oldest waiter on a: wakes
            t5: [("root", IX), ("a", IX), ("b", X)],  # behind t1 (a) and t2 (b)
            t0: [("root", IX), ("e", X)],  # e is still held (IX): stays asleep
            t4: [("root", IS), ("c", ST)],  # root overlaps compatibly only
            t2: [("root", IX), ("b", X)],  # only the given-back b reaches it
        }
        for tid, wanted in pairs.items():  # registration order is not age
            assert not manager.process_operation(tid, spec(*wanted), tid.site, tid.seq).granted
        # A single-operation undo gives up X on b without waking anyone.
        manager.give_back(undoer, taken)
        assert sent == []
        site._settle(hold, "abort")
        assert [(dst, n.tid, n.attempt) for dst, n in sent] == [("s3", t1, 1), ("s2", t2, 2)]
        assert all(isinstance(n, WakeNotice) and n.site == "s1" for _, n in sent)
        assert {(kind, tid) for kind, tid, _ in manager.pending()} == {
            ("turn", t1), ("turn", t2),
            ("waiter", t0), ("waiter", t3), ("waiter", t4), ("waiter", t5), ("waiter", t6),
        }
        waits = {tid: manager.wfg.successors(tid) for tid in pairs}
        assert waits == {
            t0: {holder}, t1: set(), t2: {undoer}, t3: {t1}, t4: {holder}, t5: {t1, t2},
            t6: {holder},
        }
        assert (site.stats.waiter_wakes, site.stats.wake_notices_sent) == (2, 2)

        # t1's transaction ends before its retry: its turn counts as
        # released, so t3 wakes, and t5 now waits behind t3's turn and t2's.
        del sent[:]
        site._settle(t1, "abort")
        assert [n.tid for _, n in sent] == [t3]
        assert {tid for kind, tid, _ in manager.pending() if kind == "turn"} == {t2, t3}
        assert manager.wfg.successors(t5) == {t2, t3}

    @pytest.mark.parametrize("end", ["commit", "abort", "fail", "crash"])
    def test_ended_waiter_is_forgotten(self, monkeypatch, end):
        site, sent = self.wake_site(monkeypatch)
        gone, stays = TxId("s2", 1, 1.0), TxId("s3", 2, 2.0)
        holder = TxId("s1", 0, 0.0)
        refuse(site.lock_manager, gone, holder, "s2")
        assert not site.lock_manager.process_operation(stays, x_spec(), "s3", 1).granted
        if end == "crash":
            site.crash()
            assert site.lock_manager.pending() == []
        else:
            site._settle(gone, end)
            assert [(kind, tid) for kind, tid, _ in site.lock_manager.pending()] == [
                ("waiter", stays)
            ]
        # It held nothing: nobody is woken...
        assert not [n for _, n in sent if isinstance(n, WakeNotice)]
        # ...and the release of what it waited for passes it by.
        site._settle(holder, "commit")
        assert [n.tid for _, n in sent if isinstance(n, WakeNotice)] == (
            [] if end == "crash" else [stays]
        )
        assert "waiter" not in {kind for kind, _, _ in site.lock_manager.pending()}

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
            result = run_to_horizon(cluster)
            assert len(result.records) == total
            assert len(result.committed) == total  # chain waits: nothing can abort
            assert quiescent(cluster) == []
            states[serial] = doc_at(cluster, "s1", "hot")
            blocked[serial] = sum(s.ops_blocked for s in result.site_stats.values())
        assert blocked[True] == 0 < blocked[False]  # the oracle never waited
        assert states[False] == states[True]


# ---------------------------------------------------------------------------
# grant-order wakes: how a turn passes
# ---------------------------------------------------------------------------

class TestTurns:
    """A woken waiter's blocked pairs are its turn at the site: later
    waiters wake only past it, and wait for its owner meanwhile. The turn
    passes when the owner's next request runs there (granted or refused),
    when the owner settles there, or at once when its own coordinator drops
    the wake. Each test runs real operations through one site's participant
    path: ``hold`` writes /hot/a, then the older ``w1`` and the newer
    ``w2`` are refused; ``hold``'s commit wakes ``w1`` alone.

    Mutations they catch: a walk that ignores turns (w2 woken with w1),
    a turn that does not end at the owner's next request (the granted and
    the refused retry), a turn that outlives its owner's end (w2 never
    wakes), a turn taken for a dropped local wake (w2 asleep), a sleeper
    with no edge to a turn owner (the first test), a granted retry that
    leaves its refusal registered (a stale wake)."""

    HOLD, W1, W2, NEW = (TxId(site, n, float(n)) for n, site in
                         ((1, "s2"), (2, "s3"), (3, "s2"), (4, "s3")))

    def build(self, monkeypatch):
        """A fresh s1 whose outgoing messages are recorded, not sent."""
        cluster = DTXCluster(protocol="xdgl", config=SystemConfig())
        cluster.add_site("s1", [doc("hot", E("hot", E("a"), E("b")))])
        cluster.add_site("s2")
        cluster.add_site("s3")
        self.site, self.sent = cluster.sites["s1"], []
        monkeypatch.setattr(
            cluster.network, "send",
            lambda src, dst, payload, size_bytes=None: self.sent.append(payload) or 0.0,
        )
        return self.site

    def start(self, monkeypatch=None):
        """The set-up: ``hold`` writes, ``w1`` and ``w2`` are refused,
        ``hold`` commits. Returns the site."""
        if monkeypatch is not None:
            self.build(monkeypatch)
        assert self.run(self.HOLD).acquired
        assert not self.run(self.W1).acquired and not self.run(self.W2).acquired
        self.site._settle(self.HOLD, "commit")
        return self.site

    def run(self, tid, attempt=1, path="/hot/a"):
        op = Operation.update("hot", ChangeOp(path, str(tid.seq)))
        op.index = 0
        return self.site._execute_operation(tid, tid.site, op, attempt)

    def woken(self) -> list:
        return [(n.tid, n.attempt) for n in self.sent if isinstance(n, WakeNotice)]

    def waits(self, kind) -> set:
        """The transactions the site's lock manager keeps as ``kind``
        (``"waiter"`` or ``"turn"``)."""
        return {tid for k, tid, _ in self.site.lock_manager.pending() if k == kind}

    def test_the_oldest_waiter_wakes_and_the_next_waits_for_its_turn(self, monkeypatch):
        site = self.start(monkeypatch)
        assert self.woken() == [(self.W1, 1)]
        assert self.waits("turn") == {self.W1} and self.waits("waiter") == {self.W2}
        assert site.wfg.successors(self.W2) == {self.W1}

    def test_a_granted_retry_ends_the_turn_and_holds_the_lock(self, monkeypatch):
        site = self.start(monkeypatch)
        assert self.run(self.W1, attempt=2).acquired
        assert not self.waits("turn") and self.woken() == [(self.W1, 1)]  # w2 waits for w1's lock
        assert site.wfg.successors(self.W2) == {self.W1}
        site._settle(self.W1, "commit")
        assert self.woken() == [(self.W1, 1), (self.W2, 1)]

    def test_a_refused_retry_ends_the_turn(self, monkeypatch):
        """A newcomer took the lock before w1's retry (the lock table knows
        no turns): w1 blocks again, and both wait for the newcomer, whose
        commit wakes w1 first again, for its refused attempt."""
        site = self.start(monkeypatch)
        assert self.run(self.NEW).acquired
        assert not self.run(self.W1, attempt=2).acquired
        assert not self.waits("turn") and self.waits("waiter") == {self.W1, self.W2}
        assert self.NEW in site.wfg.successors(self.W1) & site.wfg.successors(self.W2)
        site._settle(self.NEW, "commit")
        assert self.woken() == [(self.W1, 1), (self.W1, 2)]

    def test_a_retry_granted_before_a_wake_here_drops_the_registration(self, monkeypatch):
        """Another replica's wake started w1's retry, and it ran here after
        hold's operation was undone (an undo wakes nobody): the retry is
        granted, so the refusal registered here is gone, and hold's end
        sends w1 no stale wake."""
        self.build(monkeypatch)
        assert self.run(self.HOLD).acquired and not self.run(self.W1).acquired
        next(self.site._handle_undo_request(
            UndoOpRequest(tid=self.HOLD, coordinator="s2", op_index=0, attempt=1)
        ))
        assert self.run(self.W1, attempt=2).acquired
        assert not self.waits("waiter")
        self.site._settle(self.HOLD, "abort")
        assert self.woken() == []

    @pytest.mark.parametrize("end", ["commit", "abort", "fail"])
    def test_the_owner_ending_passes_the_turn(self, monkeypatch, end):
        site = self.start(monkeypatch)
        site._settle(self.W1, end)
        assert self.woken() == [(self.W1, 1), (self.W2, 1)]
        assert self.waits("turn") == {self.W2}

    def test_a_dropped_local_wake_takes_no_turn(self, monkeypatch):
        """w1 is coordinated here and had moved past its refused attempt on
        another replica's wake: the fence drops this one, and w2 wakes in
        the same walk."""
        self.W1 = TxId("s1", 2, 2.0)
        tx = Transaction([Operation.update("hot", ChangeOp("/hot/a", "x"))])
        rec = CoordinatorRecord(tx=tx, tid=self.W1, deliver=lambda outcome: None)
        rec.attempt, rec.answered_attempt = 2, 1
        self.build(monkeypatch).coordinators[self.W1] = rec
        site = self.start()
        assert not rec.wake_pending
        assert self.woken() == [(self.W2, 1)] and self.waits("turn") == {self.W2}
        assert not self.waits("waiter") and site.stats.waiter_wakes == 2

    def test_a_read_routed_elsewhere_keeps_its_turn_until_it_settles(self, monkeypatch):
        """A quorum read picks its replica again on each retry, so the
        owner may never come back here: w2 then waits for the turn owner
        in the wait-for graph (the detector sees a cycle through it) until
        the owner settles here."""
        site = self.start(monkeypatch)
        assert site.wfg.successors(self.W2) == {self.W1}
        # Other releases pass it by.
        assert self.run(self.NEW, path="/hot/b").acquired
        site._settle(self.NEW, "commit")
        assert self.woken() == [(self.W1, 1)] and self.waits("turn") == {self.W1}
        site._settle(self.W1, "commit")
        assert self.woken() == [(self.W1, 1), (self.W2, 1)]


# ---------------------------------------------------------------------------
# attempt-fenced wakes: one retry per release, and still no lost wake-up
# ---------------------------------------------------------------------------

class TestAttemptFencedWakes:
    """A wake carries the attempt the participant refused; once a release
    wake has answered an attempt and the coordinator has moved past it,
    another wake for it is a duplicate and is dropped, so one release costs
    a waiter one retry, not one per replica."""

    @staticmethod
    def coordinator_site(attempt: int, answered: int = 0):
        """Site s2 coordinating a blocked transaction at ``attempt``, asleep
        on its wake event; release wakes have answered attempts up to
        ``answered``."""
        cluster = DTXCluster(protocol="xdgl", config=SystemConfig())
        cluster.add_site("s1", [doc("hot", E("hot", E("a")))])
        cluster.add_site("s2")
        site = cluster.sites["s2"]
        tid = TxId("s2", 1, 0.0)
        tx = Transaction([Operation.update("hot", ChangeOp("/hot/a", "x"))])
        rec = CoordinatorRecord(tx=tx, tid=tid, deliver=lambda outcome: None)
        rec.attempt, rec.answered_attempt = attempt, answered
        rec.wake_event = cluster.env.event()
        site.coordinators[tid] = rec
        return site, rec

    @staticmethod
    def retry(site, rec) -> None:
        """The woken coordinator runs its next attempt and blocks again."""
        rec.attempt += 1
        rec.wake_pending, rec.wake_event = False, site.env.event()

    @staticmethod
    def woken(rec) -> bool:
        assert rec.wake_pending is rec.wake_event.triggered
        return rec.wake_pending

    def test_a_duplicate_notice_neither_wakes_nor_leaves_a_pending_wake(self):
        """Both replicas refused attempt 2. The first release wake starts
        attempt 3; the second replica's, arriving after, is dropped."""
        site, rec = self.coordinator_site(attempt=2)
        site._on_wake_notice(WakeNotice(tid=rec.tid, site="s1", attempt=2))
        assert self.woken(rec)
        self.retry(site, rec)
        site._on_wake_notice(WakeNotice(tid=rec.tid, site="s3", attempt=2))
        assert not self.woken(rec)
        site._on_wake_notice(WakeNotice(tid=rec.tid, site="s1", attempt=3))
        assert self.woken(rec)

    def test_a_second_notice_for_the_current_attempt_still_wakes(self):
        site, rec = self.coordinator_site(attempt=2)
        for _ in range(2):
            site._on_wake_notice(WakeNotice(tid=rec.tid, site="s1", attempt=2))
            assert self.woken(rec)
            rec.wake_pending, rec.wake_event = False, site.env.event()

    def test_an_unanswered_superseded_attempt_still_wakes_once(self):
        """The coordinator moved from attempt 2 to 3 without a release wake
        (a peer was suspected): a release of attempt 2's lock is still owed
        its wake, and only one."""
        site, rec = self.coordinator_site(attempt=3, answered=1)
        site._on_wake_notice(WakeNotice(tid=rec.tid, site="s1", attempt=2))
        assert self.woken(rec)
        self.retry(site, rec)
        site._on_wake_notice(WakeNotice(tid=rec.tid, site="s3", attempt=2))
        assert not self.woken(rec)

    def test_the_coordinator_as_participant_fences_its_own_wakes(self):
        """A waiter registered here for its own coordinator is woken in
        place, through the same fence; the sweep still counts and
        unregisters it."""
        site, rec = self.coordinator_site(attempt=3, answered=2)
        manager, holder = site.lock_manager, TxId("s1", 0, 0.0)
        refuse(manager, rec.tid, holder, "s2", 2).release_transaction(holder)
        assert not self.woken(rec)
        assert manager.pending() == [] and site.stats.waiter_wakes == 1
        assert site.stats.wake_notices_sent == 0
        refuse(manager, rec.tid, holder, "s2", 3).release_transaction(holder)
        assert self.woken(rec) and site.stats.waiter_wakes == 2

    @pytest.mark.parametrize("wake", ["site-down", "abort-order"])
    def test_site_down_and_abort_order_wake_whatever_the_attempt(self, wake):
        site, rec = self.coordinator_site(attempt=3, answered=2)
        site._on_wake_notice(WakeNotice(tid=rec.tid, site="s1", attempt=1))
        assert not self.woken(rec)
        if wake == "site-down":
            site._on_site_down(SiteDownNotice(site="s1"))
        else:
            site._order_abort(AbortOrder(tid=rec.tid))
            assert rec.abort_requested
        assert self.woken(rec)

    def test_a_write_all_release_costs_one_retry(self, monkeypatch):
        """Two writers of one leaf replicated at two sites: a blocked
        writer waits at both replicas, and the holder's commit wakes it
        from both. Only the first wake of an attempt reaches it."""
        cluster = write_all_cluster(
            seed=3, clients=2, leaves=1, ops_per_tx=1, local_coordinator=False
        )
        coordinator, wakes = cluster.site("s3"), []
        wake = coordinator._wake
        monkeypatch.setattr(coordinator, "_wake", lambda rec: wakes.append(rec) or wake(rec))
        result = run_to_horizon(cluster, until=1000.0)
        assert len(result.committed) == 4 and quiescent(cluster) == []
        notices = cluster.site("s1").stats.wake_notices_sent + (
            cluster.site("s2").stats.wake_notices_sent
        )
        txs = [tx for client in cluster.clients for tx in client.transactions]
        waits = sum(tx.stats.waits for tx in txs)
        assert notices == 2 * waits > 0  # each release wakes from both replicas...
        assert len(wakes) == waits  # ...one wake per wait gets through...
        assert sum(tx.stats.op_attempts for tx in txs) == len(txs) + waits  # ...one retry

    @settings(
        max_examples=example_budget(12),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        clients=st.integers(min_value=2, max_value=6),
        leaves=st.integers(min_value=1, max_value=3),
        ops_per_tx=st.integers(min_value=1, max_value=3),
        local_coordinator=st.booleans(),
    )
    def test_no_lost_wakeups_under_write_all_property(
        self, seed, clients, leaves, ops_per_tx, local_coordinator
    ):
        """Every transaction ends and the cluster settles. The run has a
        horizon far past its natural end, because the detector's sweeps
        never let the event queue drain: a transaction starved by a lost
        wake-up shows as a client that never ended."""
        cluster = write_all_cluster(seed, clients, leaves, ops_per_tx, local_coordinator)
        result = run_to_horizon(cluster)
        assert len(result.records) == 2 * clients
        assert all(r.status in ("committed", "aborted") for r in result.records)
        assert quiescent(cluster) == []


# ---------------------------------------------------------------------------
# grant-order wakes under intention modes and shared readers
# ---------------------------------------------------------------------------

#: Leaf writes and reads over two subtrees: a write takes IX on its
#: ancestors and X on its leaf, a query IS on its ancestors and ST on what it
#: reads, so writers and readers meet at every level of the DataGuide.
_LEAVES = ("/hot/left/x", "/hot/left/y", "/hot/right/z")
_READS = ("/hot/left", "/hot/right/z", "//y", "/hot")


def intention_cluster(seed: int, readers: int, writers: int, ops_per_tx: int,
                      local_coordinator: bool) -> DTXCluster:
    """One XDGL document at s1; ``readers`` clients run queries only and
    ``writers`` clients mix leaf writes with reads, two transactions each,
    coordinated at s2 and s3 (and the first at s1 if
    ``local_coordinator``). Lock waits never time out, so a lost wake-up
    starves its transaction; the detector aborts deadlock victims."""
    cfg = SystemConfig().with_(client_think_ms=0.0, seed=seed)
    assert cfg.lock_wait_timeout_ms == 0
    cluster = DTXCluster(protocol="xdgl", config=cfg)
    hot = doc("hot", E("hot", E("left", E("x", text="0"), E("y", text="0")),
                       E("right", E("z", text="0"))))
    cluster.add_site("s1", [hot])
    cluster.add_site("s2")
    cluster.add_site("s3")
    rng = random.Random(seed)

    def op(writer: bool) -> Operation:
        if writer and rng.random() < 0.7:
            return Operation.update("hot", ChangeOp(rng.choice(_LEAVES), "x"))
        return Operation.query("hot", rng.choice(_READS))

    for c in range(readers + writers):
        txs = [
            Transaction([op(c >= readers) for _ in range(ops_per_tx)], label=f"c{c}t{t}")
            for t in range(2)
        ]
        site = "s1" if local_coordinator and c == 0 else ("s2", "s3")[c % 2]
        cluster.add_client(f"c{c}", site, txs)
    return cluster


def regimes_shaped_cluster(seed: int, tx_per_client: int) -> DTXCluster:
    """The quorum preset (factor 3 of 4 sites, leases, quorum reads) over a
    120 KB XMark base, 12 clients of five-operation transactions (30 %
    update), one ``//*`` view per fragment at the site that holds no copy
    of it."""
    system = SystemConfig.preset("quorum", seed=seed, view_staleness_ms=20.0)
    cluster, _ = build_cluster(ExperimentConfig(
        n_sites=4, db_bytes=120_000, system=system,
        workload=WorkloadSpec(n_clients=12, seed=seed, tx_per_client=tx_per_client,
                              ops_per_tx=5, update_tx_ratio=0.3),
    ))
    for name in cluster.catalog.all_documents():
        (host,) = set(cluster.sites) - set(cluster.catalog.sites_for(name))
        cluster.register_view(f"view-{name}", "//*", [name], host=host)
    return cluster


class TestGrantOrderProgress:
    @settings(
        max_examples=example_budget(12),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        readers=st.integers(min_value=1, max_value=4),
        writers=st.integers(min_value=1, max_value=4),
        ops_per_tx=st.integers(min_value=1, max_value=3),
        local_coordinator=st.booleans(),
    )
    def test_no_lost_wakeups_under_intention_modes_property(
        self, seed, readers, writers, ops_per_tx, local_coordinator
    ):
        """Shared readers wake together past each other's turns and wait
        behind a writer's; every transaction still ends and the cluster
        settles. Mutations it catches: a turn that never ends, a sleeper
        with no wait-for edges (a cycle through it stays invisible and the
        run parks)."""
        cluster = intention_cluster(seed, readers, writers, ops_per_tx, local_coordinator)
        result = run_to_horizon(cluster)
        assert len(result.records) == 2 * (readers + writers)
        assert all(r.status in ("committed", "aborted") for r in result.records)
        assert quiescent(cluster) == []

    def test_a_read_routed_elsewhere_does_not_park_its_sleepers(self):
        """A quorum read picks its replica again on each retry, so a woken
        reader may never come back to the site that woke it. Its turn then
        lasts until it settles there, and the waiters behind the turn wait
        for it in the wait-for graph: without those edges this run parks
        (seed 4: clients wait for good with no cycle visible to the
        detector). Mutation it catches: edges to live holders only."""
        cluster = regimes_shaped_cluster(seed=4, tx_per_client=5)
        assert cluster.config.lock_wait_timeout_ms == 0
        result = run_to_horizon(cluster, until=3000.0)
        assert len(result.records) == 60
        assert quiescent(cluster) == []


# ---------------------------------------------------------------------------
# group commit
# ---------------------------------------------------------------------------

class TestGroupCommit:
    def test_batched_equals_unbatched(self):
        cu, initial, by_label = high_write_cluster(0.0)
        ru = cu.run()
        cb, _, _ = high_write_cluster(0.75)
        rb = cb.run()
        # Replicas never diverge in either mode...
        assert quiescent(cu) == [] and quiescent(cb) == []
        # ...and the two modes commit the same transactions to the same bytes.
        assert sorted(r.label for r in ru.committed) == sorted(
            r.label for r in rb.committed
        )
        assert doc_at(cu, "s1", "hot") == doc_at(cb, "s1", "hot")
        # Both verdicts: final state reachable by a serial order. The
        # workload is commutative, so checking a handful of orders is exact.
        committed = [by_label[r.label] for r in rb.committed]
        assert final_state_serializable(initial, committed, {"hot": doc_at(cb, "s1", "hot")})
        # The batched run actually batched (and saved sync messages).
        batches = sum(s.group_batches_sent for s in rb.site_stats.values())
        assert batches > 0
        kinds_u = cu.network.stats.by_kind
        kinds_b = cb.network.stats.by_kind
        assert kinds_b["ReplicaSyncBatch"] < kinds_u["ReplicaSyncBatch"]

    def test_lsn_sequences_stay_contiguous(self):
        cb, _, _ = high_write_cluster(0.75)
        assert cb.run().committed
        assert quiescent(cb) == []  # no log holes, among the rest

    @pytest.mark.parametrize("window", [0.0, 0.75])
    def test_primary_crash_mid_window(self, window):
        """A primary crash mid-window must leave the survivors mutually
        byte-identical and serializable — in both propagation modes."""
        cluster, initial, by_label = high_write_cluster(window, clients=6, tx_per_client=4)
        cluster.schedule_crash("s1", at_ms=3.0)  # inside the commit storm
        result = cluster.run()
        assert quiescent(cluster) == [], "the survivors did not settle"
        committed = [by_label[r.label] for r in result.committed]
        # Commutative workload: every committed insert must be present in
        # its own container, which is exactly the final-state
        # serializability condition here (failed-with-state-kept
        # transactions may add extras on top, so committed effects are
        # checked individually).
        final = doc_at(cluster, "s2", "hot")
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
        assert quiescent(cluster) == []

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

        Single-operation writers and a reader: Node2PL must bump its
        version on *every* applied change (text edits move predicate
        matches, unlike the DataGuide's structural summary), so a waiter's
        cached spec survives only when nothing was applied between its
        refusal and its retry. A release wakes a waiter only once it can
        start, so a writer's commit always changes the version first; a
        writer held up by the reader, whose end applies nothing, retries
        against the same version.
        """
        from repro.protocols.node2pl import Node2PLProtocol

        hits, records = retry_run("node2pl", ops_per_tx=1, tx_per_client=3, readers=1)
        ref_hits, ref_records = retry_run(
            unversioned(monkeypatch, Node2PLProtocol), ops_per_tx=1, tx_per_client=3,
            readers=1,
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
