"""Unit tests for the generic lock table and the Algorithm 3 lock manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deadlock import WaitForGraph
from repro.errors import LockError
from repro.locking import (
    XDGL_MATRIX,
    LockManager,
    LockMode,
    LockSpec,
    LockTable,
    TreeLockMode,
)

from .conftest import example_budget

K1 = ("d1", ("people",))
K2 = ("d1", ("people", "person"))
K3 = ("d2", ("products",))


@pytest.fixture
def table():
    return LockTable(XDGL_MATRIX)


class TestLockTable:
    def test_grant_and_hold(self, table):
        conflicts, is_new = table.try_acquire(K1, "t1", LockMode.ST)
        assert conflicts == set() and is_new
        assert table.holders(K1) == {"t1": frozenset({LockMode.ST})}

    def test_regrant_same_mode_not_new(self, table):
        table.try_acquire(K1, "t1", LockMode.ST)
        conflicts, is_new = table.try_acquire(K1, "t1", LockMode.ST)
        assert conflicts == set() and not is_new

    def test_own_locks_never_conflict(self, table):
        table.try_acquire(K1, "t1", LockMode.ST)
        conflicts, _ = table.try_acquire(K1, "t1", LockMode.IX)
        assert conflicts == set()  # same transaction may mix modes

    def test_conflict_reports_holders(self, table):
        table.try_acquire(K1, "t1", LockMode.ST)
        table.try_acquire(K1, "t2", LockMode.IS)
        conflicts, is_new = table.try_acquire(K1, "t3", LockMode.IX)
        assert conflicts == {"t1"}  # only ST conflicts with IX, not IS
        assert not is_new
        assert "t3" not in table.transactions()

    def test_compatible_modes_coexist(self, table):
        table.try_acquire(K1, "t1", LockMode.ST)
        conflicts, _ = table.try_acquire(K1, "t2", LockMode.SI)
        assert conflicts == set()
        assert set(table.holders(K1)) == {"t1", "t2"}

    def test_release_one(self, table):
        table.try_acquire(K1, "t1", LockMode.ST)
        table.try_acquire(K1, "t1", LockMode.IS)
        table.release_one(K1, "t1", LockMode.ST)
        assert table.holders(K1) == {"t1": frozenset({LockMode.IS})}

    def test_release_one_missing_raises(self, table):
        with pytest.raises(LockError):
            table.release_one(K1, "t1", LockMode.ST)

    def test_release_transaction(self, table):
        table.try_acquire(K1, "t1", LockMode.ST)
        table.try_acquire(K2, "t1", LockMode.IS)
        table.try_acquire(K3, "t2", LockMode.X)
        released = table.release_transaction("t1")
        assert set(released) == {K1, K2}
        assert table.held_by("t1") == {}
        assert table.holders(K3) == {"t2": frozenset({LockMode.X})}

    def test_release_unknown_transaction_is_noop(self, table):
        before = table.lock_ops
        assert table.release_transaction("ghost") == {}
        assert table.lock_ops == before + 1
        assert table.is_empty()

    def test_wrong_mode_type_rejected(self, table):
        from repro.locking import TreeLockMode

        with pytest.raises(LockError):
            table.try_acquire(K1, "t1", TreeLockMode.S)

    def test_lock_ops_metered(self, table):
        before = table.lock_ops
        table.try_acquire(K1, "t1", LockMode.ST)
        table.try_acquire(K2, "t1", LockMode.IS)
        table.release_transaction("t1")
        assert table.lock_ops > before

    def test_lock_count_and_consistency(self, table):
        table.try_acquire(K1, "t1", LockMode.ST)
        table.try_acquire(K1, "t2", LockMode.IS)
        table.try_acquire(K2, "t1", LockMode.IS)
        assert table.lock_count() == 3
        table.check_consistency()
        table.release_transaction("t1")
        table.check_consistency()
        assert table.lock_count() == 1

    def test_is_empty(self, table):
        assert table.is_empty()
        table.try_acquire(K1, "t1", LockMode.ST)
        assert not table.is_empty()
        table.release_transaction("t1")
        assert table.is_empty()


class TestLockManager:
    def make(self):
        wfg = WaitForGraph()
        return LockManager(LockTable(XDGL_MATRIX), wfg), wfg

    def spec(self, *pairs):
        s = LockSpec()
        for key, mode in pairs:
            s.add(key, mode)
        return s

    def test_full_grant(self):
        mgr, wfg = self.make()
        outcome = mgr.process_operation("t1", self.spec((K1, LockMode.IS), (K2, LockMode.ST)))
        assert outcome.granted
        assert len(outcome.new_pairs) == 2
        assert outcome.lock_ops >= 2
        assert wfg.edge_count == 0

    def test_conflict_backs_out_partial_grants(self):
        mgr, wfg = self.make()
        mgr.process_operation("t1", self.spec((K2, LockMode.ST)))
        outcome = mgr.process_operation(
            "t2", self.spec((K1, LockMode.IX), (K2, LockMode.IX))
        )
        assert not outcome.granted
        assert outcome.conflicts == {"t1"}
        # The partially acquired K1 lock must have been released (Alg 3 l.12).
        assert mgr.table.held_by("t2") == {}
        assert ("t2", "t1") in wfg.edges()

    def test_duplicate_requests_deduplicated(self):
        mgr, _ = self.make()
        outcome = mgr.process_operation(
            "t1", self.spec((K1, LockMode.IS), (K1, LockMode.IS), (K1, LockMode.IS))
        )
        assert outcome.granted
        assert len(outcome.new_pairs) == 1

    def test_local_deadlock_detected(self):
        mgr, _ = self.make()
        mgr.process_operation("t1", self.spec((K1, LockMode.ST)))
        mgr.process_operation("t2", self.spec((K2, LockMode.ST)))
        # t1 now waits for t2 on K2.
        blocked1 = mgr.process_operation("t1", self.spec((K2, LockMode.IX)))
        assert not blocked1.granted and not blocked1.deadlock
        # t2 waiting for t1 on K1 closes the cycle.
        blocked2 = mgr.process_operation("t2", self.spec((K1, LockMode.IX)))
        assert not blocked2.granted
        assert blocked2.deadlock
        assert set(blocked2.cycle) == {"t1", "t2"}

    def test_successful_retry_clears_wait_edges(self):
        mgr, wfg = self.make()
        mgr.process_operation("t1", self.spec((K1, LockMode.ST)))
        mgr.process_operation("t2", self.spec((K1, LockMode.IX)))  # blocked
        assert wfg.waits("t2")
        mgr.release_transaction("t1")
        outcome = mgr.process_operation("t2", self.spec((K1, LockMode.IX)))
        assert outcome.granted
        assert not wfg.waits("t2")

    def test_release_transaction_cleans_wfg(self):
        mgr, wfg = self.make()
        mgr.process_operation("t1", self.spec((K1, LockMode.ST)))
        mgr.process_operation("t2", self.spec((K1, LockMode.IX)))
        keys, ops = mgr.release_transaction("t1")
        assert K1 in keys and ops >= 1
        assert "t1" not in wfg.nodes()


# ---------------------------------------------------------------------------
# one-pass acquisition against the request-by-request rule
# ---------------------------------------------------------------------------


class NaiveTable:
    """Algorithm 3 spelled out one request at a time: scan the holders for
    a conflict, then grant unless the mode is already held; on a conflict
    release this operation's new grants, newest first. One table operation
    per request examined and per pair released."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.held: dict = {}  # key -> tx -> set of modes
        self.lock_ops = 0

    def try_one(self, key, tx, mode):
        self.lock_ops += 1
        if not isinstance(mode, self.matrix.modes):
            raise LockError(f"wrong mode {mode!r}")
        holders = self.held.get(key, {})
        conflicts = {
            other
            for other, modes in holders.items()
            if other != tx and any(not self.matrix.compatible(m, mode) for m in modes)
        }
        if conflicts:
            return conflicts, False
        own = self.held.setdefault(key, {}).setdefault(tx, set())
        if mode in own:
            return set(), False
        own.add(mode)
        return set(), True

    def release_one(self, key, tx, mode):
        self.lock_ops += 1
        self.held[key][tx].remove(mode)
        if not self.held[key][tx]:
            del self.held[key][tx]
        if not self.held[key]:
            del self.held[key]

    def process_operation(self, tx, requests):
        new_pairs = []
        for req in requests:
            conflicts, is_new = self.try_one(req.key, tx, req.mode)
            if conflicts:
                for key, mode in reversed(new_pairs):
                    self.release_one(key, tx, mode)
                return False, conflicts, []
            if is_new:
                new_pairs.append((req.key, req.mode))
        return True, set(), new_pairs

    def release_transaction(self, tx):
        released = {}
        for key in list(self.held):
            modes = self.held[key].pop(tx, None)
            if modes:
                released[key] = set(modes)
            if not self.held[key]:
                del self.held[key]
        self.lock_ops += max(1, len(released))
        return released

    def holders(self, key):
        return {tx: frozenset(m) for tx, m in self.held.get(key, {}).items()}

    def held_by(self, tx):
        return {
            key: frozenset(h[tx]) for key, h in self.held.items() if tx in h
        }


_KEYS = ("k1", "k2", "k3")
_TXS = ("t1", "t2", "t3")
#: Mostly XDGL modes; now and then one of another protocol's vocabulary.
_MODES = list(LockMode) * 4 + [TreeLockMode.S]
_step = st.one_of(
    st.tuples(
        st.just("acquire"),
        st.sampled_from(_TXS),
        st.lists(
            st.tuples(
                st.sampled_from(_KEYS),
                st.sampled_from(_MODES),
            ),
            min_size=1,
            max_size=6,
        ),
    ),
    st.tuples(st.just("release"), st.sampled_from(_TXS), st.none()),
)


class TestOnePassAcquisition:
    @settings(max_examples=example_budget(300), deadline=None)
    @given(steps=st.lists(_step, max_size=25))
    def test_one_pass_matches_the_request_by_request_rule(self, steps):
        """Random specs, holders and modes — re-requests of held modes,
        conflicts that back out partial grants, and wrong-mode requests
        that raise part-way through: the manager reports the same outcome
        as the naive rule, and leaves the same two indexes behind."""
        manager = LockManager(LockTable(XDGL_MATRIX), WaitForGraph())
        table = manager.table
        naive = NaiveTable(XDGL_MATRIX)
        for what, tx, pairs in steps:
            if what == "release":
                released, ops = manager.release_transaction(tx)
                before = naive.lock_ops
                assert released == naive.release_transaction(tx)
                assert ops == naive.lock_ops - before
            else:
                spec = LockSpec()
                for key, mode in pairs:
                    spec.add(key, mode)
                requests = spec.deduplicated().requests
                before = naive.lock_ops
                try:
                    expected = naive.process_operation(tx, requests)
                except LockError:
                    with pytest.raises(LockError):
                        manager.process_operation(tx, spec)
                else:
                    outcome = manager.process_operation(tx, spec)
                    granted, conflicts, new_pairs = expected
                    assert outcome.granted == granted
                    assert outcome.conflicts == conflicts
                    assert outcome.new_pairs == new_pairs
                    assert outcome.lock_ops == naive.lock_ops - before
            assert table.lock_ops == naive.lock_ops
            table.check_consistency()
            for key in _KEYS:
                assert table.holders(key) == naive.holders(key)
            for tx in _TXS:
                assert table.held_by(tx) == naive.held_by(tx)
            assert table.lock_count() == sum(
                len(m) for h in naive.held.values() for m in h.values()
            )
