"""The wait policy on a bare ``LockManager``: no cluster, no environment.

The lock manager decides who waits and who may start after a release
(README, "Grant-order wakes"): a refusal registers its waiter, a release
walks the waiters it reaches oldest first and wakes one only past the
holders and the turns of those woken before it, and a sleeper waits for
each of them in the wait-for graph. The site only delivers a wake; here a
recorder stands in for it.

Mutations these tests catch: the candidates walked newest first (the
first two tests), no turn recorded (the turn test), the pairs undo gave
back dropped (the undo test), a sleeper given no edges (the turn test),
a declined wake that still takes a turn (the predicate test).
"""

from __future__ import annotations

from repro.core.transaction import TxId
from repro.deadlock import WaitForGraph
from repro.locking import XDGL_MATRIX, LockManager, LockMode, LockSpec, LockTable

ST, X = LockMode.ST, LockMode.X

#: Waiters by age (``TxId`` order is ``start_ts`` first), and two holders.
W1, W2, W3 = (TxId("s2", n, float(n)) for n in (1, 2, 3))
HOLD, KEEP = TxId("s1", 8, 8.0), TxId("s1", 9, 9.0)


def spec(*pairs) -> LockSpec:
    wanted = LockSpec()
    for key, mode in pairs:
        wanted.add(key, mode)
    return wanted


def manager(declines=()):
    """A bare manager whose wakes are recorded as ``(tx, coordinator,
    attempt)``; the wake of a transaction in ``declines`` is declined."""
    wakes = []

    def wake(tx, coordinator, attempt):
        wakes.append((tx, coordinator, attempt))
        return tx not in declines

    return LockManager(LockTable(XDGL_MATRIX), WaitForGraph(), wake), wakes


def refused(mgr, tx, *pairs) -> None:
    """``tx`` asks for ``pairs`` for its coordinator s2, attempt ``tx.seq``,
    and is refused."""
    assert not mgr.process_operation(tx, spec(*pairs), "s2", tx.seq).granted


def kept(mgr) -> set:
    return {(kind, tx) for kind, tx, _ in mgr.pending()}


class TestWaitPolicy:
    def test_a_fresh_manager_holds_no_waiter(self):
        mgr, wakes = manager()
        assert mgr.pending() == [] and wakes == []
        # A manager built without a wake has nobody to deliver to: a
        # release drops its waiters and gives them no turn.
        bare = LockManager(LockTable(XDGL_MATRIX), WaitForGraph())
        assert bare.process_operation(HOLD, spec(("a", X))).granted
        refused(bare, W1, ("a", X))
        assert bare.pending() == [("waiter", W1, "coordinator s2, attempt 1")]
        bare.release_transaction(HOLD)
        assert bare.pending() == []

    def test_a_release_wakes_the_oldest_candidate_first(self):
        """Three writers of one key, registered newest first: the release
        wakes the oldest alone, and the others wait for its turn."""
        mgr, wakes = manager()
        assert mgr.process_operation(HOLD, spec(("a", X))).granted
        for tx in (W3, W2, W1):
            refused(mgr, tx, ("a", X))
        mgr.release_transaction(HOLD)
        assert wakes == [(W1, "s2", 1)]
        assert kept(mgr) == {("turn", W1), ("waiter", W2), ("waiter", W3)}
        assert mgr.wfg.successors(W2) == mgr.wfg.successors(W3) == {W1}

    def test_shared_readers_wake_together_oldest_first(self):
        mgr, wakes = manager()
        assert mgr.process_operation(HOLD, spec(("a", X))).granted
        for tx in (W3, W1, W2):
            refused(mgr, tx, ("a", ST))
        mgr.release_transaction(HOLD)
        assert wakes == [(W1, "s2", 1), (W2, "s2", 2), (W3, "s2", 3)]
        assert kept(mgr) == {("turn", W1), ("turn", W2), ("turn", W3)}

    def test_a_turn_keeps_a_younger_conflicting_candidate_asleep(self):
        """w1 wakes and its turn covers X on a until its retry runs; w2,
        which wants a and b, stays asleep and waits for the turn owner and
        for the holder of b. The granted retry ends the turn, and w1's end
        leaves w2 asleep behind the holder of b alone."""
        mgr, wakes = manager()
        assert mgr.process_operation(HOLD, spec(("a", X))).granted
        assert mgr.process_operation(KEEP, spec(("b", ST))).granted
        refused(mgr, W2, ("a", X), ("b", X))
        refused(mgr, W1, ("a", X))
        mgr.release_transaction(HOLD)
        assert wakes == [(W1, "s2", 1)]
        assert kept(mgr) == {("turn", W1), ("waiter", W2)}
        assert mgr.wfg.successors(W2) == {W1, KEEP}
        assert mgr.process_operation(W1, spec(("a", X)), "s2", 2).granted
        assert kept(mgr) == {("waiter", W2)}
        mgr.release_transaction(W1)
        assert wakes == [(W1, "s2", 1)]
        assert mgr.wfg.successors(W2) == {KEEP}

    def test_a_turn_that_ends_unused_is_walked_as_released(self):
        """w1's retry asks for something else: the turn's X on a is free
        again, and w2 wakes at once."""
        mgr, wakes = manager()
        assert mgr.process_operation(HOLD, spec(("a", X))).granted
        refused(mgr, W1, ("a", X))
        refused(mgr, W2, ("a", X))
        mgr.release_transaction(HOLD)
        assert mgr.process_operation(W1, spec(("c", X)), "s2", 2).granted
        assert wakes == [(W1, "s2", 1), (W2, "s2", 2)]
        assert kept(mgr) == {("turn", W2)}

    def test_pairs_given_back_by_undo_wake_nobody_until_the_next_release(self):
        mgr, wakes = manager()
        taken = mgr.process_operation(HOLD, spec(("a", X))).new_pairs
        refused(mgr, W1, ("a", X))
        mgr.give_back(HOLD, taken)
        assert wakes == [] and mgr.table.holders("a") == {}
        assert kept(mgr) == {("waiter", W1), ("deferred_wake", None)}
        # Any later release walks them: here one of a lock nobody waits for.
        assert mgr.process_operation(KEEP, spec(("z", X))).granted
        mgr.release_transaction(KEEP)
        assert wakes == [(W1, "s2", 1)]
        assert kept(mgr) == {("turn", W1)}

    def test_a_wake_the_predicate_declines_takes_no_turn(self):
        """The site declines w1's wake (its coordinator dropped it): w1 is
        unregistered with no turn, so w2 wakes in the same walk."""
        mgr, wakes = manager(declines={W1})
        assert mgr.process_operation(HOLD, spec(("a", X))).granted
        refused(mgr, W2, ("a", X))
        refused(mgr, W1, ("a", X))
        mgr.release_transaction(HOLD)
        assert wakes == [(W1, "s2", 1), (W2, "s2", 2)]
        assert kept(mgr) == {("turn", W2)}

    def test_an_ending_transaction_leaves_nothing(self):
        """A waiter or a turn owner that ends is forgotten, and its turn is
        walked as released."""
        mgr, wakes = manager()
        assert mgr.process_operation(HOLD, spec(("a", X))).granted
        for tx in (W1, W2, W3):
            refused(mgr, tx, ("a", X))
        mgr.release_transaction(W3)  # ends while it waits
        mgr.release_transaction(HOLD)
        mgr.release_transaction(W1)
        assert wakes == [(W1, "s2", 1), (W2, "s2", 2)]
        mgr.release_transaction(W2)
        assert mgr.pending() == [] and mgr.wfg.edges() == []
