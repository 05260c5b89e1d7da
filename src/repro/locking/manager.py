"""The LockManager: Algorithm 3 of the paper, and who waits for whom.

``process_operation`` walks the operation's lock spec; at each structure node
it tries to obtain the lock. On the first conflict it (i) adds wait-for edges
from the requesting transaction to every conflicting holder, (ii) checks
whether the new edges closed a cycle (an immediate local deadlock), (iii)
backs out the locks this operation had just taken — "the modifications made
by the operation in the DataGuide and the lock manager are undone" — and
reports failure. Only a fully granted spec lets the operation execute.

The manager also keeps the site's wait policy (README, "Grant-order
wakes"): the registry of refused transactions, the *turns* of the ones a
release woke, the pairs single-operation undo gave back, and the walk that
decides, oldest first, which waiters a release lets start. The site only
delivers each wake, through the ``wake`` callable it builds the manager with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Sequence

from ..deadlock.wfg import WaitForGraph
from .requests import LockSpec
from .table import LockTable

#: ``wake(tx, coordinator, attempt)`` delivers one wake and says whether it
#: was delivered; a declined wake takes no turn.
Wake = Callable[[Hashable, Hashable, int], bool]

#: What a key nobody holds (or has a turn on) maps to in the walk.
_NO_HOLDERS: dict = {}


def _undelivered(tx: Hashable, coordinator: Hashable, attempt: int) -> bool:
    """The default ``wake``: nobody to tell, so no turn is taken."""
    return False


@dataclass
class AcquireOutcome:
    """Result of one ``process_operation`` attempt."""

    granted: bool
    conflicts: set = field(default_factory=set)
    deadlock: bool = False
    cycle: Optional[list] = None
    lock_ops: int = 0  # table operations performed (cost model input)
    new_pairs: list = field(default_factory=list)  # (key, mode) newly granted


class LockManager:
    """Per-site lock manager: one lock table, the site's wait-for graph and
    the wait policy over them."""

    def __init__(self, table: LockTable, wfg: WaitForGraph, wake: Wake = _undelivered):
        self.table = table
        self.wfg = wfg
        self.wake = wake
        # Refused tx -> (its coordinator, every (key, mode) its blocked spec
        # requested, the refused attempt). Only a release of a pair
        # incompatible with a requested one makes it a candidate, so a
        # merely shared key (the root's intention locks) wakes nobody.
        self._waiters: dict = {}
        # Woken tx -> its blocked pairs, until its next request runs here or
        # it ends here: later waiters wake only past them.
        self._turns: dict = {}
        # key -> modes single-operation undo gave back since the last walk
        # (an undo wakes nobody; the next walk owes the wake).
        self._given_back: dict = {}

    def process_operation(
        self, tx: Hashable, spec: LockSpec, coordinator: Hashable = None, attempt: int = 0
    ) -> AcquireOutcome:
        """Try to take every lock in ``spec`` for ``tx`` (Algorithm 3).

        A refusal registers ``tx`` as a waiter for ``coordinator``'s
        ``attempt``; a grant drops an earlier registration. Either way a
        turn ``tx`` had here ends, and the turn's pairs it does not hold now
        are walked as released.
        """
        spec = spec.deduplicated()
        table = self.table
        ops_before = table.lock_ops
        # One pass over the spec; on a conflict the table has already
        # backed out this operation's partial grants (Alg. 3 l. 12).
        conflicts, new_pairs = table.acquire(tx, spec.requests)
        if conflicts:
            for other in conflicts:
                self.wfg.add_edge(tx, other)
            cycle = self.wfg.find_cycle_from(tx)
            outcome = AcquireOutcome(
                granted=False,
                conflicts=conflicts,
                deadlock=cycle is not None,
                cycle=cycle,
                lock_ops=table.lock_ops - ops_before,
            )
            # A mode of another vocabulary is never granted (the table raises
            # once a request reaches it), so it blocks and wakes nobody.
            modes = table.matrix.modes
            wanted = frozenset((r.key, r.mode) for r in spec if isinstance(r.mode, modes))
            self._waiters[tx] = (coordinator, wanted, attempt)
        else:
            # All granted: the transaction no longer waits on anyone.
            self.wfg.clear_waits(tx)
            outcome = AcquireOutcome(
                granted=True,
                lock_ops=table.lock_ops - ops_before,
                new_pairs=new_pairs,
            )
            self._waiters.pop(tx, None)  # a refusal of an earlier attempt
        turn = self._turns.pop(tx, None)
        if turn is not None:
            held = table.held_by(tx)
            freed: dict = {}
            for key, mode in turn:
                if mode not in held.get(key, ()):
                    freed.setdefault(key, set()).add(mode)
            if freed:
                self._walk(freed)
        return outcome

    def give_back(self, tx: Hashable, pairs: Sequence) -> None:
        """Back out one operation's grants ``pairs`` (single-operation
        undo), newest first. Nobody wakes now (paper §2.2 wakes waiters
        when a transaction ends; waking here makes two crosswise writers
        ping-pong); the next walk counts the pairs as released."""
        for key, mode in reversed(pairs):
            self.table.release_one(key, tx, mode)
        given_back = self._given_back
        for key, mode in pairs:
            given_back.setdefault(key, set()).add(mode)

    def release_transaction(self, tx: Hashable) -> tuple[dict, int]:
        """Release all of ``tx``'s locks, drop it from the wait-for graph and
        the wait policy, and wake the waiters the release lets start.

        Returns what the walk counted as released, as ``{key: modes}`` (the
        table's map for ``tx`` plus its turn and the pairs undo gave back),
        and the number of table operations (for cost accounting). Called on
        commit and on abort — strict 2PL holds every lock until
        transaction end.
        """
        ops_before = self.table.lock_ops
        released = self.table.release_transaction(tx)
        self.wfg.remove_node(tx)
        self._waiters.pop(tx, None)
        turn = self._turns.pop(tx, None)
        if turn is not None:
            for key, mode in turn:
                released.setdefault(key, set()).add(mode)
        self._walk(released)  # no table operation
        return released, self.table.lock_ops - ops_before

    def _walk(self, released: dict) -> None:
        """Wake, oldest first, the waiters that ``released`` lets start.

        The candidates are the waiters with a requested (key, mode) pair
        *incompatible* with something in ``released`` or given back by undo
        since the last walk; the others provably could not make progress.
        They are walked in ``TxId`` order, and one wakes only if every pair
        of its blocked spec is compatible with the other holders in the
        lock table and with the turns here. A delivered wake makes the
        waiter's pairs its turn. A candidate that stays asleep gets a
        wait-for edge to every holder and turn owner that blocks it, so the
        detector sees a cycle through a turn too.

        ``released`` becomes the walk's own: the pairs undo gave back are
        merged into it. Each remote wake draws network jitter as it is
        sent, so the walk order is schedule.
        """
        given_back = self._given_back
        if given_back:
            for key, modes in given_back.items():
                own = released.get(key)
                if own is None:
                    released[key] = modes
                else:
                    own |= modes
            self._given_back = {}
        waiters = self._waiters
        if not waiters:
            return
        table = self.table
        conflicts_with = table.matrix.conflicts_with
        candidates = sorted(
            tx
            for tx, (_, wait_set, _) in waiters.items()
            if any(
                key in released and not conflicts_with[mode].isdisjoint(released[key])
                for key, mode in wait_set
            )
        )
        if not candidates:
            return
        turns = self._turns
        # key -> {owner: modes} over the turns, the way the table keeps holders
        in_turn: dict = {}
        for owner, pairs in turns.items():
            for key, mode in pairs:
                in_turn.setdefault(key, {}).setdefault(owner, set()).add(mode)
        indexes = (table._held, in_turn)
        for tx in candidates:
            coordinator, wait_set, attempt = waiters[tx]
            blockers = {
                other
                for key, mode in wait_set
                for index in indexes
                for other, modes in index.get(key, _NO_HOLDERS).items()
                if other != tx and not conflicts_with[mode].isdisjoint(modes)
            }
            if blockers:
                for other in blockers:
                    self.wfg.add_edge(tx, other)
                continue
            del waiters[tx]
            if not self.wake(tx, coordinator, attempt):
                continue
            turns[tx] = wait_set
            for key, mode in wait_set:
                in_turn.setdefault(key, {}).setdefault(tx, set()).add(mode)

    def pending(self) -> list[tuple[str, Hashable, str]]:
        """What the wait policy still keeps, as ``(kind, tx, detail)``: each
        ``"waiter"``, each ``"turn"``, and each key undo gave back that no
        walk has seen yet (``"deferred_wake"``, with no tx). A settled site
        keeps none."""
        return (
            [
                ("waiter", tx, f"coordinator {coordinator}, attempt {attempt}")
                for tx, (coordinator, _, attempt) in self._waiters.items()
            ]
            + [("turn", tx, "") for tx in self._turns]
            + [("deferred_wake", None, repr(key)) for key in self._given_back]
        )
