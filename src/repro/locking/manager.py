"""The LockManager: Algorithm 3 of the paper.

``process_operation`` walks the operation's lock spec; at each structure node
it tries to obtain the lock. On the first conflict it (i) adds wait-for edges
from the requesting transaction to every conflicting holder, (ii) checks
whether the new edges closed a cycle (an immediate local deadlock), (iii)
backs out the locks this operation had just taken — "the modifications made
by the operation in the DataGuide and the lock manager are undone" — and
reports failure. Only a fully granted spec lets the operation execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

from ..deadlock.wfg import WaitForGraph
from .requests import LockSpec
from .table import LockTable


@dataclass
class AcquireOutcome:
    """Result of one ``process_operation`` attempt."""

    granted: bool
    conflicts: set = field(default_factory=set)
    deadlock: bool = False
    cycle: Optional[list] = None
    lock_ops: int = 0  # table operations performed (cost model input)
    new_pairs: list = field(default_factory=list)  # (key, mode) newly granted
    # On failure: every (key, mode) the blocked spec requested. The site's
    # wake sweep wakes the waiter only when a release could actually have
    # unblocked it — some released (key, modes) is incompatible with a
    # requested pair. Recording the full requested set (not just the first
    # conflicting key) keeps the sweep conservative: any released
    # conflicting key may change what the retry can acquire.
    blocked_pairs: frozenset = frozenset()


class LockManager:
    """Per-site lock manager: one lock table + the site's wait-for graph."""

    def __init__(self, table: LockTable, wfg: WaitForGraph):
        self.table = table
        self.wfg = wfg

    def process_operation(self, tx: Hashable, spec: LockSpec) -> AcquireOutcome:
        """Try to take every lock in ``spec`` for ``tx`` (Algorithm 3)."""
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
            return AcquireOutcome(
                granted=False,
                conflicts=conflicts,
                deadlock=cycle is not None,
                cycle=cycle,
                lock_ops=table.lock_ops - ops_before,
                blocked_pairs=frozenset((r.key, r.mode) for r in spec),
            )
        # All granted: the transaction no longer waits on anyone.
        self.wfg.clear_waits(tx)
        return AcquireOutcome(
            granted=True,
            lock_ops=table.lock_ops - ops_before,
            new_pairs=new_pairs,
        )

    def release_transaction(self, tx: Hashable) -> tuple[dict, int]:
        """Release all of ``tx``'s locks and drop it from the wait-for graph.

        Returns the released locks as ``{key: modes}`` — the table's own
        map, now the caller's (the site's wake sweep tests waiters'
        requested pairs against it) — and the number of table operations
        (for cost accounting). Called on commit and on abort — strict 2PL
        holds every lock until transaction end.
        """
        ops_before = self.table.lock_ops
        released = self.table.release_transaction(tx)
        self.wfg.remove_node(tx)
        return released, self.table.lock_ops - ops_before

    def held_by(self, tx: Hashable) -> dict:
        return self.table.held_by(tx)
