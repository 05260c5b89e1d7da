"""The lock table: who holds which mode on which structure node.

Generic over the mode vocabulary (a :class:`CompatibilityMatrix` decides
conflicts) and over the key space, so the same table serves XDGL, Node2PL and
DocLock2PL. Transactions are identified by any hashable id.

The table counts every check/insert/release in ``lock_ops`` — the paper's
"lock management overhead" — which the simulation converts to CPU time.

Hot-path layout: the two indexes share one mode-set object per (key, tx)
pair; :meth:`acquire` takes a whole operation's requests in one loop (the
one grant rule, with no method call per request); the conflict test uses
the matrix's precomputed ``conflicts_with`` frozensets (one C-level
``isdisjoint`` per holder); :meth:`release_transaction` hands back the
transaction's own map instead of copying it; and a live grant counter makes
:meth:`lock_count` O(1) — it is read once per executed operation for the
peak-lock-count statistic.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from ..errors import LockError
from .modes import CompatibilityMatrix
from .requests import LockKey, LockRequest

#: Shared empty result for the granted paths of :meth:`LockTable.acquire`
#: (callers only read it; compares equal to ``set()``).
_NO_CONFLICTS: frozenset = frozenset()


class LockTable:
    def __init__(self, matrix: CompatibilityMatrix):
        self.matrix = matrix
        # key -> tx -> set of modes held
        self._held: dict[LockKey, dict[Hashable, set]] = {}
        # tx -> key -> set of modes held (release index). The per-(key, tx)
        # mode set is the *same object* in both indexes.
        self._by_tx: dict[Hashable, dict[LockKey, set]] = {}
        self.lock_ops = 0
        self._grants = 0  # live (key, tx, mode) grant count
        self._conflicts_with = matrix.conflicts_with
        self._modes_cls = matrix.modes

    # -- acquisition ------------------------------------------------------

    def acquire(
        self, tx: Hashable, requests: Iterable[LockRequest]
    ) -> tuple[set, list]:
        """Take every request for ``tx`` in order, or none of the new ones.

        Returns ``(conflicts, new_pairs)``. ``conflicts`` is the set of
        *other* transactions holding a mode incompatible with the first
        request that cannot be granted; it is empty when all were granted.
        ``new_pairs`` lists the ``(key, mode)`` pairs the call added, in
        order (callers keep them to back out one operation); on a conflict
        those pairs are released again, newest first, before returning.

        Counts one table operation per request examined and one per
        backed-out pair. A mode of the wrong vocabulary raises
        :class:`LockError`; the requests before it stay granted.
        """
        held = self._held
        conflicts_with = self._conflicts_with
        modes_cls = self._modes_cls
        # tx's map of held keys; a new one joins the index at its first grant.
        keys = self._by_tx.get(tx) or {}
        new_pairs: list = []
        ops = 0
        for req in requests:
            ops += 1
            key = req.key
            mode = req.mode
            if not isinstance(mode, modes_cls):
                self.lock_ops += ops
                self._grants += len(new_pairs)
                raise LockError(
                    f"{self.matrix.name} table cannot hold {mode!r} "
                    f"(expected a {modes_cls.__name__})"
                )
            own = keys.get(key)
            if own is not None and mode in own:
                # Already held: no other transaction can hold a mode that
                # conflicts with it, so the holder scan would find nothing.
                continue
            holders = held.get(key)
            if holders:
                bad = conflicts_with[mode]
                for other, modes in holders.items():
                    if other != tx and not bad.isdisjoint(modes):
                        return self._refuse(tx, holders, bad, ops, new_pairs)
            if own is None:
                if not keys:
                    self._by_tx[tx] = keys
                if holders is None:
                    holders = held[key] = {}
                keys[key] = holders[tx] = {mode}
            else:
                own.add(mode)
            new_pairs.append((key, mode))
        self.lock_ops += ops
        self._grants += len(new_pairs)
        return _NO_CONFLICTS, new_pairs

    def _refuse(
        self, tx: Hashable, holders: dict, bad: frozenset, ops: int, new_pairs: list
    ) -> tuple[set, list]:
        """:meth:`acquire`'s conflict exit: name every holder of a mode in
        ``bad``, count the ``ops`` requests examined, and release this
        call's grants again, newest first (Algorithm 3, line 12)."""
        conflicts = {
            other
            for other, modes in holders.items()
            if other != tx and not bad.isdisjoint(modes)
        }
        self.lock_ops += ops
        self._grants += len(new_pairs)
        for key, mode in reversed(new_pairs):
            self.release_one(key, tx, mode)
        return conflicts, []

    def try_acquire(self, key: LockKey, tx: Hashable, mode) -> tuple[set, bool]:
        """:meth:`acquire` of the single request ``(key, mode)``: returns
        ``(conflicts, is_new)``, ``is_new`` being True when the grant added
        a pair ``tx`` did not already hold."""
        conflicts, new_pairs = self.acquire(tx, (LockRequest(key, mode),))
        return conflicts, bool(new_pairs)

    # -- release -----------------------------------------------------------

    def release_one(self, key: LockKey, tx: Hashable, mode) -> None:
        """Release a single (key, mode) pair (used to back out an operation)."""
        self.lock_ops += 1
        try:
            own = self._by_tx[tx][key]
            own.remove(mode)
        except KeyError:
            raise LockError(f"{tx} does not hold {mode!r} on {key!r}") from None
        self._grants -= 1
        if not own:
            del self._by_tx[tx][key]
            del self._held[key][tx]
            if not self._by_tx[tx]:
                del self._by_tx[tx]
            if not self._held[key]:
                del self._held[key]

    def release_transaction(self, tx: Hashable) -> dict[LockKey, set]:
        """Release everything ``tx`` holds (strict 2PL: at commit/abort only).

        Returns what was released as ``{key: modes}``: the table's own map
        for ``tx``, handed over (the table keeps no reference to it, so the
        caller may change it), or a new empty dict if ``tx`` held nothing.
        """
        held = self._by_tx.pop(tx, None)
        if held is None:
            self.lock_ops += 1
            return {}
        self.lock_ops += max(1, len(held))
        _held = self._held
        released = 0
        for key, modes in held.items():
            released += len(modes)
            holders = _held[key]
            del holders[tx]
            if not holders:
                del _held[key]
        self._grants -= released
        return held

    # -- inspection ----------------------------------------------------------

    def holders(self, key: LockKey) -> dict[Hashable, frozenset]:
        return {tx: frozenset(modes) for tx, modes in self._held.get(key, {}).items()}

    def held_by(self, tx: Hashable) -> dict[LockKey, frozenset]:
        return {key: frozenset(modes) for key, modes in self._by_tx.get(tx, {}).items()}

    def transactions(self) -> set:
        return set(self._by_tx)

    def lock_count(self) -> int:
        """Total number of (key, tx, mode) grants currently held."""
        return self._grants

    def is_empty(self) -> bool:
        return not self._held

    def check_consistency(self) -> None:
        """Assert the two indexes mirror each other (used by tests)."""
        forward = {
            (key, tx, mode)
            for key, holders in self._held.items()
            for tx, modes in holders.items()
            for mode in modes
        }
        backward = {
            (key, tx, mode)
            for tx, keys in self._by_tx.items()
            for key, modes in keys.items()
            for mode in modes
        }
        if forward != backward:
            raise LockError("lock table indexes diverged")
        if len(forward) != self._grants:
            raise LockError(
                f"grant counter diverged: {self._grants} != {len(forward)}"
            )
