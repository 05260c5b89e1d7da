"""Lock request/specification value objects shared by protocols and managers.

A :class:`LockSpec` is the full set of locks one operation needs, computed by
a concurrency protocol *before* any lock is taken (so a failed acquisition
can back out cleanly, per Algorithm 3). ``nodes_visited`` meters how many
structure nodes the protocol examined to compute the spec — the simulation
charges CPU time for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

#: A lock key identifies one lockable structure node. Protocols choose the
#: key space: XDGL uses ``(doc_name, label_path)``, Node2PL uses
#: ``(doc_name, node_id)``, DocLock2PL uses ``(doc_name,)``.
LockKey = Hashable


@dataclass(frozen=True, slots=True)
class LockRequest:
    key: LockKey
    mode: object  # a member of the protocol's mode enum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LockRequest({self.key!r}, {getattr(self.mode, 'value', self.mode)})"


@dataclass
class LockSpec:
    """All locks one operation must hold, in acquisition order.

    ``transient_ops`` counts short-lived lock-manager operations (e.g. the
    navigation locks a DOM protocol acquires and releases *within* one
    operation under read-committed): they are charged as lock-management
    work by the cost model but are not retained, so they never block.
    """

    #: A list while the protocol builds the spec; a tuple on the
    #: deduplicated copy, which is shared — by retries of a blocked
    #: operation and, under XDGL, by every query of the same shape — and so
    #: must never change.
    requests: Sequence[LockRequest] = field(default_factory=list)
    nodes_visited: int = 0
    transient_ops: int = 0
    # Memoized deduplicated() result — specs are computed once and then
    # replayed on every retry of a blocked operation (and served from the
    # spec cache), so the dedup pass runs many times per spec. Invalidated
    # by add(); mutating ``requests`` directly after the first
    # deduplicated() call is unsupported.
    _dedup: "LockSpec | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, key: LockKey, mode) -> None:
        self.requests.append(LockRequest(key, mode))
        self._dedup = None

    def deduplicated(self) -> "LockSpec":
        """Drop repeated (key, mode) pairs, keeping first-occurrence order."""
        memo = self._dedup
        if memo is not None:
            return memo
        seen: set[tuple] = set()
        out: list[LockRequest] = []
        for req in self.requests:
            marker = (req.key, req.mode)
            if marker not in seen:
                seen.add(marker)
                out.append(req)
        memo = LockSpec(
            requests=tuple(out),
            nodes_visited=self.nodes_visited,
            transient_ops=self.transient_ops,
        )
        memo._dedup = memo  # a deduplicated spec is its own fixed point
        self._dedup = memo
        return memo

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)
