"""Transactions and operations.

A transaction is an ordered list of operations, each targeting one document
by name (queries are XPath expressions, updates are the five XDGL update
operations). Operations execute strictly in order; an operation executes at
*every* site holding a copy of its target document.

Transaction ids order by start timestamp — the distributed deadlock victim
rule ("the most recent transaction involved in the circle is rolled back")
is literally ``max(cycle)``. They are tuples, so the lock tables, wait
registries and wait-for graphs they key hash and compare them in C; their
``repr`` and their ordering are read by the schedule (see :class:`TxId`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Hashable, NamedTuple, Optional, Union

from ..update.operations import UPDATE_OP_TYPES, UpdateOperation
from ..xpath.ast import LocationPath
from ..xpath.parser import parse_xpath


class TxId(NamedTuple):
    """Globally unique transaction id, ordered by start time.

    A tuple, not a dataclass: a transaction id keys every lock table, wait
    registry and wait-for-graph set a transaction touches, so its hash and
    equality run on every lock event. On a tuple both run in C (and it
    equals a plain ``(site, seq, start_ts)`` tuple); a frozen dataclass
    would run a Python frame for each to compute the same
    ``hash((site, seq, start_ts))``. Two things here are read by the
    schedule and must not drift:

    * ``repr`` is the generated named-tuple form,
      ``TxId(site='s3', seq=5, start_ts=1.5)``. The detector's
      ``find_any_cycle`` orders roots and successors by ``repr``, so it
      decides which cycle is found and thus the victim.
    * Order is ``(start_ts, str(site), seq)``, not field order. A tuple
      subclass inherits all four native comparisons, which would compare
      ``site`` first; ``functools.total_ordering`` only fills in operators
      that are *missing*, so each one is defined here.
    """

    site: Hashable
    seq: int
    start_ts: float

    def _key(self) -> tuple:
        return (self.start_ts, str(self.site), self.seq)

    def __lt__(self, other: "TxId") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "TxId") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "TxId") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "TxId") -> bool:
        return self._key() >= other._key()

    def __str__(self) -> str:
        return f"t{self.seq}@{self.site}"


class OpKind(Enum):
    QUERY = "query"
    UPDATE = "update"


@dataclass
class Operation:
    """One step of a transaction, targeting one document."""

    doc_name: str
    kind: OpKind
    payload: Union[LocationPath, UpdateOperation]
    index: int = -1  # position within the transaction; set by Transaction
    executed: bool = False
    result: Any = None

    @classmethod
    def query(cls, doc_name: str, path: Union[str, LocationPath]) -> "Operation":
        if isinstance(path, str):
            path = parse_xpath(path)
        return cls(doc_name=doc_name, kind=OpKind.QUERY, payload=path)

    @classmethod
    def update(cls, doc_name: str, op: UpdateOperation) -> "Operation":
        if not isinstance(op, UPDATE_OP_TYPES):
            raise TypeError(f"not an update operation: {op!r}")
        return cls(doc_name=doc_name, kind=OpKind.UPDATE, payload=op)

    @property
    def is_update(self) -> bool:
        return self.kind is OpKind.UPDATE

    def payload_size(self) -> int:
        """Rough wire size of the operation (network cost model input).

        Rendered on the first call and kept: every message carrying the
        operation asks, and the payload never changes after construction.
        """
        try:
            return self._payload_size
        except AttributeError:
            size = self._payload_size = 64 + len(str(self.payload))
            return size

    def __str__(self) -> str:
        return f"[{self.kind.value} {self.doc_name}: {self.payload}]"


class TxState(Enum):
    PENDING = "pending"  # submitted, not yet scheduled
    ACTIVE = "active"  # executing operations
    WAITING = "waiting"  # blocked on locks
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTING = "aborting"
    ABORTED = "aborted"
    FAILED = "failed"  # abort itself failed at some site

TERMINAL_STATES = frozenset({TxState.COMMITTED, TxState.ABORTED, TxState.FAILED})


@dataclass
class TxStats:
    submitted_ts: float = 0.0
    started_ts: float = 0.0
    finished_ts: float = 0.0
    waits: int = 0  # times the transaction entered wait mode
    op_attempts: int = 0
    restarts: int = 0  # client resubmissions

    @property
    def response_ms(self) -> float:
        return self.finished_ts - self.submitted_ts


@dataclass
class Transaction:
    """A client transaction: ordered operations plus lifecycle state."""

    operations: list[Operation]
    client_id: Hashable = None
    label: str = ""
    tid: Optional[TxId] = None
    state: TxState = TxState.PENDING
    sites_involved: set = field(default_factory=set)
    stats: TxStats = field(default_factory=TxStats)
    abort_reason: str = ""

    def __post_init__(self) -> None:
        if not self.operations:
            raise ValueError("a transaction needs at least one operation")
        for i, op in enumerate(self.operations):
            op.index = i

    @property
    def is_update_transaction(self) -> bool:
        """Whether any operation is an update. Decided on the first call
        and kept: every routed query asks, and the operations never change."""
        try:
            return self._is_update
        except AttributeError:
            flag = self._is_update = any(op.is_update for op in self.operations)
            return flag

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def next_unexecuted(self) -> Optional[Operation]:
        for op in self.operations:
            if not op.executed:
                return op
        return None

    def reset_for_restart(self) -> "Transaction":
        """A fresh copy of this transaction for client resubmission."""
        ops = [
            Operation(doc_name=o.doc_name, kind=o.kind, payload=o.payload)
            for o in self.operations
        ]
        fresh = Transaction(operations=ops, client_id=self.client_id, label=self.label)
        fresh.stats.restarts = self.stats.restarts + 1
        return fresh

    def __str__(self) -> str:
        name = self.label or (str(self.tid) if self.tid else "tx")
        return f"{name}({len(self.operations)} ops, {self.state.value})"
