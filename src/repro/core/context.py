"""Per-site, per-transaction bookkeeping.

A :class:`SiteTxContext` exists at every site where a transaction has
executed at least one operation: it owns, per operation, the change records
it made (the DataManager reverts them on rollback, and the reverse records
re-sync the DataGuide) and the lock pairs it newly acquired (so a *single*
operation can be backed out when it fails to lock at a sibling site, per
Algorithm 1 l. 16).

A :class:`CoordinatorRecord` exists only at the coordinator site and tracks
the in-flight protocol state of Algorithm 1: the current attempt number, the
one reply round in flight (an operation's participant responses, or the acks
of an undo/commit/abort round — a :class:`~repro.core.rounds.Round`), and the
wake/abort signalling used when the transaction is in wait mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from ..update.operations import AppliedChange
from .rounds import Round
from .transaction import Operation, OpKind, Transaction, TxId


@dataclass
class OpEntry:
    """What one executed operation did at this site."""

    doc_name: str
    changes: list[AppliedChange] = field(default_factory=list)  # in order made
    lock_pairs: list = field(default_factory=list)  # (key, mode) newly granted
    executed: bool = False
    op: Optional[Operation] = None  # the operation itself (update logging)
    result_size: int = 0  # query answer bytes (replayed on duplicate delivery)


@dataclass
class SiteTxContext:
    tid: TxId
    coordinator: Hashable
    op_entries: dict[int, OpEntry] = field(default_factory=dict)
    # Set when this site learned the transaction's updates were replicated
    # to the secondaries (it received the log-entry record): if the
    # coordinator then dies, the orphan resolves to commit, never to an
    # undo that would diverge from the already-synced secondaries.
    synced: bool = False
    # Documents whose changes were already settled into this site's
    # committed state during the replica sync — the commit only persists.
    stable_applied: set = field(default_factory=set)
    # op.index -> (structure version, LockSpec): the spec a blocked
    # operation computed, reused on retry while the protocol's structure
    # summary is unchanged (same non-None ``structure_version``). The
    # cached spec keeps its nodes_visited meter, so retries are charged
    # identical simulated cost.
    spec_cache: dict = field(default_factory=dict)

    def touched_doc_names(self) -> list[str]:
        """Documents with data effects at this site (need persisting/undo)."""
        out: list[str] = []
        for idx in sorted(self.op_entries):
            entry = self.op_entries[idx]
            if entry.changes and entry.doc_name not in out:
                out.append(entry.doc_name)
        return out

    def changes_on(self, doc_name: str) -> list[AppliedChange]:
        """The change records this transaction made on ``doc_name`` here."""
        return [
            change
            for entry in self.op_entries.values()
            if entry.doc_name == doc_name
            for change in entry.changes
        ]

    def executed_updates_by_doc(self) -> dict[str, list[Operation]]:
        """Executed update operations at this site, per document, in order."""
        out: dict[str, list[Operation]] = {}
        for idx in sorted(self.op_entries):
            entry = self.op_entries[idx]
            if entry.executed and entry.op is not None and entry.op.kind is OpKind.UPDATE:
                out.setdefault(entry.doc_name, []).append(entry.op)
        return out


class _AbortTx(Exception):
    """Internal control flow: unwind Algorithm 1 into the abort procedure."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _SiteCrashed(Exception):
    """Internal control flow: the site died under a running coordinator.

    The crash already delivered the client outcome and wiped the volatile
    state; the coordinator generator must stop without touching anything.
    """


@dataclass
class CoordinatorRecord:
    tx: Transaction
    tid: TxId
    deliver: Callable[[Any], None]  # called with the TxOutcome at the end

    # wake signalling (wait mode)
    wake_event: Optional[Any] = None
    wake_pending: bool = False

    # abort signalling (deadlock detector / timeouts)
    abort_requested: bool = False
    abort_reason: str = ""

    # The reply round in flight: an operation's responses (tagged with
    # its attempt number, which fences replies of superseded attempts) or
    # an undo / commit / abort round's acks (tagged with that phase). One
    # at a time, None between rounds; the commit-time replica sync runs
    # its own rounds per batch.
    attempt: int = 0
    round: Optional[Round] = None

    # Documents whose routed secondary refused a read as unboundably stale
    # (max_read_staleness_ms): the retry re-routes these to the primary.
    stale_read_docs: set = field(default_factory=set)

    # documents this transaction has updated (primary-copy ROWA pins
    # subsequent reads of them to the primary: read-your-writes)
    written_docs: set = field(default_factory=set)

    # doc -> sites where its updates executed; at commit the sync layer
    # verifies the executing site still is the live primary (a promotion in
    # between means the uncommitted effects died with the old primary)
    write_sites: dict = field(default_factory=dict)

    # set once a secondary durably applied the commit-time sync; past this
    # point the updates are durable beyond the primary and the transaction
    # can no longer be undone (it fails instead of aborting)
    synced: bool = False

    # set when the commit round partially applied — some participant
    # committed (or crashed mid-round, ambiguously) while another refused
    # or died. A clean abort would lie to the client; the transaction
    # degrades to fail-with-state-kept instead.
    partial_commit: bool = False

    # sites where an operation of this transaction completed (locks held /
    # data effects present): a crash of any of them voids the transaction
    executed_sites: set = field(default_factory=set)

    # operations answered by a materialized-view host: the host never joins
    # the transaction, so when *every* operation was view-served the commit
    # is pure bookkeeping — no locks to release, no 2PC round to run
    view_served_ops: int = 0

    # Open span ids at this coordinator (repro.obs, config.tracing): the
    # transaction's root span, the current operation round's span, and the
    # current operation's blocked-period span (one lock_wait span per
    # blocked period — it is *extended* across spurious wakes and retry
    # rounds rather than re-opened, so wasted wake churn reads as lock
    # wait, not coordinator work). All stay 0 when tracing is off.
    root_span: int = 0
    op_span: int = 0
    wait_span: int = 0
