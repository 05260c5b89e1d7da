"""Messages exchanged between DTX instances.

The communication infrastructure added to XDGL for distribution (paper
modification (i)): remote operation execution, distributed commit/abort/fail,
wait-for-graph collection for deadlock detection, and wake notices when locks
are released.

Messages carry live Python objects (this is an in-process simulation); each
class reports a realistic ``size_bytes`` so the network model charges
plausible transfer times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from .transaction import Operation, TxId

_HEADER_BYTES = 48  # message envelope: ids, types, routing


@dataclass(slots=True)
class RemoteOpRequest:
    """Coordinator -> participant: execute one operation (Alg. 1 l. 13).

    ``incarnation`` is the coordinator's restart counter: a participant
    refuses to execute work queued by a coordinator that has since crashed
    (or crashed and restarted) — such a transaction would never be
    committed or aborted by anyone, leaking its locks and effects.
    """

    tid: TxId
    coordinator: Hashable
    op: Operation
    attempt: int  # retry counter; stale replies are dropped by attempt
    incarnation: int = 0
    # Parent span id (repro.obs, config.tracing): bookkeeping, not modeled
    # wire payload — excluded from size_bytes so traced and untraced runs
    # charge identical network costs.
    span: int = 0

    def size_bytes(self) -> int:
        return _HEADER_BYTES + self.op.payload_size()


@dataclass(slots=True)
class RemoteOpResult:
    """Participant -> coordinator: outcome of a remote operation (Alg. 2 l. 13)."""

    tid: TxId
    site: Hashable
    op_index: int
    attempt: int
    acquired: bool  # locks obtained?
    executed: bool  # data effect applied?
    deadlock: bool  # local wait-for cycle closed at the participant
    failed: bool  # execution error
    result_size: int = 0  # bytes of query answer shipped back
    # Follower-read fence (max_read_staleness_ms): the participant could
    # not bound its staleness against the primary and refused the read.
    # The coordinator re-routes to the primary instead of aborting.
    stale: bool = False

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 16 + self.result_size


@dataclass(slots=True)
class UndoOpRequest:
    """Coordinator -> participant: back out one executed operation

    (Alg. 1 l. 16: "undoes the actions on all sites where the operation was
    carried out")."""

    tid: TxId
    coordinator: Hashable
    op_index: int
    attempt: int
    span: int = 0  # parent span id (repro.obs); never counted in size_bytes

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 8


@dataclass(slots=True)
class UndoOpAck:
    tid: TxId
    site: Hashable
    op_index: int
    attempt: int

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 8


@dataclass(slots=True)
class CommitRequest:
    """Coordinator -> participant (Alg. 5 l. 4)."""

    tid: TxId
    coordinator: Hashable
    span: int = 0  # parent span id (repro.obs); never counted in size_bytes

    def size_bytes(self) -> int:
        return _HEADER_BYTES


@dataclass(slots=True)
class CommitAck:
    tid: TxId
    site: Hashable
    ok: bool

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 1


@dataclass(slots=True)
class AbortRequest:
    """Coordinator -> participant (Alg. 6 l. 4)."""

    tid: TxId
    coordinator: Hashable
    span: int = 0  # parent span id (repro.obs); never counted in size_bytes

    def size_bytes(self) -> int:
        return _HEADER_BYTES


@dataclass(slots=True)
class AbortAck:
    tid: TxId
    site: Hashable
    ok: bool

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 1


@dataclass(slots=True)
class ReplicaSyncBatch:
    """Record/apply committed update batches at a replica of one document.

    The one wire format for shipping committed updates to a replica,
    built in one place (``DTXSite._sync_batch``). Sent during commit under
    the eager and quorum regimes (before the primary's locks are released
    — the primary's lock table therefore orders the sync streams of
    conflicting writers): a coordinator's sync outbox for a (document,
    primary) pair turns the transactions that reach commit before it
    flushes into one of these per target, so an uncontended commit is a
    batch of one and ``group_commit_window_ms`` only decides how long the
    outbox waits for company. Also pushed off the primary's update stream
    to the live secondaries, ``LAZY_STALENESS_MS`` after the first entry
    of a burst, for the entries no sync round ships: lazy commits, and
    effects kept or orphan-committed under the eager and quorum regimes.
    The receiving replica ingests every entry in LSN order and answers
    with a single :class:`ReplicaSyncBatchAck` — one network round shared
    by the whole batch (the lazy push registers no round for it).

    ``entries`` are :class:`~repro.distribution.replication.UpdateLogEntry`
    values (``ops`` in transaction order). Their ``lsn``/``epoch`` make
    the apply idempotent and fenced: a replica skips entries at or below
    its applied LSN (replaying the same entry twice leaves one copy),
    pulls missing entries from the primary when it sees a gap, and
    refuses entries stamped with an epoch older than the current primary
    election (a deposed primary cannot overwrite the new timeline).
    ``log_only`` marks the copy sent to the document's *primary* when the
    coordinator is elsewhere: the primary executed the updates already
    and only needs the log entries recorded. A ``log_only`` entry with
    ``lsn=0`` asks the primary to *assign* the LSN at record time:
    allocation and recording are then atomic at the primary, so a batch
    lost in flight can never orphan an allocated slot and punch a
    permanent hole into the primary's log.
    """

    coordinator: Hashable
    doc_name: str
    batch_id: int
    log_only: bool = False
    entries: list = field(default_factory=list)  # UpdateLogEntry, LSN order
    span: int = 0  # parent span id (repro.obs); never counted in size_bytes

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 16 + sum(e.payload_size() for e in self.entries)


@dataclass(slots=True)
class ReplicaSyncBatchAck:
    """One ack for a whole ReplicaSyncBatch, with per-transaction results.

    ``results`` maps each entry's tid to ``(ok, reason)`` — reason is
    'stale-epoch' | 'refused' | 'gap' | 'not-hosted' | 'finished' when not
    ok — so the outbox can settle every waiting coordinator individually
    (one refused entry must not fail its batch-mates). ``assigned`` maps
    tids to primary-assigned LSNs when the batch carried ``lsn=0`` entries.
    """

    site: Hashable
    doc_name: str
    batch_id: int
    results: dict = field(default_factory=dict)  # tid -> (ok, reason)
    assigned: dict = field(default_factory=dict)  # tid -> recorded lsn

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 8 + 9 * max(1, len(self.results)) + 8 * len(self.assigned)


@dataclass(slots=True)
class FailNotice:
    """Coordinator -> all involved sites: transaction failed (Alg. 6 l. 7).

    A receiving site that still holds the transaction keeps its effects
    and writes them through to storage. ``persist`` is set when the
    failure happened *after* the replica sync: the site then also logs
    them, so primary and secondaries stay durably identical.
    """

    tid: TxId
    persist: bool = False

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 1


@dataclass(slots=True)
class HeartbeatMessage:
    """Site -> every other site: I am alive (``failure_detector="lease"``).

    The carrier of all lease-mode membership facts. ``incarnation`` lets
    receivers fence work queued by earlier lives of the sender;
    ``watermarks`` maps each replicated document the sender hosts to its
    applied-LSN watermark (what log compaction at the primary is based
    on); ``views`` maps each such document to the sender's
    ``(epoch, primary)`` belief, so election outcomes keep disseminating
    after the one-shot :class:`PrimaryAnnounce` (a site partitioned away
    during the announce learns the new primary from the first heartbeat
    that reaches it).
    """

    sender: Hashable
    incarnation: int = 0
    seq: int = 0
    watermarks: dict = field(default_factory=dict)  # doc_name -> applied_lsn
    views: dict = field(default_factory=dict)  # doc_name -> (epoch, primary)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 12 + 16 * len(self.watermarks) + 20 * len(self.views)


@dataclass(slots=True)
class LogTipQuery:
    """Elector -> every replica holder: report your log tip for ``doc_name``.

    The first half of the over-the-wire election round
    (``failure_detector="lease"``). ``epoch`` is the elector's current
    view — candidates answering with a newer view reveal a finished
    election the elector missed.
    """

    doc_name: str
    elector: Hashable
    election_id: int
    epoch: int

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 16


@dataclass(slots=True)
class LogTipReport:
    """Candidate -> elector: my durable log tip for ``doc_name``.

    A report from the *suspected primary itself* is proof of life and
    cancels the election (false suspicion). ``epoch`` is the candidate's
    view epoch — a report carrying a newer epoch than the elector's view
    means the election already happened elsewhere.
    """

    doc_name: str
    site: Hashable
    election_id: int
    applied_lsn: int
    max_recorded_lsn: int
    epoch: int

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 28


@dataclass(slots=True)
class PrimaryAnnounce:
    """New primary -> every site: I lead ``doc_name`` under ``epoch`` now.

    The election result as a message. Receivers apply it to their own
    catalog view iff ``epoch`` is newer than what they believe (stale
    announces of older elections are ignored), then nudge their catch-up
    if they host the document — the new primary may hold batches the old
    one never shipped to them.
    """

    doc_name: str
    primary: Hashable
    epoch: int
    announcer: Hashable = None

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 16


@dataclass(slots=True)
class SiteDownNotice:
    """Failure monitor -> every live site: ``site`` crashed.

    The perfect-failure-detector assumption of the simulated LAN: crashes
    are detected and announced within one network hop. Receivers unstick
    coordinators waiting on the dead site, resolve orphaned transactions it
    coordinated, and wake local waiters (its locks died with it).
    """

    site: Hashable

    def size_bytes(self) -> int:
        return _HEADER_BYTES


@dataclass(slots=True)
class SiteUpNotice:
    """Failure monitor -> every live site: ``site`` recovered.

    Receivers hosting a document whose *primary* just came back nudge
    their own catch-up for it — the recovery window may have swallowed
    their earlier attempts (anti-entropy closure for the event-driven
    healing triggers)."""

    site: Hashable

    def size_bytes(self) -> int:
        return _HEADER_BYTES


@dataclass(slots=True)
class CatchUpRequest:
    """Recovering/lagging replica -> primary: send me what I missed.

    ``after_lsn``/``last_epoch`` describe the requester's log tip. The
    primary answers with the missing log entries, or with a full snapshot
    when the requester's tip is not on the primary's timeline (it applied
    writes of a deposed primary) or predates the primary's own log base.
    """

    doc_name: str
    requester: Hashable
    req_id: int
    after_lsn: int
    last_epoch: int

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 24


@dataclass(slots=True)
class CatchUpResponse:
    """Primary -> recovering replica: log suffix or full snapshot."""

    doc_name: str
    req_id: int
    entries: list = field(default_factory=list)  # UpdateLogEntry, LSN order
    # When diverged: a private copy of the primary's committed tree
    # (``DataManager.snapshot``) and its serialized length in bytes, which
    # is what the wire carries and the receiver is charged for.
    snapshot: Any = None  # Document
    snapshot_size: int = 0
    snapshot_lsn: int = 0
    snapshot_epoch: int = 0
    ok: bool = True  # False: requester should retry later (e.g. mid-election)

    def size_bytes(self) -> int:
        return (
            _HEADER_BYTES + 16 + self.snapshot_size
            + sum(e.payload_size() for e in self.entries)
        )


@dataclass(slots=True)
class VersionProbe:
    """Quorum-read coordinator -> replicas: report your version for
    ``doc_name`` (``replica_read_policy="quorum"``).

    The first half of a versioned quorum read. Probes fan to every live
    replica and the round settles on the first R reports (speculative
    fan-out: a slow or cut replica never gates the read). Probes are tiny
    (no lock is taken, no document is touched); the responses tell the
    coordinator which replica provably holds every committed write, so
    the query itself is then shipped to exactly one site.
    """

    doc_name: str
    reader: Hashable
    probe_id: int

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 8


@dataclass(slots=True)
class VersionReport:
    """Replica -> quorum-read coordinator: my durable log position.

    ``applied_lsn`` is the gapless watermark (every batch at or below it
    is applied); ``max_recorded_lsn`` the highest LSN recorded at all —
    the spread between them is racing commuting batches still in flight.
    ``epoch`` is the epoch at the responder's *log tip* — the timeline
    its data actually belongs to — so a deposed primary's fenced tail
    ranks below the re-elected timeline even after the deposed site has
    adopted the new election in its view.
    """

    doc_name: str
    site: Hashable
    probe_id: int
    applied_lsn: int
    max_recorded_lsn: int
    epoch: int

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 28


@dataclass(slots=True)
class ReadRepairNudge:
    """Quorum-read coordinator -> lagging replica: you are behind, heal.

    Sent to every probe responder whose version trailed the frontier the
    probe round established. The receiver verifies it is still behind
    ``(epoch, target_lsn)`` and pulls the gap from its primary through
    the ordinary catch-up path — read repair reuses anti-entropy, it does
    not ship data itself.
    """

    doc_name: str
    target_lsn: int
    epoch: int

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 16


@dataclass(slots=True)
class WakeNotice:
    """Participant -> coordinator: locks were released, retry waiting tx."""

    tid: TxId
    site: Hashable

    def size_bytes(self) -> int:
        return _HEADER_BYTES


@dataclass(slots=True)
class WfgRequest:
    """Detector -> every site: send me your wait-for graph (Alg. 4 l. 4)."""

    requester: Hashable

    def size_bytes(self) -> int:
        return _HEADER_BYTES


@dataclass(slots=True)
class WfgResponse:
    site: Hashable
    edges: list = field(default_factory=list)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 24 * len(self.edges)


@dataclass(slots=True)
class AbortOrder:
    """Detector -> victim's coordinator site: roll back this transaction

    (Alg. 4 l. 7-8: "the most recently started transaction is rolled back")."""

    tid: TxId
    reason: str = "distributed-deadlock"

    def size_bytes(self) -> int:
        return _HEADER_BYTES + len(self.reason)


@dataclass(slots=True)
class ClientRequest:
    """Client -> local DTX Listener: run this transaction."""

    transaction: Any  # Transaction (typed loosely to avoid import cycles)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 96 * len(self.transaction.operations)


@dataclass(slots=True)
class TxOutcome:
    """Listener -> client: final status of a submitted transaction."""

    tid: TxId
    status: str  # 'committed' | 'aborted' | 'failed'
    reason: str = ""
    submitted_ts: float = 0.0
    finished_ts: float = 0.0

    def size_bytes(self) -> int:
        return _HEADER_BYTES + len(self.reason)

    @property
    def committed(self) -> bool:
        return self.status == "committed"


# ----------------------------------------------------------------------
# materialized views (repro.views)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ViewDeltaBatch:
    """Primary -> view host: committed log entries since the last push.

    The view host's share of the primary's update stream, sent every
    ``view_refresh_ms`` by the same push that ships the lazy
    :class:`ReplicaSyncBatch` (``DTXSite._push``): entries are committed
    ``UpdateLogEntry`` objects in LSN order, ``watermark`` is the
    primary's gapless ``applied_lsn`` at push time. An *empty* batch is a
    freshness beacon — it proves the host's shadow still matches the
    primary up to ``watermark``, so idle documents stay serveable within
    the staleness bound. ``epoch`` fences pushes from deposed primaries.
    The two fields are why this stays its own class: it is 8 bytes longer
    on the wire than a replica batch, so folding the two is a framing
    change that moves schedules.
    """

    primary: Hashable
    doc_name: str
    batch_id: int
    epoch: int
    watermark: int
    entries: list = field(default_factory=list)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 24 + sum(e.payload_size() for e in self.entries)


@dataclass(slots=True)
class ViewFetchRequest:
    """View host -> primary: send me a committed snapshot to (re)materialize."""

    doc_name: str
    requester: Hashable
    req_id: int

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 16


@dataclass(slots=True)
class ViewFetchResponse:
    """Primary -> view host: committed state + its log position.

    ``ok=False`` when the responder no longer leads the document (or holds
    recording gaps); the host simply retries on the next delta that needs
    hydration. ``snapshot_epoch`` is the primary's *current* epoch for the
    document, so subsequent same-epoch deltas apply without a spurious
    re-hydration cycle.
    """

    doc_name: str
    req_id: int
    snapshot: Any = None  # Document: a private copy, as in CatchUpResponse
    snapshot_size: int = 0  # its serialized length in bytes
    snapshot_lsn: int = 0
    snapshot_epoch: int = 0
    ok: bool = True

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 16 + self.snapshot_size


@dataclass(slots=True)
class ViewReadRequest:
    """Coordinator -> view host: answer this read-only query from the view.

    ``epoch`` is the coordinator's catalog epoch for the document — the
    host refuses on mismatch in either direction, so a fenced shadow never
    serves and a stale coordinator never trusts a newer timeline blindly.
    ``bound_ms`` is the transaction's effective staleness bound.
    """

    tid: TxId
    coordinator: Hashable
    op: Operation
    read_id: int
    epoch: int
    bound_ms: float
    span: int = 0  # parent span id (repro.obs); never counted in size_bytes

    def size_bytes(self) -> int:
        return _HEADER_BYTES + self.op.payload_size()


@dataclass(slots=True)
class ViewReadResult:
    """View host -> coordinator: the view answer (or a refusal).

    Any ``ok=False`` makes the coordinator fall back to the locked path;
    ``reason`` distinguishes not-hydrated, epoch-fenced and stale refusals
    for the stats. ``staleness_ms`` is the shadow's age at serve time and
    ``lsn`` the committed-log prefix the answer observed.
    """

    tid: TxId
    read_id: int
    site: Hashable
    ok: bool
    reason: str = ""
    result_size: int = 0
    staleness_ms: float = 0.0
    lsn: int = 0

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 24 + self.result_size + len(self.reason)

