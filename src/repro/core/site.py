"""A DTX instance: Listener + TransactionManager (Scheduler, LockManager) +
DataManager, at one site.

The architecture follows Fig. 1 of the paper:

* the **Listener** role is the site's dispatch function, which its network
  inbox calls once per client request or inter-scheduler message, in
  arrival order (no process of its own: see :class:`~repro.sim.queues.Inbox`);
* the **Scheduler** role is split between (a) one coordinator coroutine per
  locally submitted transaction (Algorithm 1, plus commit/abort procedures,
  Algorithms 5–6) and (b) a participant loop executing remote operations in
  arrival order (Algorithm 2);
* the **LockManager** holds the protocol's lock table plus the site's
  wait-for graph and implements Algorithm 3;
* the **DataManager** bridges the in-memory documents and the storage
  backend.

Every log append goes through ``_record``, which feeds the update stream's
subscribers, each on its own path: the sync and lazy outboxes here, the
view hosts through :class:`~repro.views.ViewManager` (``self.views``),
which holds the view subsystem and is called through hooks only.

All CPU work is charged to the simulated clock through the cost model in
:class:`repro.config.CostConfig`; all remote interaction flows through
:class:`repro.sim.network.Network`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from inspect import isgeneratorfunction
from operator import attrgetter
from typing import Callable, Hashable, Optional

from ..config import (
    CATCHUP_TIMEOUT_MS,
    ELECTION_TIMEOUT_MS,
    HEARTBEAT_INTERVAL_MS,
    LAZY_STALENESS_MS,
    SystemConfig,
)
from ..deadlock.wfg import WaitForGraph
from ..distribution.quorum import VersionVector, choose_read_replica, version_frontier
from ..distribution.replication import ReplicationPolicy, UpdateLog, UpdateLogEntry
from ..errors import ReproError, UpdateError
from ..locking.manager import LockManager
from ..locking.table import LockTable
from ..protocols.base import ConcurrencyProtocol
from ..sim.environment import Environment
from ..sim.network import Network
from ..sim.queues import Inbox, Store
from ..sim.rng import substream
from ..storage.datamanager import DataManager
from ..storage.memory import InMemoryStore
from ..update.applier import apply_charged
from ..views import ViewManager
from ..xml.model import Document, Element

# Not called here. Kept as a module global because the dtxbench span
# harness's self-test rebinds and calls it through this module.
from ..xml.serializer import serialize_document  # noqa: F401
from ..xpath.evaluator import EvalStats, evaluate
from .context import CoordinatorRecord, OpEntry, SiteTxContext, _AbortTx, _SiteCrashed
from .faults import MembershipService, SiteMembership
from .messages import (
    AbortAck,
    AbortOrder,
    AbortRequest,
    CatchUpRequest,
    CatchUpResponse,
    ClientRequest,
    CommitAck,
    CommitRequest,
    FailNotice,
    HeartbeatMessage,
    LogTipQuery,
    LogTipReport,
    PrimaryAnnounce,
    ReadRepairNudge,
    RemoteOpRequest,
    RemoteOpResult,
    ReplicaSyncBatch,
    ReplicaSyncBatchAck,
    SiteDownNotice,
    SiteUpNotice,
    TxOutcome,
    UndoOpAck,
    UndoOpRequest,
    VersionProbe,
    VersionReport,
    ViewDeltaBatch,
    ViewReadRequest,
    ViewReadResult,
    WakeNotice,
    WfgRequest,
    WfgResponse,
)
from .rounds import NEVER, Round
from .transaction import Operation, OpKind, Transaction, TxId, TxState


#: The ack round (by its tag) each ack class answers.
_ACK_PHASE = {UndoOpAck: "undo", CommitAck: "commit", AbortAck: "abort"}

#: Reply classes answered through the site's round registry, with the field
#: that names their round.
_ROUND_ID = {
    ReplicaSyncBatchAck: attrgetter("batch_id"),
    VersionReport: attrgetter("probe_id"),
    LogTipReport: attrgetter("election_id"),
    CatchUpResponse: attrgetter("req_id"),
    ViewReadResult: attrgetter("read_id"),
}

#: Root element of the placeholder a joining replica hosts until its first
#: snapshot transfer arrives (never queried: quorum probes rank the empty
#: log last, and primary-copy routing never prefers a brand-new secondary).
MIGRATION_PLACEHOLDER = "migration-placeholder"


@dataclass
class LocalResult:
    """Outcome of executing one operation against this site's lock manager."""

    acquired: bool
    executed: bool = False
    deadlock: bool = False
    failed: bool = False
    result_size: int = 0
    cost_ms: float = 0.0


@dataclass
class SiteStats:
    ops_executed: int = 0
    ops_blocked: int = 0
    local_deadlocks: int = 0
    remote_ops_served: int = 0
    commits: int = 0
    aborts: int = 0
    fails: int = 0
    wake_notices_sent: int = 0
    waiter_wakes: int = 0  # waiters woken at this site (local + remote)
    spec_cache_hits: int = 0  # retries that reused a cached LockSpec
    group_batches_sent: int = 0  # commit-time ReplicaSyncBatch messages sent from here
    group_batched_syncs: int = 0  # per-tx, per-document syncs shipped at commit time
    undo_ops: int = 0
    coordinated: int = 0
    peak_lock_count: int = 0
    replica_syncs_served: int = 0  # sync entries recorded/applied at this site
    reads_routed: int = 0  # queries this coordinator routed to one replica
    crashes: int = 0
    recoveries: int = 0
    catchups: int = 0  # catch-up rounds completed (recovery or gap healing)
    catchup_entries_replayed: int = 0
    catchup_snapshots: int = 0  # divergent logs healed by state transfer
    syncs_refused: int = 0  # stale-epoch / fault-hook sync refusals served
    lazy_batches_propagated: int = 0  # lazy ReplicaSyncBatch messages sent
    lazy_entries_coalesced: int = 0  # log entries x lazy batches that carried them
    orphans_resolved: int = 0  # transactions of dead coordinators settled
    # Lease-mode membership (failure_detector="lease").
    heartbeats_sent: int = 0
    suspicions: int = 0  # peers whose lease expired at this site
    false_suspicions: int = 0  # suspected peers that turned out alive
    elections_started: int = 0
    elections_won: int = 0  # this site assumed primacy of a document
    elections_no_quorum: int = 0  # rounds abandoned for lack of a majority
    announces_applied: int = 0  # newer (epoch, primary) facts adopted
    lease_refusals: int = 0  # writes refused for want of a primacy lease
    log_entries_compacted: int = 0  # entries checkpointed out of UpdateLogs
    # Quorum replication (replica_read_policy / replica_write_policy = "quorum").
    quorum_reads: int = 0  # queries resolved through a version-probe round
    version_probes_sent: int = 0
    version_reports_served: int = 0
    read_repairs_sent: int = 0  # laggards this coordinator nudged to heal
    read_repairs_received: int = 0  # nudges that actually triggered catch-up
    sync_acks_awaited: int = 0  # ok remote acks counted at quorum-commit time
    quorum_read_retries: int = 0  # probe rounds re-run (silent/short reports)
    # Online migration (distribution.migration.MigrationManager).
    migrations_admitted: int = 0  # placeholder replicas adopted (join phase)
    migrations_retired: int = 0  # replica copies dropped (retire phase)
    # XPath parse memo (process-wide LRU): snapshots of the global counters,
    # taken when the cluster collects its results — read the max across
    # sites, not the sum.
    parse_cache_hits: int = 0
    parse_cache_misses: int = 0
    # Materialized views (repro.views; routed when view_staleness_ms > 0).
    view_reads_routed: int = 0  # read ops this coordinator answered from a view
    view_read_fallbacks: int = 0  # view rounds refused/timed out -> locked path
    view_reads_served: int = 0  # ViewReadRequests this host answered ok
    view_stale_refusals: int = 0  # serves refused: staleness bound exceeded
    view_epoch_refusals: int = 0  # serves refused: epoch mismatch (fenced)
    view_fenced_deltas: int = 0  # delta batches dropped: older epoch
    view_deltas_applied: int = 0  # log entries applied to hosted shadows
    view_delta_batches: int = 0  # ViewDeltaBatch messages pushed from here
    view_deltas_coalesced: int = 0  # log entries that rode a pushed batch
    view_hydrations: int = 0  # snapshot (re)materializations at this host
    view_staleness_sum_ms: float = 0.0  # summed staleness at serve time


#: SiteStats fields that are *snapshots* of process-global counters (the
#: XPath parse memo) or high-water marks: run totals take the max across
#: sites, never the sum.
SNAPSHOT_STAT_FIELDS = frozenset(
    {
        "parse_cache_hits",
        "parse_cache_misses",
        "peak_lock_count",
    }
)


def aggregate_site_stats(stats) -> dict:
    """Cluster-wide totals for every :class:`SiteStats` field.

    Driven by ``dataclasses.fields`` so a new counter automatically shows
    up in every report built on this — reporting code must not hand-copy
    the field list (it silently drifts when fields are added). Snapshot
    and high-water fields (:data:`SNAPSHOT_STAT_FIELDS`) aggregate as the
    max across sites; everything else sums.
    """
    stats = list(stats)
    totals: dict = {}
    for f in dataclasses.fields(SiteStats):
        values = [getattr(s, f.name) for s in stats]
        if f.name in SNAPSHOT_STAT_FIELDS:
            totals[f.name] = max(values, default=0)
        else:
            totals[f.name] = sum(values)
    return totals


class DTXSite:
    def __init__(
        self,
        env: Environment,
        network: Network,
        site_id: Hashable,
        protocol: ConcurrencyProtocol,
        backend: InMemoryStore,
        catalog,
        config: SystemConfig,
        faults: MembershipService,
        replication: Optional[ReplicationPolicy] = None,
    ):
        self.env = env
        self.network = network
        self.site_id = site_id
        self.protocol = protocol
        self.catalog = catalog
        self.config = config
        self.costs = config.costs
        self.replication = replication or ReplicationPolicy.from_config(config)
        self._route_rng = substream(config.seed, "route", str(site_id))

        self.inbox: Inbox = network.register(site_id)
        self.data_manager = DataManager(backend)
        self.wfg = WaitForGraph()
        self.lock_manager = LockManager(LockTable(protocol.matrix), self.wfg)

        self.tx_contexts: dict[TxId, SiteTxContext] = {}
        self.coordinators: dict[TxId, CoordinatorRecord] = {}
        self.finished: set[TxId] = set()
        # Conflict-indexed wait registry: waiting tid -> (coordinator site,
        # the (key, mode) pairs its blocked operation requested). A release
        # wakes only the waiters with a requested pair that is
        # *incompatible* with something actually released — a merely
        # shared key (e.g. the root's intention locks, which every
        # operation touches in compatible modes) wakes nobody.
        self.waiters: dict[TxId, tuple[Hashable, frozenset]] = {}
        # Locks released outside end-of-transaction (single-operation undo
        # backs locks out without waking anyone, per the paper's
        # end-of-transaction wake rule), as key -> set of modes. They are
        # folded into the *next* end-of-transaction wake sweep so the
        # wake-up owed for them is not lost.
        self._deferred_wake_keys: dict = {}
        # The update stream's staging areas, one table per subscriber
        # (the view hosts' are the ViewManager's). Commit-time sync batches
        # by (document, primary), items (rec, ops, waiter); the committed
        # entries no sync round ships, for the lazy secondaries, by
        # document. Each box is flushed, and closed, once after its delay.
        self._sync_outboxes: dict[tuple, list] = {}
        self._lazy_outboxes: dict[str, list] = {}
        # In-flight reply rounds other than a coordinator's op/ack round
        # (that one is ``CoordinatorRecord.round``), by the id their reply
        # messages carry. One counter numbers them, and the unacknowledged
        # lazy and view batches too, so no reply can reach a wrong round.
        self._rounds: dict[int, Round] = {}
        self._round_seq = 0
        self.remote_ops: Store = Store(env)
        self._tx_seq = 0
        self.stats = SiteStats()
        self.detector = None  # attached by the cluster on one site
        # Span recorder (repro.obs), shared cluster-wide and attached by
        # the cluster when config.tracing is on. None keeps every
        # instrumentation point a single falsy attribute check.
        self.tracer = None

        # Fault tolerance. ``alive`` gates every externally visible effect;
        # ``logs`` is the durable per-document update log (survives crashes,
        # like the storage backend); ``faults`` is the cluster's
        # MembershipService.
        self.alive = True
        self.incarnation = 0  # bumped on every recovery; fences stale work
        self.faults = faults
        self.logs: dict[str, UpdateLog] = {}
        self._catchup_gates: dict[str, object] = {}  # doc -> Event while catching up

        # Fault-injection hooks for testing the abort/fail/crash paths:
        # tids (or '*') whose commit/abort/replica-sync requests this site
        # will refuse, and labeled points at which it will crash itself.
        self.refuse_commit: set[TxId | str] = set()
        self.refuse_abort: set[TxId | str] = set()
        self.refuse_sync: set[TxId | str] = set()
        self.crash_points: set[str] = set()

        # Lease-based membership (failure_detector="lease"): this site's
        # own lease table plus election bookkeeping. ``None`` under the
        # perfect detector — no heartbeat processes run, no extra messages
        # or RNG draws happen.
        self.membership: Optional[SiteMembership] = None
        self._elections: dict[str, int] = {}  # doc -> active election id
        self._heartbeat_seq = 0
        # Per peer, the views of the last heartbeat whose facts this site
        # adopted. Epochs only grow and the catalog view outlives a crash,
        # so a fact adopted or found stale once is stale for good: equal
        # views carry nothing to adopt.
        self._views_heard: dict = {}
        # Materialized views (repro.views): pushing to view hosts, hosting
        # shadows and routing reads are all the ViewManager's.
        self.views = ViewManager(self)

        self._handlers = self._dispatch_table()
        self.inbox.serve(self._dispatch)
        env.process(self._participant_loop())
        if config.failure_detector == "lease":
            self.membership = SiteMembership(lease_timeout_ms=config.lease_timeout_ms)
            env.process(self._heartbeat_loop())
            env.process(self._lease_check_loop())

    # ------------------------------------------------------------------
    # document loading
    # ------------------------------------------------------------------

    def host_document(self, doc: Document, text: Optional[str] = None) -> None:
        """Install a document copy at this site (storage + memory + protocol);
        ``text`` is its rendering, if the caller has one."""
        self.data_manager.install(doc, text)
        self.protocol.register_document(doc)

    def documents_hosted(self) -> list[str]:
        return self.data_manager.live_documents()

    # ------------------------------------------------------------------
    # migration hooks (driven by distribution.migration.MigrationManager)
    # ------------------------------------------------------------------

    def adopt_placeholder(self, doc_name: str) -> None:
        """Host an empty stand-in for a document migrating to this site.

        The placeholder makes the site a (far-behind) replica: its log is
        empty, so the first catch-up round pulls a full snapshot from the
        primary, and commit-time sync batches land here from the moment
        the placement includes this site (the dual-write window).
        """
        if self.data_manager.is_loaded(doc_name):
            return
        self.host_document(Document(doc_name, Element(MIGRATION_PLACEHOLDER)))
        self.stats.migrations_admitted += 1

    def holds_placeholder(self, doc_name: str) -> bool:
        """Whether this site's copy is still the migration stand-in.

        Detected structurally (by the root element) rather than tracked,
        so the answer survives a crash+recovery of the joining site: the
        reloaded placeholder still *is* a placeholder, and every catch-up
        keeps escalating to a snapshot until real state lands.
        """
        if not self.data_manager.is_loaded(doc_name):
            return False
        root = self.data_manager.document(doc_name).root
        return root is not None and root.tag == MIGRATION_PLACEHOLDER

    def drop_document(self, doc_name: str) -> None:
        """Remove this site's copy of ``doc_name`` (migration retire).

        Live tree, its in-flight change records, persisted state and
        update log all go; the protocol's structure summary keeps a stale
        registration that no routed operation will ever touch (the
        placement no longer names this site).
        """
        self.data_manager.drop(doc_name)
        self.logs.pop(doc_name, None)
        self.stats.migrations_retired += 1

    def has_active_work_on(self, doc_name: str) -> bool:
        """Whether any in-flight transaction touched ``doc_name`` here.

        Migration retire waits for quiescence before dropping the data:
        an active participant context means locks are held (or a commit/
        abort round is still due) against this copy, and an open lazy
        outbox holds committed batches not yet pushed to the secondaries
        (dropping the copy would lose them — the new primary serves
        catch-up from *its* log).
        """
        if doc_name in self._lazy_outboxes:
            return True
        for ctx in self.tx_contexts.values():
            for entry in ctx.op_entries.values():
                if entry.doc_name == doc_name:
                    return True
        return False

    def request_primacy(self, doc_name: str, goal_lsn: int):
        """Migration cutover under the lease detector, run as a process:
        one dispatch later, :meth:`assume_primacy` with the manager's goal
        (batches may land in between). False tells the caller to retry."""
        yield (self.costs.scheduler_dispatch_ms)
        return self.alive and self.assume_primacy(doc_name, goal_lsn)

    def assume_primacy(self, doc_name: str, goal_lsn: Optional[int] = None) -> bool:
        """Make this site the primary of ``doc_name`` — the one promotion
        step of failover, the lease election and migration cutover — in
        one event, so no commit lands between the checks and the turn.

        With ``goal_lsn`` (cutover): True at once if this site already
        leads; False unless it is alive and holds a real copy (not the
        migration placeholder) whose log is contiguous and reaches the goal.

        The epoch is *claimed*: concurrent electors that both reached a
        majority (asymmetric loss, degree >= 5) get distinct epochs, so the
        loser is fenceable. Under the perfect detector the shared catalog is
        the announcement, and the other live holders are nudged to catch up
        (they may trail the winner); under the lease detector every peer
        gets a :class:`PrimaryAnnounce`.
        """
        old = self.catalog.replica_set(doc_name).primary
        if goal_lsn is not None:
            if old == self.site_id:
                return True
            if (
                not self.alive
                or not self.data_manager.is_loaded(doc_name)
                or self.holds_placeholder(doc_name)
            ):
                return False
            log = self.log_for(doc_name)
            if log.applied_lsn != log.max_recorded_lsn or log.applied_lsn < goal_lsn:
                return False
        epoch = self.catalog.claim_epoch(doc_name)
        log = self.log_for(doc_name)
        if log.applied_lsn != log.max_recorded_lsn:
            # A hole inherited at promotion can never fill: its batch died
            # with (or is fenced away from) the old primary. Compact to a
            # snapshot base at the tip so catch-up serving keeps working.
            log.reset_to_snapshot(log.max_recorded_lsn, epoch)
        self.catalog.apply_primary(doc_name, self.site_id, epoch)
        self.faults.record_promotion(doc_name, old, self.site_id, epoch)
        if self.membership is None:
            for site_id in self.catalog.sites_for(doc_name):
                other = self.faults.sites[site_id]
                if site_id != self.site_id and other.alive:
                    other.nudge_catch_up(doc_name)
            return True
        self.stats.elections_won += 1
        announce = PrimaryAnnounce(
            doc_name=doc_name, primary=self.site_id, epoch=epoch, announcer=self.site_id,
        )
        for peer in self._membership_peers():
            self.network.send(self.site_id, peer, announce)
        return True

    def log_for(self, doc_name: str) -> UpdateLog:
        """The durable update log of ``doc_name`` at this site."""
        log = self.logs.get(doc_name)
        if log is None:
            log = self.logs[doc_name] = UpdateLog(doc_name)
        return log

    # ------------------------------------------------------------------
    # fault-injection and liveness helpers
    # ------------------------------------------------------------------

    def should_refuse(self, tid: TxId, refusals: set[TxId | str]) -> bool:
        """Whether a fault hook tells this site to refuse ``tid``'s request.

        Shared by the commit, abort and replica-sync paths; ``refusals``
        holds transaction ids or the wildcard ``'*'``.
        """
        return "*" in refusals or tid in refusals

    def _maybe_crash(self, point: str) -> bool:
        """Crash the site if the fault schedule names ``point``.

        Each label fires once. Returns True when the site just crashed (or
        already was down): the caller must stop doing externally visible
        work immediately.
        """
        if point in self.crash_points:
            self.crash_points.discard(point)
            self.crash()
        return not self.alive

    def _check_alive(self) -> None:
        """Resumption guard for coordinator coroutines: stop if crashed."""
        if not self.alive:
            raise _SiteCrashed()

    def _peer_up(self, site_id: Hashable) -> bool:
        """Whether *this site believes* ``site_id`` can currently serve.

        Under the perfect detector that is the network's physical truth
        (the oracle). Under the lease detector it is
        the local lease table — a suspected peer is treated as down even
        if it is merely partitioned away, and routing/commit decisions
        must stay safe under that falseness.
        """
        if site_id == self.site_id:
            return self.alive
        if self.membership is not None:
            return self.membership.is_live(site_id)
        return self.network.is_up(site_id)

    def _has_lease(self, doc_name: str) -> bool:
        """Primacy lease: may this site serve writes on a document it
        believes it leads?  Perfect mode: always (the oracle deposes dead
        primaries instantly).  Lease mode: only while a majority of the
        replica set is un-suspected — a primary cut off from its
        secondaries loses the lease within ``lease_timeout_ms`` and
        refuses further writes, so a partitioned minority cannot keep
        committing on a timeline the rest of the cluster has re-elected
        away (no split-brain by fencing, not by perfect knowledge)."""
        if self.membership is None:
            return True
        rset = self.catalog.replica_set(doc_name)
        if not rset.is_replicated:
            return True
        live = 1 + sum(1 for s in rset.secondaries if self.membership.is_live(s))
        return 2 * live > rset.degree

    def _coordinator_valid(self, coordinator: Hashable, incarnation: int) -> bool:
        """Whether the sending coordinator is still the incarnation that
        queued this work (alive and never restarted since)."""
        if coordinator == self.site_id:
            return self.alive and incarnation == self.incarnation
        if self.membership is not None:
            # Lease mode: judged from heartbeat-carried facts, not the
            # oracle. A suspected coordinator is treated as dead; a known
            # *newer* incarnation proves the sender restarted since
            # queueing. Heartbeat lag can let a dead coordinator's work
            # through — orphan resolution settles it later.
            if not self.membership.is_live(coordinator):
                return False
            return self.membership.incarnation_of(coordinator) <= incarnation
        if not self.network.is_up(coordinator):
            return False
        return self.faults.incarnation_of(coordinator) == incarnation

    # ------------------------------------------------------------------
    # durable writes
    # ------------------------------------------------------------------

    def _persist_kept(self, ctx: Optional[SiteTxContext], doc_name: str) -> int:
        """Write the committed state of ``doc_name`` through to storage.

        The changes ``ctx``'s transaction made on it here can no longer be
        undone: they are settled into the committed state once per
        transaction, at whichever of the sync record, the commit and the
        fail gets here first. Returns the bytes persisted.
        """
        if ctx is not None and doc_name not in ctx.stable_applied:
            ctx.stable_applied.add(doc_name)
            self.data_manager.settle(doc_name, ctx.changes_on(doc_name))
        return self.data_manager.commit(doc_name)

    # ------------------------------------------------------------------
    # client entry point
    # ------------------------------------------------------------------

    def submit(self, tx: Transaction, deliver: Callable[[TxOutcome], None]) -> None:
        """Accept a transaction from a locally connected client."""
        tx.stats.submitted_ts = self.env.now
        if not self.alive:
            # Connection refused: the site is down. The outcome is
            # delivered through the normal event machinery so the client's
            # wait still goes through the simulated clock.
            tx.state = TxState.FAILED
            tx.abort_reason = "site-down"
            deliver(
                TxOutcome(
                    tid=TxId(site=self.site_id, seq=0, start_ts=self.env.now),
                    status="failed",
                    reason="site-down",
                    submitted_ts=self.env.now,
                    finished_ts=self.env.now,
                )
            )
            return
        tr = self.tracer
        if tr is not None:
            # Root span of the whole transaction tree. It closes when the
            # outcome is delivered to the client — on *any* path (commit,
            # abort, fail, coordinator crash) — by wrapping the deliver
            # callback, so crash-time deliveries close it too.
            sid = tr.begin(
                "tx", "tx", self.site_id, 0, self.env.now,
                {"site": str(self.site_id)},
            )
            tx._trace_root = sid
            inner_deliver = deliver

            def deliver(outcome, _tr=tr, _sid=sid, _inner=inner_deliver):
                _tr.set_label(_sid, "status", outcome.status)
                if outcome.reason:
                    _tr.set_label(_sid, "reason", outcome.reason)
                _tr.end(_sid, self.env.now)
                _inner(outcome)

        self.inbox.put(ClientRequest(transaction=tx))
        tx._deliver = deliver  # stashed until the coordinator record exists

    # ------------------------------------------------------------------
    # dispatch (Fig. 1's Listener: requests and inter-scheduler messages)
    # ------------------------------------------------------------------

    def _on_wfg_request(self, msg: WfgRequest) -> None:
        self.network.send(
            self.site_id, msg.requester,
            WfgResponse(site=self.site_id, edges=self.wfg.snapshot()),
        )

    def _on_wfg_response(self, msg: WfgResponse) -> None:
        rnd = self.detector.round if self.detector is not None else None
        if rnd is not None:
            rnd.reply(msg.site, msg)

    def _on_round_reply(self, msg) -> None:
        rnd = self._rounds.get(_ROUND_ID[msg.__class__](msg))
        if rnd is not None:
            # Catch-up responses name no sender: their round asked one
            # site.
            rnd.reply(getattr(msg, "site", rnd.sites[0]), msg)

    def _dispatch_table(self) -> dict:
        """Exact-class message dispatch (message classes are never
        subclassed). Generator handlers run as processes of their own."""
        process = self.env.process
        table = {
            ClientRequest: self._run_transaction,
            RemoteOpRequest: self.remote_ops.put,
            RemoteOpResult: self._on_op_result,
            UndoOpRequest: self._handle_undo_request,
            ReplicaSyncBatch: self._handle_replica_sync_batch,
            ReplicaSyncBatchAck: self._on_round_reply,
            CommitRequest: self._handle_end_request,
            AbortRequest: self._handle_end_request,
            UndoOpAck: self._on_ack,
            CommitAck: self._on_ack,
            AbortAck: self._on_ack,
            FailNotice: self._handle_fail_notice,
            SiteDownNotice: self._on_site_down,
            SiteUpNotice: self._on_site_up,
            HeartbeatMessage: self._on_heartbeat,
            LogTipQuery: self._on_log_tip_query,
            LogTipReport: self._on_round_reply,
            PrimaryAnnounce: self._on_primary_announce,
            CatchUpRequest: self._handle_catchup_request,
            CatchUpResponse: self._on_round_reply,
            VersionProbe: self._on_version_probe,
            VersionReport: self._on_round_reply,
            ReadRepairNudge: self._on_read_repair,
            ViewDeltaBatch: self.views.on_delta,
            ViewReadRequest: self.views.on_read,
            ViewReadResult: self._on_round_reply,
            WakeNotice: self._on_wake_notice,
            WfgRequest: self._on_wfg_request,
            WfgResponse: self._on_wfg_response,
            AbortOrder: self._order_abort,
        }
        for cls, handler in table.items():
            if isgeneratorfunction(handler):
                table[cls] = lambda msg, _spawn=handler: process(_spawn(msg))
        return table

    def _dispatch(self, msg) -> None:
        """Hand one delivered message to its handler (the inbox calls this
        once per message, in arrival order)."""
        try:
            handler = self._handlers[msg.__class__]
        except KeyError:  # pragma: no cover - defensive
            raise ReproError(f"site {self.site_id}: unknown message {msg!r}") from None
        handler(msg)

    # ------------------------------------------------------------------
    # operation execution against the local lock manager (Algorithm 3 caller)
    # ------------------------------------------------------------------

    def _execute_operation(self, tid: TxId, coordinator: Hashable, op: Operation) -> LocalResult:
        if not self.data_manager.is_loaded(op.doc_name):
            # A migration retired this replica while the request was in
            # flight (the coordinator routed against an older placement):
            # refuse like any execution failure; the retry re-reads the
            # catalog and routes to the document's current holders.
            return LocalResult(acquired=True, executed=False, failed=True)
        if (
            op.kind is not OpKind.QUERY
            and self.membership is not None
            and self.replication.is_primary_copy
        ):
            # Lease-mode write fence, checked *before* any lock is taken:
            # this site executes a primary-copy update only while it both
            # believes it leads the document and holds the primacy lease
            # (a majority of the replica set un-suspected). A deposed
            # primary that already learned of the new epoch, or a
            # partitioned primary whose lease ran out, refuses: without
            # the oracle, fencing is what makes this state unreachable.
            rset = self.catalog.replica_set(op.doc_name)
            if rset.is_replicated and (
                rset.primary != self.site_id or not self._has_lease(op.doc_name)
            ):
                self.stats.lease_refusals += 1
                return LocalResult(acquired=True, executed=False, failed=True)
        ctx = self.tx_contexts.get(tid)
        if ctx is not None:
            prior = ctx.op_entries.get(op.index)
            if prior is not None:
                # Duplicate delivery: the operation already ran here (its
                # locks are held, its effects applied) and the coordinator
                # re-shipped it because the response was lost — under the
                # lease detector a cut shorter than the lease loses
                # messages without anyone being suspected. Replay the
                # recorded outcome instead of executing twice.
                return LocalResult(
                    acquired=True,
                    executed=prior.executed,
                    failed=not prior.executed,
                    result_size=prior.result_size,
                )
        if ctx is None:
            ctx = self.tx_contexts[tid] = SiteTxContext(tid=tid, coordinator=coordinator)
        costs = self.costs
        doc = self.data_manager.document(op.doc_name)

        # Retry-time spec reuse: a woken operation recomputes nothing while
        # the protocol's structure summary is unchanged. The cached spec
        # keeps its nodes_visited meter, so the *simulated* cost charged
        # below is identical either way — this is a wall-clock optimisation
        # only, and simulated schedules stay bit-identical. For any XDGL
        # operation it adds only the count (spec_cache_hits): the protocol's
        # own memo, by operation key and guide version, would serve the retry
        # as well. It still saves the recomputation for Node2PL.
        spec = None
        version = self.protocol.structure_version(op.doc_name)
        if version is not None:
            cached = ctx.spec_cache.get(op.index)
            if cached is not None and cached[0] == version:
                spec = cached[1]
                self.stats.spec_cache_hits += 1
        if spec is None:
            if op.kind is OpKind.QUERY:
                spec = self.protocol.lock_spec_for_query(op.doc_name, op.payload)
            else:
                spec = self.protocol.lock_spec_for_update(op.doc_name, op.payload)
            if version is not None:
                ctx.spec_cache[op.index] = (version, spec)
        outcome = self.lock_manager.process_operation(tid, spec)
        cost = (
            spec.nodes_visited * costs.node_visit_ms
            + (outcome.lock_ops + spec.transient_ops) * costs.lock_op_ms
        )
        self.stats.peak_lock_count = max(
            self.stats.peak_lock_count, self.lock_manager.table.lock_count()
        )

        if not outcome.granted:
            self.stats.ops_blocked += 1
            if outcome.deadlock:
                self.stats.local_deadlocks += 1
            # Register the coordinator for a wake notice, together with the
            # lock pairs the blocked spec wanted (only a conflicting release
            # wakes it).
            self.waiters[tid] = (coordinator, outcome.blocked_pairs)
            return LocalResult(
                acquired=False, deadlock=outcome.deadlock, cost_ms=cost
            )

        entry = OpEntry(doc_name=op.doc_name, lock_pairs=outcome.new_pairs, op=op)
        try:
            if op.kind is OpKind.QUERY:
                eval_stats = EvalStats()
                result = evaluate(op.payload, doc, eval_stats)
                entry.executed = True
                size = 96 * len(result)
                entry.result_size = size
                cost += eval_stats.nodes_visited * costs.node_visit_ms
                self.tx_contexts[tid].op_entries[op.index] = entry
                self.stats.ops_executed += 1
                return LocalResult(
                    acquired=True, executed=True, result_size=size, cost_ms=cost
                )
            changes, charge = apply_charged(
                costs, self.data_manager.write, op.doc_name, op.payload
            )
            self.protocol.after_apply(op.doc_name, changes)
            entry.changes = changes
            entry.executed = True
            cost += charge
            ctx.op_entries[op.index] = entry
            self.stats.ops_executed += 1
            return LocalResult(acquired=True, executed=True, cost_ms=cost)
        except UpdateError:
            # Locks are held (released at abort); the data effect failed.
            ctx.op_entries[op.index] = entry
            return LocalResult(acquired=True, executed=False, failed=True, cost_ms=cost)

    def _undo_operation(self, tid: TxId, op_index: int) -> float:
        """Back out one operation's data effects and its locks."""
        ctx = self.tx_contexts.get(tid)
        if ctx is None or op_index not in ctx.op_entries:
            return 0.0
        entry = ctx.op_entries.pop(op_index)
        cost = self._revert(entry)
        for key, mode in reversed(entry.lock_pairs):
            self.lock_manager.table.release_one(key, tid, mode)
        # Remember the pairs for the next end-of-transaction wake sweep:
        # they will not appear in the owner's release set any more, and the
        # wake-up owed to whoever waits on them must not be lost.
        for key, mode in entry.lock_pairs:
            self._deferred_wake_keys.setdefault(key, set()).add(mode)
        cost += len(entry.lock_pairs) * self.costs.lock_op_ms
        self.stats.undo_ops += 1
        # Deliberately NO wake notification here: waiters are woken only when
        # a transaction *ends* (paper §2.2: "those that entered wait mode
        # waiting for the locks of the one that committed, start executing
        # again"). Waking on partial-operation undo makes two crosswise
        # writers ping-pong (win locally, fail remotely, undo, wake each
        # other) — a livelock the end-of-transaction rule avoids; the
        # detector resolves the resulting wait cycle instead.
        return cost

    def _revert(self, entry: OpEntry) -> float:
        """Revert one operation's changes and re-sync the protocol's
        structure from the reverse records; returns the simulated cost."""
        if not entry.changes:
            return 0.0
        reverses = self.data_manager.revert(entry.doc_name, entry.changes)
        self.protocol.after_apply(entry.doc_name, reverses)
        return len(entry.changes) * self.costs.update_apply_ms

    # ------------------------------------------------------------------
    # transaction end at this site (participant side of Algorithms 5 and 6)
    # ------------------------------------------------------------------

    def _settle(self, tid: TxId, outcome: str, persist: bool = False) -> float:
        """End ``tid`` here: ``"commit"``, ``"abort"`` or ``"fail"``.

        A commit persists its effects, an abort reverts them newest first,
        and a fail keeps them without undoing (paper: the application is
        alerted): they are committed state here from now on, so they are
        written through, and ``persist`` also logs them like a commit
        (post-sync failures must leave primary and secondaries durably
        identical). Then the locks release and the waiters wake. Returns
        the simulated cost; a fail charges none, so its callers drop it.
        """
        ctx = self.tx_contexts.pop(tid, None)
        cost = 0.0
        if ctx is not None and outcome == "abort":
            for op_index in sorted(ctx.op_entries, reverse=True):
                cost += self._revert(ctx.op_entries[op_index])
        elif ctx is not None:
            logged_during_sync = set(ctx.stable_applied)
            persisted = 0
            for name in ctx.touched_doc_names():
                persisted += self._persist_kept(ctx, name)
            cost += (persisted / 1024.0) * self.costs.persist_per_kb_ms
            if outcome == "commit" or persist:
                # Before the locks release, so log order = commit order.
                self._log_and_queue_lazy(tid, ctx, logged_during_sync)
        released, lock_ops = self.lock_manager.release_transaction(tid)
        cost += lock_ops * self.costs.lock_op_ms
        self.finished.add(tid)
        self.waiters.pop(tid, None)
        if outcome == "fail":
            self.stats.fails += 1
        self._notify_lock_release(released)
        return cost

    # ------------------------------------------------------------------
    # wake management
    # ------------------------------------------------------------------

    def _notify_lock_release(self, released: dict) -> None:
        """Wake waiting transactions after a transaction ended here.

        Paper §2.2: "When a transaction commits, those that entered wait mode
        waiting for the locks of the one that committed, start executing
        again." A waiter is woken when a (key, mode) pair its blocked
        operation requested is *incompatible* with something just released
        (including locks released earlier by single-operation undo, which
        wakes nobody at the time); the others provably could not make
        progress from this release. A woken waiter that blocks again
        re-registers.

        ``released`` is ``{key: modes}`` and becomes this sweep's own: the
        deferred pairs are merged into it.
        """
        deferred = self._deferred_wake_keys
        if not self.waiters:
            deferred.clear()
            return
        if deferred:
            for key, modes in deferred.items():
                own = released.get(key)
                if own is None:
                    released[key] = modes
                else:
                    own |= modes
            self._deferred_wake_keys = {}
        conflicts_with = self.lock_manager.table.matrix.conflicts_with
        for tid, (coordinator, wait_set) in list(self.waiters.items()):
            if not any(
                key in released and not conflicts_with[mode].isdisjoint(released[key])
                for key, mode in wait_set
            ):
                continue
            del self.waiters[tid]
            self.stats.waiter_wakes += 1
            if coordinator == self.site_id:
                rec = self.coordinators.get(tid)
                if rec is not None:
                    self._wake(rec)
            else:
                self.stats.wake_notices_sent += 1
                self.network.send(
                    self.site_id, coordinator, WakeNotice(tid=tid, site=self.site_id)
                )

    def _on_wake_notice(self, msg: WakeNotice) -> None:
        rec = self.coordinators.get(msg.tid)
        if rec is not None:
            self._wake(rec)

    def _wake(self, rec: CoordinatorRecord) -> None:
        rec.wake_pending = True
        if rec.wake_event is not None and not rec.wake_event.triggered:
            rec.wake_event.succeed("wake")

    def _order_abort(self, msg: AbortOrder) -> None:
        """Deadlock detector chose this coordinator's transaction as victim."""
        rec = self.coordinators.get(msg.tid)
        if rec is None or rec.tx.done:
            return
        rec.abort_requested = True
        rec.abort_reason = msg.reason
        self._wake(rec)

    # ------------------------------------------------------------------
    # participant loop (Algorithm 2)
    # ------------------------------------------------------------------

    def _participant_loop(self):
        remote_get = self.remote_ops.get
        dispatch_ms = self.costs.scheduler_dispatch_ms
        while True:
            req: RemoteOpRequest = yield remote_get()
            yield dispatch_ms
            if not self.alive or req.tid in self.finished:
                # site crashed / transaction ended while queued
                continue
            if not self._coordinator_valid(req.coordinator, req.incarnation):
                # its coordinator died while this was queued: executing now
                # would leak locks and effects nobody settles
                continue
            coordinator = req.coordinator
            tr = self.tracer
            exec_start = self.env.now if tr is not None else 0.0
            result = self._execute_operation(req.tid, coordinator, req.op)
            self.stats.remote_ops_served += 1
            if result.cost_ms:
                yield result.cost_ms
            if tr is not None:
                labels = {"doc": req.op.doc_name, "site": str(self.site_id)}
                if not result.acquired:
                    labels["blocked"] = "1"
                tr.add(
                    "exec", "exec", self.site_id, tr.live_parent(req.span),
                    exec_start, self.env.now, labels,
                )
            reply = RemoteOpResult(
                tid=req.tid,
                site=self.site_id,
                op_index=req.op.index,
                attempt=req.attempt,
                acquired=result.acquired,
                executed=result.executed,
                deadlock=result.deadlock,
                failed=result.failed,
                result_size=result.result_size,
            )
            delay = self.network.send(self.site_id, coordinator, reply)
            if tr is not None:
                tr.add_flight("reply", "net", self.site_id, tr.live_parent(req.span),
                       self.env.now, self.env.now + delay)

    def _handle_undo_request(self, msg: UndoOpRequest):
        if not self.alive:
            return
        yield self._undo_operation(msg.tid, msg.op_index)
        self.network.send(
            self.site_id, msg.coordinator,
            UndoOpAck(tid=msg.tid, site=self.site_id, op_index=msg.op_index, attempt=msg.attempt),
        )

    def _handle_replica_sync_batch(self, msg: ReplicaSyncBatch):
        """Record (and, at secondaries, apply) committed update batches: one
        entry per riding transaction, one ack for the message.

        No locks are taken and no undo is recorded: the entries are
        already committed at the primary, whose lock table ordered
        conflicting writers. Every entry goes through the idempotent
        LSN/epoch machinery of :meth:`_ingest_sync_entry`; the
        per-transaction outcomes are collected into one
        :class:`ReplicaSyncBatchAck` so a refused entry does not fail its
        batch-mates.
        """
        if self._maybe_crash("sync-recv"):
            return
        tr = self.tracer
        apply_start = self.env.now if tr is not None else 0.0
        results: dict = {}
        assigned: dict = {}
        for entry in sorted(msg.entries, key=lambda e: e.lsn):
            if not self.alive:
                return
            if self.should_refuse(entry.tid, self.refuse_sync):
                self.stats.syncs_refused += 1
                yield (0)
                results[entry.tid] = (False, "refused")
                continue
            result = yield from self._ingest_sync_entry(entry)
            if result is None:
                return  # crashed mid-batch: no ack
            ok, reason, lsn = result
            results[entry.tid] = (ok, reason)
            if ok and entry.lsn == 0:
                assigned[entry.tid] = lsn  # minted by this primary's log
        if tr is not None:
            tr.add(
                "sync_apply", "sync", self.site_id, tr.live_parent(msg.span),
                apply_start, self.env.now,
                {"doc": msg.doc_name, "site": str(self.site_id),
                 "entries": str(len(msg.entries))},
            )
        self.network.send(
            self.site_id,
            msg.coordinator,
            ReplicaSyncBatchAck(
                site=self.site_id, doc_name=msg.doc_name,
                batch_id=msg.batch_id, results=results, assigned=assigned,
            ),
        )

    def _ingest_sync_entry(self, entry: UpdateLogEntry):
        """Incorporate one committed update batch; ``(ok, reason, lsn)`` or
        ``None`` when the site crashed mid-ingest (the caller must not ack).

        The LSN/epoch checks make the apply idempotent (a replayed entry
        is skipped — one copy remains), gap-healing (missed entries are
        pulled from the primary first) and fenced (batches stamped with a
        pre-promotion epoch are refused). All operations of a batch are
        applied before any simulated time passes, so a sync is atomic with
        respect to concurrent local reads.

        An entry with no LSN (``lsn=0``, shipped by a coordinator that is
        not the primary) is a record request at the primary: this site's
        log mints the LSN when it records the entry, after the epoch fence
        passed, so no slot can be orphaned by a message lost in flight.
        The minted LSN rides back in the third tuple element. The phantom,
        duplicate and gap checks concern shipped LSNs only.
        """
        doc_name = entry.doc_name
        # Serialize with an in-flight catch-up on the same document.
        while doc_name in self._catchup_gates:
            yield self._catchup_gates[doc_name]
        if not self.alive:
            return None
        if not self.data_manager.is_loaded(doc_name):
            # The copy was retired (migration drop) while this sync was in
            # flight: the placement no longer names this site, so refuse
            # rather than resurrect a dropped replica.
            self.stats.syncs_refused += 1
            yield (0)
            return False, "not-hosted", 0
        if entry.epoch < self.catalog.epoch(doc_name):
            self.stats.syncs_refused += 1
            yield (0)
            return False, "stale-epoch", 0
        cost = self.costs.scheduler_dispatch_ms
        lsn = entry.lsn
        if not lsn:
            if entry.tid in self.finished:
                # Stale record request: the transaction already settled at
                # this site — its coordinator's round gave up on this
                # message long ago, and the local commit/abort/fail
                # resolved the state (kept effects included, logged by
                # the fail/commit path). Minting a fresh LSN now would log
                # — and replicate — the same batch twice.
                self.stats.syncs_refused += 1
                yield (0)
                return False, "finished", 0
            ctx = self.tx_contexts.get(entry.tid)
            if ctx is not None:
                # This primary executed the updates itself: record the
                # entry only. Once synced the batch can only commit or
                # fail-keep, never undo: settle it into the committed state
                # and persist, so the durable log entry and data move together.
                lsn = self._record(entry).lsn
                persisted = self._persist_kept(ctx, doc_name)
                cost += (persisted / 1024.0) * self.costs.persist_per_kb_ms
                ctx.synced = True  # a dead coordinator now resolves to commit
                self.stats.replica_syncs_served += 1
                yield (cost)
                if self._maybe_crash("sync-applied"):
                    return None
                return True, "", lsn
            # No execution state: this primary crashed and recovered while
            # the transaction was in flight. Its effects are gone from
            # memory, so incorporate the batch the way a secondary would —
            # by applying the shipped operations.
        else:
            log = self.log_for(doc_name)
            existing = log.entries.get(lsn)
            if existing is not None and existing.epoch != entry.epoch:
                # This LSN slot is occupied by a *phantom*: a batch of a
                # deposed timeline this replica applied while the rest of
                # the cluster moved on (a promoted primary mints above its
                # own tip, so slots can be reused across epochs). The
                # phantom's data is in our document; log replay cannot
                # reconcile that — heal by snapshot transfer first.
                yield from self._traced_catch_up(doc_name, force_snapshot=True)
                if not self.alive:
                    return None
                log = self.log_for(doc_name)
                existing = log.entries.get(lsn)
                if existing is not None and existing.epoch != entry.epoch:
                    # Heal did not complete (primary down / mid-flight
                    # holes): refuse; the next trigger retries.
                    self.stats.syncs_refused += 1
                    yield (0)
                    return False, "gap", 0
            if log.has(lsn):
                # Duplicate delivery or replayed log entry: idempotent no-op.
                yield (cost)
                return True, "", lsn
            primary = self.catalog.replica_set(doc_name).primary
            if lsn > log.applied_lsn + 1 and primary != self.site_id:
                # Batches below this one are missing: non-conflicting
                # racing writers still in flight to us (they commute), or
                # batches produced while this replica was down. (At the
                # primary every conflicting predecessor was recorded here.)
                # The primary's answer, as of after this batch was sent,
                # holds every conflicting predecessor, so once it arrived
                # the apply is safe even if commuting holes remain.
                caught_up = yield from self._traced_catch_up(doc_name)
                if not self.alive:
                    return None
                if log.has(lsn):
                    yield (cost)
                    return True, "", lsn
                if not caught_up and lsn > log.applied_lsn + 1:
                    # No response (primary down / timed out): stay behind
                    # rather than apply over unknown state; the next sync
                    # or recovery trigger retries.
                    self.stats.syncs_refused += 1
                    return False, "gap", 0
        applied, entry = self._apply_log_entry(entry)
        cost += applied
        self.stats.replica_syncs_served += 1
        yield (cost)
        if self._maybe_crash("sync-applied"):
            return None  # crashed after the durable apply, before the ack
        return True, "", entry.lsn

    def _apply_log_entry(self, entry: UpdateLogEntry) -> tuple[float, UpdateLogEntry]:
        """Apply one update batch and record it durably; returns the cost
        and the recorded entry (an ``lsn=0`` entry is minted by the log).

        The data mutation, persist and log append happen without yielding,
        so the batch is atomic even against a concurrently scheduled crash.
        """
        cost = 0.0
        for op in entry.ops:
            try:
                changes, charge = apply_charged(
                    self.costs, self.data_manager.apply_replicated,
                    entry.doc_name, op.payload,
                )
            except UpdateError as exc:  # pragma: no cover - replica divergence
                raise ReproError(
                    f"site {self.site_id}: replica sync of {entry.tid} failed "
                    f"on {entry.doc_name!r}: {exc}"
                ) from exc
            self.protocol.after_apply(entry.doc_name, changes)
            cost += charge
        persisted = self.data_manager.commit(entry.doc_name)
        cost += (persisted / 1024.0) * self.costs.persist_per_kb_ms
        return cost, self._record(entry)

    def _record(self, entry: UpdateLogEntry, lazy: bool = False,
                persist: bool = False) -> UpdateLogEntry:
        """Record a committed entry in this site's log (the log mints an
        ``lsn=0`` entry's LSN) and offer the recorded entry, which is
        returned, to the subscribers: view hosts get every entry the
        current primary records, the secondaries (``lazy``) only what no
        sync round ships. The order is schedule: the view offer may start
        the push loop, the lazy stage the flush."""
        doc_name = entry.doc_name
        log = self.log_for(doc_name)
        entry = log.record(entry) if entry.lsn else log.append(entry)
        if self.catalog.has_views(doc_name):
            self.views.offer(entry)
        if persist:
            self.data_manager.commit(doc_name)
        if lazy:
            box = self._lazy_outboxes.get(doc_name)
            if box is None:
                box = self._lazy_outboxes[doc_name] = []
                self.env.process(self._push(doc_name, box, self.incarnation))
            box.append(entry)
        return entry

    def _handle_end_request(self, msg: CommitRequest | AbortRequest):
        """Commit or abort at a participant (Algorithms 5 and 6): settle,
        then ack. A refused request settles nothing and acks not ok."""
        if not self.alive:
            return
        commit = msg.__class__ is CommitRequest
        ok = not self.should_refuse(msg.tid, self.refuse_commit if commit else self.refuse_abort)
        yield self._settle(msg.tid, "commit" if commit else "abort") if ok else 0
        if commit:
            ack = CommitAck(tid=msg.tid, site=self.site_id, ok=ok)
        else:
            ack = AbortAck(tid=msg.tid, site=self.site_id, ok=ok)
        self.network.send(self.site_id, msg.coordinator, ack)

    def _handle_fail_notice(self, msg: FailNotice) -> None:
        if self.alive:
            self._settle(msg.tid, "fail", msg.persist)

    # ------------------------------------------------------------------
    # coordinator response/ack plumbing
    # ------------------------------------------------------------------

    def _on_op_result(self, msg: RemoteOpResult) -> None:
        rec = self.coordinators.get(msg.tid)
        if rec is not None and rec.round is not None:
            rec.round.reply(msg.site, msg, msg.attempt)

    def _on_ack(self, msg) -> None:
        rec = self.coordinators.get(msg.tid)
        if rec is not None and rec.round is not None:
            rec.round.reply(msg.site, msg, _ACK_PHASE[msg.__class__])

    def _round_timeout_ms(self) -> float:
        """Upper bound on a lease-mode protocol round.

        By this long, a peer that stayed silent had its lease expire
        (suspicion unstuck the round already), is alive and the message
        was simply lost to a cut shorter than the lease, or is alive and
        slow — its queue or the operation itself took longer. Waiting
        longer cannot help the first two. In the third the peer did
        execute and holds the operation's locks: the round settles
        without it, and the caller must still end the transaction at that
        site through its ``_settle`` (the 2PC round, or a fail notice).
        """
        return 2 * self.config.lease_timeout_ms + ELECTION_TIMEOUT_MS

    def _new_round_id(self) -> int:
        self._round_seq += 1
        return self._round_seq

    def _open_round(self, kind: str, sites, need=None) -> tuple[int, Round]:
        """Register a fresh round; its id goes out on the request."""
        round_id = self._new_round_id()
        rnd = self._rounds[round_id] = Round(self.env, kind, sites, need)
        return round_id, rnd

    def _await_coordinator_round(self, rec: CoordinatorRecord):
        """Wait out ``rec``'s op or ack round; the replies it settled with.

        The perfect detector guarantees every reply arrives or a
        SiteDownNotice unsticks the round. Without the oracle a message
        lost to a partition *shorter than the lease* has no such backstop
        — nobody gets suspected, so nothing would ever fire: the wait is
        bounded, and on timeout the round settles with what did arrive.
        Peers that never answered stay in ``round.pending``; the op path
        retries them, the ack paths treat them like crashed-mid-round
        participants (outcome unknown), which they know how to degrade
        safely.
        """
        rnd = rec.round
        replies = yield from rnd.wait(
            None if self.membership is None else self._round_timeout_ms()
        )
        rec.round = None
        if replies is None:
            replies = dict(rnd.replies)
        return replies

    # ------------------------------------------------------------------
    # coordinator (Algorithm 1 + commit/abort procedures, Algorithms 5-6)
    # ------------------------------------------------------------------

    def _run_transaction(self, req: ClientRequest):
        tx: Transaction = req.transaction
        self._tx_seq += 1
        tid = TxId(site=self.site_id, seq=self._tx_seq, start_ts=self.env.now)
        tx.tid = tid
        tx.state = TxState.ACTIVE
        tx.stats.started_ts = self.env.now
        deliver = getattr(tx, "_deliver", lambda outcome: None)
        rec = CoordinatorRecord(tx=tx, tid=tid, deliver=deliver)
        if self.tracer is not None:
            rec.root_span = getattr(tx, "_trace_root", 0)
            if rec.root_span:
                self.tracer.set_label(rec.root_span, "tx", str(tid))
        self.coordinators[tid] = rec
        self.stats.coordinated += 1

        status, reason = "committed", ""
        try:
            try:
                for op in tx.operations:
                    yield from self._span(
                        self._run_operation(rec, op), "op", "op",
                        rec.root_span, rec, op,
                    )
                tx.state = TxState.COMMITTING
                committed = yield from self._span(
                    self._commit_transaction(rec), "commit", "2pc", rec.root_span, rec
                )
                if not committed:
                    raise _AbortTx(rec.abort_reason or "commit-refused")
                tx.state = TxState.COMMITTED
                self.stats.commits += 1
            except _AbortTx as abort:
                reason = abort.reason
                tx.state = TxState.ABORTING
                tx.abort_reason = reason
                aborted_ok = yield from self._span(
                    self._abort_transaction(rec), "abort", "2pc", rec.root_span, rec
                )
                if aborted_ok:
                    tx.state = TxState.ABORTED
                    status = "aborted"
                    self.stats.aborts += 1
                else:
                    tx.state = TxState.FAILED
                    status = "failed"
        except _SiteCrashed:
            return  # crash() finished the transaction
        self._finish(rec, status, reason)

    def _finish(self, rec: CoordinatorRecord, status: str, reason: str) -> None:
        """End a coordinated transaction: forget its record and deliver its
        outcome. The one place a coordinator ends a transaction, from
        ``_run_transaction`` or, for every one in flight, from ``crash``."""
        self.coordinators.pop(rec.tid, None)
        self.finished.add(rec.tid)
        rec.tx.stats.finished_ts = self.env.now
        rec.deliver(
            TxOutcome(
                tid=rec.tid,
                status=status,
                reason=reason,
                submitted_ts=rec.tx.stats.submitted_ts,
                finished_ts=self.env.now,
            )
        )

    def _span(self, gen, name: str, cat: str, parent: int = 0, rec=None, about=None):
        """``gen`` inside a tracer span, or ``gen`` itself with tracing off.

        With ``rec`` the span becomes the record's ``op_span`` while it is
        open, so the sends and sub-spans of the wrapped work nest under it.
        ``about`` labels the span: a document name, or an operation (its
        document, index and kind). The span closes on every exit,
        ``_AbortTx`` and ``_SiteCrashed`` unwinds included.
        """
        tr = self.tracer
        if tr is None:
            return gen
        return self._spanned(tr, gen, name, cat, parent, rec, about)

    def _send_in_span(self, dst: Hashable, span: int, msg) -> None:
        """Send one request of a round; with tracing on, record its flight
        under ``span``."""
        delay = self.network.send(self.site_id, dst, msg)
        tr = self.tracer
        if tr is not None:
            now = self.env.now
            tr.add_flight("send", "net", self.site_id, span, now, now + delay,
                          {"dst": str(dst)})

    def _spanned(self, tr, gen, name, cat, parent, rec, about):
        if about is None:
            labels = None
        elif isinstance(about, Operation):
            labels = {"doc": about.doc_name, "index": str(about.index),
                      "kind": about.kind.name}
        else:
            labels = {"doc": about}
        sid = tr.begin(name, cat, self.site_id, parent, self.env.now, labels)
        if rec is not None:
            saved = rec.op_span
            rec.op_span = sid
        try:
            return (yield from gen)
        finally:
            tr.end(sid, self.env.now)
            if rec is not None:
                rec.op_span = saved

    def _run_operation(self, rec: CoordinatorRecord, op: Operation):
        tx = rec.tx
        while True:
            self._check_alive()
            if rec.abort_requested:
                raise _AbortTx(rec.abort_reason or "abort-ordered")
            rset = self.catalog.replica_set(op.doc_name)
            if op.kind is OpKind.QUERY:
                # A read-only transaction's query goes to a covering view
                # host first; a refusal, timeout or host crash falls
                # through to the locked path below.
                if (yield from self.views.route_read(rec, op)):
                    return
                if (
                    self.replication.is_quorum_read
                    and rset.is_replicated
                    and op.doc_name not in rec.write_sites
                ):
                    # Versioned quorum read: probe R replicas, execute at
                    # the freshest provably-complete responder, repair the
                    # laggards the probes revealed.
                    sites = yield from self._quorum_read_route(rec, op, rset)
                    rset = self.catalog.replica_set(op.doc_name)
                else:
                    sites = self.replication.route_read(
                        rset,
                        origin=self.site_id,
                        rng=self._route_rng,
                        wrote_before=op.doc_name in rec.write_sites,
                    )
            else:
                sites = self.replication.route_write(rset)
            # Route around crashed replicas. Under primary-copy the routed
            # write target *is* the (possibly freshly promoted) primary, so
            # a dead entry here means no live copy is left. Under the
            # paper's write-everywhere regime a single dead replica makes
            # eager write-all impossible (there is no log to catch the dead
            # copy up from), so updates refuse instead of diverging.
            live_sites = [s for s in sites if self._peer_up(s)]
            if not live_sites:
                raise _AbortTx("no-live-replica")
            if len(live_sites) < len(sites) and op.kind is OpKind.UPDATE:
                if not self.replication.is_primary_copy:
                    raise _AbortTx("replica-down")
            sites = live_sites
            if (
                op.kind is OpKind.UPDATE
                and self.membership is not None
                and self.replication.is_primary_copy
                and sites == [self.site_id]
                and not self._has_lease(op.doc_name)
            ):
                # This coordinator is the routed primary but cannot prove
                # a majority of the replica set alive: refuse with the
                # precise reason instead of the participant path's generic
                # operation failure.
                self.stats.lease_refusals += 1
                raise _AbortTx("no-primary-lease")
            tx.sites_involved.update(sites)
            yield self.costs.scheduler_dispatch_ms
            self._check_alive()

            # Ship the operation to every routed site (all replicas under
            # the paper's regime; one read replica / the primary under
            # primary-copy ROWA). The coordinator's own copy is served
            # through the same participant path, which keeps replicas
            # byte-identical.
            rec.attempt += 1
            rec.round = Round(self.env, "op", sites, tag=rec.attempt)
            for site in sites:
                self._send_in_span(site, rec.op_span, RemoteOpRequest(
                    tid=rec.tid, coordinator=self.site_id, op=op,
                    attempt=rec.attempt, incarnation=self.incarnation,
                    span=rec.op_span,
                ))
            # Never-answering sites (crashed, or lost to a short cut in
            # lease mode) flow into ``missing`` below, and the retry
            # re-ships the operation (attempt-fenced).
            results = yield from self._await_coordinator_round(rec)
            self._check_alive()
            tx.stats.op_attempts += 1

            # Participants that died mid-operation never answered; their
            # volatile state (locks, partial effects) died with them.
            missing = set(sites) - set(results)

            acquired_all = not missing and all(r.acquired for r in results.values())
            any_failed = any(r.failed for r in results.values())
            any_deadlock = any(r.deadlock for r in results.values())
            executed_sites = [
                r.site
                for r in results.values()
                if r.executed and self._peer_up(r.site)
            ]

            if acquired_all and not any_failed:
                op.executed = True
                rec.executed_sites.update(sites)
                if op.kind is OpKind.UPDATE:
                    rec.write_sites.setdefault(op.doc_name, set()).update(sites)
                elif len(sites) < rset.degree:
                    self.stats.reads_routed += 1  # once per routed query
                return

            # Back out sites where the operation did execute (Alg. 1 l. 16).
            if executed_sites:
                rec.round = Round(self.env, "undo", executed_sites, tag="undo")
                for site in executed_sites:
                    self.network.send(
                        self.site_id,
                        site,
                        UndoOpRequest(
                            tid=rec.tid, coordinator=self.site_id,
                            op_index=op.index, attempt=rec.attempt,
                            span=rec.op_span,
                        ),
                    )
                yield from self._await_coordinator_round(rec)
                self._check_alive()

            if any_failed:
                raise _AbortTx("operation-failed")
            if any_deadlock:
                raise _AbortTx("local-deadlock")
            if missing:
                # A routed site crashed before answering. Earlier
                # operations that executed there are gone for good — the
                # transaction cannot be salvaged. Otherwise retry: the
                # failover already re-pointed the catalog, so the next
                # round routes to the new primary / a live replica.
                if missing & rec.executed_sites:
                    raise _AbortTx("participant-crashed")
                continue

            # Wait mode (Alg. 1 l. 9 / l. 17), then retry the operation.
            tx.state = TxState.WAITING
            tx.stats.waits += 1
            yield from self._wait_for_wake(rec)
            tx.state = TxState.ACTIVE

    def _wait_for_wake(self, rec: CoordinatorRecord):
        tr = self.tracer
        if tr is None:
            return (yield from self._wait_for_wake_inner(rec))
        # One lock_wait span per blocked period: the first wait of an
        # operation opens it, and every later wait of the same operation
        # *extends* it (a wake that cannot be satisfied is still
        # time spent waiting for the lock — chopping the period into
        # per-wait spans would misread that churn as coordinator work).
        # Reopening an existing span is why this does not use _span.
        sid = rec.wait_span
        if not sid or tr.get(sid).parent != rec.op_span:
            op_span = tr.get(rec.op_span) if rec.op_span else None
            doc = op_span.label("doc") if op_span is not None else None
            labels = {"doc": doc} if doc else None
            sid = tr.begin(
                "lock_wait", "lock_wait", self.site_id, rec.op_span,
                self.env.now, labels,
            )
            rec.wait_span = sid
        try:
            return (yield from self._wait_for_wake_inner(rec))
        finally:
            tr.get(sid).end = self.env.now  # extend past earlier closes

    def _wait_for_wake_inner(self, rec: CoordinatorRecord):
        if rec.wake_pending or rec.abort_requested:
            rec.wake_pending = False
            return
        env = self.env
        wake = rec.wake_event = env.event()
        timeout_ms = self.config.lock_wait_timeout_ms
        if timeout_ms > 0:
            won = yield env.first_of(wake, env.timeout(timeout_ms))
        else:
            # Not a bare ``yield wake``: the relay resumes one queue item
            # after the wake, which is schedule.
            won = yield env.first_of(wake)
        rec.wake_event = None
        rec.wake_pending = False
        self._check_alive()
        if won is not wake and not rec.abort_requested:
            raise _AbortTx("lock-wait-timeout")

    # ------------------------------------------------------------------
    # quorum reads (replica_read_policy="quorum")
    # ------------------------------------------------------------------

    def _quorum_read_route(self, rec: CoordinatorRecord, op: Operation, rset):
        """Resolve a quorum read to a single execution site.

        Fans a :class:`VersionProbe` to every live replica (the
        coordinator's own copy ranked first — a tie there costs zero hops
        — then the primary, then the secondaries in placement order),
        waits for the first R :class:`VersionReport`s, and picks the
        freshest responder that provably covers every committed write
        (:func:`~repro.distribution.quorum.choose_read_replica`). Probe
        responders found behind the frontier get a :class:`ReadRepairNudge`
        (anti-entropy catch-up, not data shipping). Silent responders are
        excluded and the round re-probed; when racing in-flight batches
        leave no provably-complete responder the primary serves (its live
        tree is complete by construction — every primary-copy write
        executes there before committing anywhere). Aborts with
        ``no-read-quorum`` when fewer than R replicas can answer.
        """
        doc_name = op.doc_name
        excluded: set = set()
        for _ in range(4):
            self._check_alive()
            if rec.abort_requested:
                raise _AbortTx(rec.abort_reason or "abort-ordered")
            rset = self.catalog.replica_set(doc_name)
            spec = self.replication.quorum_for(rset.degree)
            order = [s for s in rset.all_sites if s != self.site_id]
            if self.site_id in rset:
                order.insert(0, self.site_id)
            candidates = [s for s in order if s not in excluded and self._peer_up(s)]
            if len(candidates) < spec.read_quorum:
                raise _AbortTx("no-read-quorum")
            # Speculative fan-out (the Dynamo-family read discipline):
            # probe *every* live replica, settle on the first R reports.
            # A replica that is believed live but actually behind a cut
            # then costs nothing — the R answers come from the reachable
            # side — and every responder's version gets inspected, which
            # is what keeps read repair finding stragglers. R remains the
            # consistency knob: it is the number of *answers* that gate
            # the read, not the number of probes.
            probe_id, rnd = self._open_round("probe", candidates, spec.read_quorum)
            probe = VersionProbe(
                doc_name=doc_name, reader=self.site_id, probe_id=probe_id
            )
            for target in candidates:
                self.network.send(self.site_id, target, probe)
                self.stats.version_probes_sent += 1
            # Bounded under both detectors: a probe lost to a cut has no
            # SiteDownNotice backstop (the peer is alive).
            yield from rnd.wait(self._round_timeout_ms())
            self._rounds.pop(probe_id, None)
            self._check_alive()
            reports = {
                site: VersionVector(
                    site=site,
                    epoch=msg.epoch,
                    applied_lsn=msg.applied_lsn,
                    max_recorded_lsn=msg.max_recorded_lsn,
                )
                for site, msg in rnd.replies.items()
            }
            if len(reports) < spec.read_quorum:
                # Crashed or partitioned-away responders: strike them from
                # the candidate pool and re-probe over the rest.
                excluded |= set(candidates) - set(reports)
                self.stats.quorum_read_retries += 1
                continue
            winner, laggards = choose_read_replica(
                reports,
                primary=rset.primary,
                preferred=self.site_id,
                placement=tuple(rset.all_sites),
            )
            if laggards:
                top_epoch, frontier = version_frontier(reports)
                nudge = ReadRepairNudge(
                    doc_name=doc_name, target_lsn=frontier, epoch=top_epoch
                )
                for site in laggards:
                    self.network.send(self.site_id, site, nudge)
                self.stats.read_repairs_sent += len(laggards)
            if winner is None:
                # No responder is provably complete: racing batches in
                # flight everywhere probed, or the completeness evidence
                # came from a stale-epoch tail. The believed primary's
                # live tree is complete by construction — but only if the
                # belief is current: reports revealing a newer timeline
                # than this coordinator's view prove the believed primary
                # deposed, and serving from it could return fenced data
                # while missing quorum-committed writes. Re-probe instead;
                # the announce/heartbeat stream updates the view within a
                # round or two.
                top_epoch, _ = version_frontier(reports)
                if (
                    self._peer_up(rset.primary)
                    and self.catalog.epoch(doc_name) >= top_epoch
                ):
                    winner = rset.primary
                else:
                    self.stats.quorum_read_retries += 1
                    continue
            self.stats.quorum_reads += 1
            return [winner]
        raise _AbortTx("no-read-quorum")

    def _on_version_probe(self, msg: VersionProbe) -> None:
        """Answer a quorum-read coordinator with this replica's version.

        Reads the durable log position only — no lock, no document access.
        A site that does not host the document (or is down) stays silent;
        the coordinator excludes silent responders and re-probes.
        """
        if not self.alive or msg.doc_name not in self.data_manager.live_documents():
            return
        log = self.log_for(msg.doc_name)
        self.stats.version_reports_served += 1
        self.network.send(
            self.site_id,
            msg.reader,
            VersionReport(
                doc_name=msg.doc_name,
                site=self.site_id,
                probe_id=msg.probe_id,
                applied_lsn=log.applied_lsn,
                # The *log tip's* epoch — the timeline the data actually
                # belongs to — NOT this site's election view. A healed
                # deposed primary has a current view over a stale fenced
                # log; reporting the view epoch would let it masquerade as
                # a fresh replica while its tip LSNs alias batches it
                # never had.
                max_recorded_lsn=log.max_recorded_lsn,
                epoch=log.last_epoch,
            ),
        )

    def _on_read_repair(self, msg: ReadRepairNudge) -> None:
        """A quorum read observed this replica behind the frontier: heal.

        Re-checked against the local log first — the gap may have closed
        (or an even newer epoch arrived) while the nudge travelled; only a
        replica still provably behind starts a catch-up round.
        """
        if not self.alive or msg.doc_name not in self.data_manager.live_documents():
            return
        log = self.log_for(msg.doc_name)
        if (
            self.catalog.epoch(msg.doc_name) < msg.epoch
            or log.applied_lsn < msg.target_lsn
        ):
            self.stats.read_repairs_received += 1
            self.nudge_catch_up(msg.doc_name)

    def _sync_replicas(self, rec: CoordinatorRecord):
        """Commit-time replica synchronization (eager and quorum regimes).

        Runs at the top of the commit procedure, while the primary's locks
        are still held — conflicting writers therefore sync in lock-grant
        order and secondaries apply transactions in commit order. Each
        written document's batch is staged in its (primary, document)
        outbox and rides the one primary-first batch round of
        :meth:`_flush_sequenced_batch`, shared with whatever else reached
        commit before the outbox flushed. Crashed or refusing secondaries
        are skipped — they catch the batch up from the log later — so a
        single dead replica does not block the commit. Returns False when
        the epoch fence refused the batch (this coordinator acted on a
        deposed primary) or the durable-copies quorum could not be
        assembled: the caller must unwind.
        """
        per_doc: dict[str, list] = {}
        for op in rec.tx.operations:
            if op.kind is OpKind.UPDATE and op.executed:
                per_doc.setdefault(op.doc_name, []).append(op)
        staged: list = []
        for doc_name, ops in per_doc.items():
            rset = self.catalog.replica_set(doc_name)
            if not rset.is_replicated:
                continue  # single copy: commit/abort handle it alone
            if not self._wrote_at(rec, doc_name, rset.primary):
                rec.abort_reason = "participant-crashed"
                return False
            staged.append((doc_name, ops))
        # Stage only after every document passed the check: a batch
        # already in an outbox ships whatever its transaction does next,
        # and a clean abort must not race a durable record of its effects.
        waiters = [
            self._enqueue_group_sync(rec, doc_name, ops) for doc_name, ops in staged
        ]
        # Drain *every* waiter before deciding: another document's batch
        # may have durably applied (rec.synced), which turns a failure
        # into fail-with-state-kept, not abort.
        failed_reason = ""
        for waiter in waiters:
            outcome = yield waiter
            self._check_alive()
            if outcome is None:  # outbox of a crashed, since-restarted life
                failed_reason = failed_reason or "participant-crashed"
                continue
            if outcome["synced"]:
                rec.synced = True
            if not outcome["ok"]:
                failed_reason = outcome["reason"] or "sync-failed"
        if failed_reason:
            rec.abort_reason = failed_reason
            return False
        return True

    def _wrote_at(self, rec: CoordinatorRecord, doc_name: str, primary) -> bool:
        """Whether ``rec``'s updates of ``doc_name`` all executed at the live
        ``primary`` and nowhere else (checked at staging and at flush).

        Otherwise the transaction unwinds: a crashed executing copy took
        its uncommitted effects with it, and after a primacy handoff
        mid-transaction (migration cutover, or a false suspicion deposing
        a live primary) committing the batch would durably record
        operations the new primary's own copy never executed.
        """
        return rec.write_sites.get(doc_name, set()) == {primary} and self._peer_up(primary)

    def _enqueue_group_sync(self, rec: CoordinatorRecord, doc_name: str, ops):
        """Stage one transaction's per-document batch in its sync outbox.

        Returns the event the coordinator must yield on; it fires with the
        transaction's individual outcome dict (``ok``/``synced``/``reason``)
        once the batch's ack rounds complete — or with ``None`` when this
        site crashed while the batch was pending.
        """
        waiter = self.env.event()
        key = (doc_name, self.catalog.replica_set(doc_name).primary)
        box = self._sync_outboxes.get(key)
        if box is None:
            # The first stage opens the box and starts its one flush.
            box = self._sync_outboxes[key] = []
            self.env.process(self._flush_sync_outbox(key, box, self.incarnation))
        box.append((rec, ops, waiter))
        return waiter

    def _outbox_died(self, box: list, incarnation: int) -> bool:
        """Whether this sync box belongs to a crashed (or crashed-and-
        restarted) incarnation of the site; if so its unsettled waiters
        fire with None. ``crash()`` settles every box through here and
        fails the queued transactions' clients; a flush that resumes after
        a recover must do nothing — replicating now would ship effects of
        transactions already reported failed."""
        if self.alive and self.incarnation == incarnation:
            return False
        for _, _, waiter in box:
            if not waiter.triggered:
                waiter.succeed(None)
        return True

    def _flush_sync_outbox(self, key: tuple, box: list, incarnation: int):
        """Close the sync box of ``key`` = (document, primary) after
        ``group_commit_window_ms`` and ship what it holds: its transactions
        are re-validated one by one (a failover or crash during the window
        fails that transaction, not the batch) and the rest ride
        :meth:`_flush_sequenced_batch`, which settles every waiter."""
        yield (self.config.group_commit_window_ms)
        if self._sync_outboxes.get(key) is box:
            del self._sync_outboxes[key]
        if self._outbox_died(box, incarnation):
            return
        doc_name, primary = key
        rset = self.catalog.replica_set(doc_name)
        valid: list = []
        for rec, ops, waiter in box:
            if rset.primary == primary and self._wrote_at(rec, doc_name, rset.primary):
                valid.append((rec, ops, waiter))
            else:
                waiter.succeed(
                    {"ok": False, "synced": False, "reason": "participant-crashed"}
                )
        if not rset.is_replicated:
            # The replica set shrank to one copy while the batch waited (a
            # migration drained the other holders): nothing to sync, and
            # commit handles a single copy alone — exactly what the
            # enqueue-time check says about a document that never was
            # replicated.
            for _, _, waiter in valid:
                waiter.succeed({"ok": True, "synced": False, "reason": ""})
            return
        if not valid:
            return
        self.stats.group_batched_syncs += len(valid)
        yield from self._flush_sequenced_batch(doc_name, box, incarnation, rset, valid)

    def _sync_batch(self, doc_name: str, batch_id: int, entries: list,
                    span: int = 0) -> ReplicaSyncBatch:
        """The replica wire format, built here for the commit-time rounds
        and the lazy push alike."""
        return ReplicaSyncBatch(
            coordinator=self.site_id, doc_name=doc_name, batch_id=batch_id,
            entries=list(entries), span=span,
        )

    def _ship_batch_round(self, doc_name: str, targets: list, entries: list,
                          needed: dict, bounded: bool, parent_span: int):
        """Fan one ReplicaSyncBatch to ``targets`` and wait it out.

        The round settles early once every transaction in ``needed`` has
        its count of ok results (empty = wait for every target), and with
        ``bounded`` a timeout covers peers behind a cut. Eager rounds
        under the perfect detector pass ``bounded=False`` to keep the
        oracle contract: wait for every ack, or for the SiteDownNotice
        that unsticks the round. Returns the acks that arrived, by site.
        """
        batch_id, rnd = self._open_round("sync", targets, needed or None)
        tr = self.tracer
        batch_span = (
            tr.begin(
                "batch_round", "sync", self.site_id, parent_span, self.env.now,
                {"doc": doc_name, "entries": str(len(entries))},
            )
            if tr is not None
            else 0
        )
        for site in targets:
            self._send_in_span(site, batch_span, self._sync_batch(
                doc_name, batch_id, entries, batch_span,
            ))
            self.stats.group_batches_sent += 1
        yield from rnd.wait(self._round_timeout_ms() if bounded else None)
        if tr is not None:
            tr.end(batch_span, self.env.now)
        self._rounds.pop(batch_id, None)
        return rnd.replies

    def _flush_sequenced_batch(self, doc_name: str, box: list, incarnation: int,
                               rset, valid: list):
        """Commit-time sync settlement, primary first (eager and quorum).

        Two sub-rounds instead of a single fan-out, and the ordering is
        load-bearing: the whole batch reaches **the primary's durable log
        before any secondary sees any of it**. A secondary can therefore
        never hold a batch its primary does not — with a parallel
        fan-out, a coordinator cut off mid-fan could leave a batch
        applied at a secondary while the primary (which never got its
        log-only record) orphan-aborts the transaction and undoes the
        effects: permanent divergence no anti-entropy could repair,
        because catch-up serves from the primary's log. For the same
        reason the entries are built with ``lsn=0`` and the primary's log
        mints each LSN when it records the entry — here when this
        coordinator is the primary, at the remote primary otherwise, which
        returns the numbers in its ack. A number picked before the record
        whose message then died in flight would punch a permanent hole
        into the primary's log and wedge its applied watermark, and every
        catch-up above it, forever.

        Round 1 records the batch at the primary. Round 2 fans it to the
        live secondaries and settles each transaction — at its own
        ``W - 1`` ok acks on top of the primary's record under quorum
        writes (stragglers apply the batch late; the commit stops
        tracking the slowest replica), at every live secondary's ack
        under eager writes. Entries the primary refused are withheld from
        the secondary fan-out — shipping them would recreate exactly the
        divergence the ordering exists to prevent.

        There is no fail-fast even when too few replicas look reachable
        to ever assemble W: the batch must reach the primary's log first
        regardless. A hopeless quorum then fails with state kept *and
        logged* — an unlogged kept effect at the primary would be
        invisible to catch-up and diverge the replicas permanently.
        """
        is_quorum = self.replication.is_quorum_write
        quorum_w = self.replication.quorum_for(rset.degree).write_quorum if is_quorum else 0
        # Bounded rounds belong to the lease detector (messages can be
        # silently lost) and to the quorum regime (bounded under either
        # detector, by design: when a partition keeps W out of reach the
        # partitioned peers are alive, so no SiteDownNotice ever comes).
        # Eager writes under the perfect detector keep the oracle
        # contract: the round waits until every ack arrives or a
        # SiteDownNotice unsticks it — a merely *slow* ack (e.g. a primary
        # serializing behind its catch-up gate) must not time a
        # committable transaction out into a permanent failure.
        bounded = self.membership is not None or is_quorum
        # A round whose entries all belong to one transaction is that
        # transaction's own work: its span and network flights nest under
        # the transaction's replica_sync span. A shared round cannot
        # belong to any single transaction's tree and stays global
        # (op_span is 0 with tracing off).
        def round_parent(round_entries: list) -> int:
            if len(round_entries) != 1:
                return 0
            tid = round_entries[0].tid
            return next(rec.op_span for rec, _, _ in valid if rec.tid == tid)

        epoch = self.catalog.epoch(doc_name)
        primary_ok: dict = {}  # tid -> (ok, reason)
        entries = [
            UpdateLogEntry(
                lsn=0, epoch=epoch, tid=rec.tid,
                doc_name=doc_name, ops=tuple(ops),
            )
            for rec, ops, _ in valid
        ]
        if rset.primary == self.site_id:
            # Batched local log append, one entry at a time: record (the
            # log mints the LSN), persist, mark synced.
            for i, (rec, _, _) in enumerate(valid):
                entries[i] = self._record(entries[i])
                self._persist_kept(self.tx_contexts.get(rec.tid), doc_name)
                rec.synced = True
                primary_ok[rec.tid] = (True, "")
        else:
            acks = yield from self._ship_batch_round(
                doc_name, [rset.primary], entries,
                needed={}, bounded=bounded, parent_span=round_parent(entries),
            )
            if self._outbox_died(box, incarnation):
                return
            ack = acks.get(rset.primary)
            if ack is None:
                if self.membership is None and not self.network.is_up(rset.primary):
                    # Perfect detector: the primary crashed mid-round —
                    # the failover fences whatever it recorded, and no
                    # secondary saw anything. Clean unwind.
                    for rec, _, waiter in valid:
                        waiter.succeed(
                            {
                                "ok": False,
                                "synced": rec.synced,
                                "reason": "participant-crashed",
                            }
                        )
                    return
                # Ambiguous: the batch or its ack was lost — the primary
                # may have recorded everything. No entry can be undone,
                # and none can reach the secondaries either (their
                # assigned LSNs are unknown): fail the whole batch with
                # state kept; the primary's record/no-record fact settles
                # each orphan.
                for rec, _, waiter in valid:
                    waiter.succeed(
                        {
                            "ok": False,
                            "synced": True,
                            "reason": "sync-quorum-lost",
                        }
                    )
                return
            for entry in entries:
                primary_ok[entry.tid] = ack.results.get(entry.tid, (False, ""))
            entries = [
                dataclasses.replace(e, lsn=ack.assigned[e.tid])
                for e in entries
                if primary_ok[e.tid][0] and e.tid in ack.assigned
            ]
            for rec, _, _ in valid:
                if primary_ok[rec.tid][0]:
                    rec.synced = True
        sec_targets = [
            target
            for target in self.replication.sync_targets(rset)
            if self._peer_up(target)
        ]
        good_entries = [e for e in entries if primary_ok[e.tid][0]]
        # The primary's record is one of the W copies; eager rounds leave
        # ``needed`` empty and wait for every live secondary.
        needed = (
            {e.tid: max(1, quorum_w - 1) for e in good_entries}
            if is_quorum
            else {}
        )
        acks = {}
        if sec_targets and good_entries:
            acks = yield from self._ship_batch_round(
                doc_name, sec_targets, good_entries, needed=needed,
                bounded=bounded, parent_span=round_parent(good_entries),
            )
            if self._outbox_died(box, incarnation):
                return
        for rec, _, waiter in valid:
            p_ok, p_reason = primary_ok[rec.tid]
            durable = 1 if p_ok else 0
            sec_oks = 0
            stale = p_reason == "stale-epoch"
            for ack in acks.values():
                result = ack.results.get(rec.tid)
                if result is None:
                    continue
                if result[0]:
                    sec_oks += 1
                elif result[1] == "stale-epoch":
                    stale = True
            durable += sec_oks
            if is_quorum:
                self.stats.sync_acks_awaited += sec_oks
                quorum_lost = durable < quorum_w
            elif self.membership is not None:
                # Eager lease-mode sync quorum (the no-split-brain rule):
                # a durable majority of the replica set, with the
                # primary's record mandatory. A primary cut off from its
                # peers, or a coordinator whose syncs fell into a
                # partition, cannot reach it: the minority side never
                # commits.
                quorum_lost = 2 * durable <= rset.degree or not p_ok
            else:
                # Eager perfect mode: the primary's record is the one
                # hard requirement; a secondary that died mid-round
                # catches up from the primary's log later.
                quorum_lost = not p_ok
            if stale:
                reason = "stale-epoch"
            elif quorum_lost:
                reason = "sync-quorum-lost"
            else:
                reason = ""
            waiter.succeed(
                {
                    "ok": not stale and not quorum_lost,
                    "synced": rec.synced or p_ok or sec_oks > 0,
                    "reason": reason,
                }
            )

    def _commit_transaction(self, rec: CoordinatorRecord):
        """Algorithm 5. Returns True on commit, False to fall into abort."""
        self._check_alive()
        if rec.abort_requested:
            return False
        if (rec.view_served_ops and rec.view_served_ops == len(rec.tx.operations)
                and not rec.tx.sites_involved):
            # Every operation was answered by a view host and no attempt
            # was routed to a site (one that fell back and timed out may
            # still have executed there): no site holds any state for the
            # transaction, so there are no locks to release, nothing to
            # sync and no 2PC round.
            return True
        if self.replication.syncs_at_commit:
            synced_ok = yield from self._span(
                self._sync_replicas(rec), "replica_sync", "sync",
                rec.op_span or rec.root_span, rec,
            )
            if not synced_ok:
                return False
        # sites_involved is a set: iterate it in sorted order so the send
        # sequence (and with it the jitter stream each message draws from)
        # is reproducible across processes, not just within one.
        others = sorted(
            (s for s in rec.tx.sites_involved if s != self.site_id), key=str
        )
        live = [s for s in others if self._peer_up(s)]
        if len(live) < len(others) and not rec.synced:
            # A participant died holding this transaction's state and
            # nothing is durable beyond the survivors: unwind.
            rec.abort_reason = rec.abort_reason or "participant-crashed"
            return False
        if live:
            rnd = rec.round = Round(self.env, "commit", live, tag="commit")
            for site in live:
                self._send_in_span(site, rec.op_span, CommitRequest(
                    tid=rec.tid, coordinator=self.site_id, span=rec.op_span,
                ))
            if self._maybe_crash("commit-request-sent"):
                raise _SiteCrashed()
            acks = yield from self._await_coordinator_round(rec)
            self._check_alive()
            ok_acks = [a for a in acks.values() if a.ok]
            refused = [a for a in acks.values() if not a.ok]
            # Crashed mid-round or never answered: outcome unknown.
            ambiguous = bool(rnd.dropped or rnd.pending)
            if refused or (ambiguous and not rec.synced):
                if ok_acks or ambiguous:
                    # Participants commit on receipt: those that acked ok
                    # (or died before answering) may hold committed state.
                    # A clean abort is no longer truthful — degrade to
                    # fail-with-state-kept (the paper's fail semantics).
                    rec.partial_commit = True
                if ambiguous and not refused:
                    rec.abort_reason = "participant-crashed"
                return False
        cost = self._settle(rec.tid, "commit")
        if cost:
            yield cost
            self._check_alive()
        return True

    def _abort_transaction(self, rec: CoordinatorRecord):
        """Algorithm 6. Returns True when the abort executed everywhere;
        False means the transaction *failed* (fail notices were sent)."""
        self._check_alive()
        others = sorted(
            (s for s in rec.tx.sites_involved if s != self.site_id), key=str
        )
        live = [s for s in others if self._peer_up(s)]
        # Once the commit-time sync recorded the updates durably beyond the
        # primary (or part of the commit round applied), there is no
        # replica-wide undo: undoing at the primary alone would diverge the
        # replicas. Keep the effects everywhere and fail the transaction
        # instead (the paper's fail semantics: state is kept, the
        # application is alerted). Every involved site persists its kept
        # effects so the primary — which may be a remote participant —
        # stays durably identical to the secondaries that persisted during
        # the sync. A refused abort fails too, persisting nothing.
        persist = failed = rec.synced or rec.partial_commit
        if live and not persist:
            rec.round = Round(self.env, "abort", live, tag="abort")
            for site in live:
                self._send_in_span(site, rec.op_span, AbortRequest(
                    tid=rec.tid, coordinator=self.site_id, span=rec.op_span,
                ))
            acks = yield from self._await_coordinator_round(rec)
            self._check_alive()
            failed = not all(a.ok for a in acks.values())
        if failed:
            for site in live:
                self.network.send(self.site_id, site, FailNotice(tid=rec.tid, persist=persist))
            self._settle(rec.tid, "fail", persist)
            return False
        cost = self._settle(rec.tid, "abort")
        if cost:
            yield cost
            self._check_alive()
        return True

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop this site: volatile state vanishes, messages drop.

        In-memory documents, the lock table, the wait-for graph,
        transaction contexts, queued messages and in-flight coordinator
        state are all lost; the storage backend and the update logs survive
        (disk). In-flight transactions coordinated here are reported
        'failed' to their clients (the connection died); their state at
        live participants is settled by those sites when the failure
        monitor's SiteDownNotice arrives.
        """
        if not self.alive:
            return
        self.alive = False
        self.stats.crashes += 1
        # First, while the in-flight change records are still there to
        # derive the committed state from: what storage deferred rendering
        # of becomes durable text. The live documents stay listed (recover
        # reloads each from storage).
        self.data_manager.crash()
        # Sever the clients: every in-flight coordinated transaction is
        # ambiguous from the client's point of view. The pending events are
        # triggered so the coordinator generators resume, observe the crash
        # (_check_alive) and unwind without further effects.
        for rec in list(self.coordinators.values()):
            rec.tx.state = TxState.FAILED
            rec.tx.abort_reason = "site-crashed"
            self._finish(rec, "failed", "site-crashed")
            self.stats.fails += 1
            if rec.round is not None:
                rec.round.cancel()
            if rec.wake_event is not None and not rec.wake_event.triggered:
                rec.wake_event.succeed({})
        self.tx_contexts.clear()
        self.waiters.clear()
        self._deferred_wake_keys.clear()
        # Outboxes are volatile: a sync batch's waiter fires with None so
        # its (already-failed) coordinator unwinds, in staging order; lazy
        # entries are lost (the lazy regime's documented loss window).
        for box in self._sync_outboxes.values():
            self._outbox_died(box, self.incarnation)
        self._sync_outboxes.clear()
        self._lazy_outboxes.clear()
        # Every in-flight round dies with the site; its waiter resumes,
        # sees the crash and unwinds (view reads fall back to the locked
        # path). The kinds settle in a fixed order, catch-up after the
        # catch-up gates: it is the order the waiters resume in.
        for kind in ("sync", "probe", "view_read", "view_fetch"):
            for rnd in self._rounds_of(kind):
                rnd.cancel()
        # Staged view entries and hosted shadows are volatile too.
        self.views.crash()
        if self.membership is not None:
            # The lease table and election state are volatile: a recovered
            # site re-learns the world from the heartbeats that greet it.
            self.membership = SiteMembership(
                lease_timeout_ms=self.config.lease_timeout_ms
            )
            self._elections.clear()
        self.wfg = WaitForGraph()
        self.lock_manager = LockManager(LockTable(self.protocol.matrix), self.wfg)
        self.inbox.clear()
        self.remote_ops.clear()
        for gate in list(self._catchup_gates.values()):
            if not gate.triggered:
                gate.succeed(None)
        self._catchup_gates.clear()
        for rnd in self._rounds_of("catchup"):
            rnd.cancel()
        self._rounds.clear()
        self.faults.on_site_crashed(self.site_id)

    def _rounds_of(self, kind: str) -> list[Round]:
        return [rnd for rnd in self._rounds.values() if rnd.kind == kind]

    def recover(self) -> None:
        """Restart after a crash: reload persisted state and catch up.

        In-memory documents are re-materialized from the storage backend
        (last persisted state), protocol structures are rebuilt, and — once
        back on the network — every replicated document this site does not
        lead is caught up from its current primary by log replay (or
        snapshot transfer when the logs diverged). A deposed primary comes
        back as a secondary: the epoch bump that accompanied its
        replacement keeps it deposed.
        """
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        self.stats.recoveries += 1
        for name in self.data_manager.live_documents():
            doc, _ = self.data_manager.reload(name)
            self.protocol.register_document(doc)
        self.faults.on_site_recovered(self.site_id)
        self.env.process(self._recovery_catchup())

    def _recovery_catchup(self):
        yield (self.costs.scheduler_dispatch_ms)
        for name in sorted(self.data_manager.live_documents()):
            if not self.alive:
                return
            if not self.catalog.has_document(name):
                continue
            rset = self.catalog.replica_set(name)
            if not rset.is_replicated or rset.primary == self.site_id:
                continue
            # A primary can transiently be unable to answer (mid-election,
            # in-flight log holes): retry a few times rather than staying
            # stale until the next sync happens to trigger gap healing.
            for _ in range(4):
                caught_up = yield from self._traced_catch_up(name)
                if caught_up or not self.alive:
                    break
                yield (CATCHUP_TIMEOUT_MS / 4)
                if not self.alive:
                    return
                rset = self.catalog.replica_set(name)
                if rset.primary == self.site_id:
                    break
        yield from self.views.recover()

    def _on_site_down(self, msg: SiteDownNotice) -> None:
        """React to the failure monitor's crash announcement (or, in lease
        mode, to this site's own suspicion of the peer).

        Three duties: void coordinated transactions that executed state at
        the dead site (their locks and effects died with it), unstick
        coordinators waiting on responses/acks/locks from it, and settle
        orphaned transactions the dead site coordinated — commit when
        their updates were already replicated (an undo would diverge from
        the synced secondaries), abort otherwise.
        """
        down = msg.site
        if not self.alive or down == self.site_id:
            return
        detector = self.detector
        if detector is not None and detector.round is not None:
            detector.round.drop(down)
        for rec in list(self.coordinators.values()):
            if down in rec.executed_sites and not rec.tx.done:
                rec.abort_requested = True
                rec.abort_reason = rec.abort_reason or "participant-crashed"
            if rec.round is not None:
                rec.round.drop(down)
            # Any lock the dead site held is gone: retry waiting work.
            self._wake(rec)
        # Sync, probe and view-read rounds waiting on the dead site settle
        # with the answers that did arrive: the sync path lets it catch up
        # later, the read path re-probes without it, a view read falls back
        # to the locked path at once. Catch-up and view fetches ride out
        # their timeouts.
        for kind in ("sync", "probe", "view_read"):
            for rnd in self._rounds_of(kind):
                rnd.drop(down)
        for tid, ctx in list(self.tx_contexts.items()):
            if ctx.coordinator != down or tid in self.coordinators:
                continue
            self._settle(tid, "commit" if ctx.synced else "abort")
            self.stats.orphans_resolved += 1

    def _on_site_up(self, msg: SiteUpNotice) -> None:
        """A site recovered: if it leads a document we replicate, nudge our
        catch-up — its outage may have swallowed our earlier attempts."""
        up = msg.site
        if not self.alive or up == self.site_id:
            return
        for name in self.data_manager.live_documents():
            if not self.catalog.has_document(name):
                continue
            rset = self.catalog.replica_set(name)
            if rset.is_replicated and rset.primary == up and self.site_id in rset:
                self.nudge_catch_up(name)

    # ------------------------------------------------------------------
    # lease-based membership (failure_detector="lease")
    # ------------------------------------------------------------------

    def _membership_peers(self) -> list:
        """Every other registered site, in deterministic order."""
        return sorted(
            (s for s in self.network.site_ids if s != self.site_id), key=str
        )

    def _heartbeat_loop(self):
        """Broadcast this site's liveness (and membership facts) forever.

        Every beat carries the sender's incarnation, its applied-LSN
        watermark per hosted replicated document (log compaction input)
        and its (epoch, primary) view per such document (so election
        results keep disseminating after the one-shot announce). A dead
        site simply skips its beats — silence *is* the failure signal.
        """
        catalog = self.catalog
        live = self.data_manager
        # The documents a beat covers (hosted, catalogued, replicated, in
        # name order) move only with the live set and the placement.
        seen = None
        while True:
            yield (HEARTBEAT_INTERVAL_MS)
            if not self.alive:
                continue
            version = (live.live_version, catalog.placement_version)
            if version != seen:
                seen = version
                names = [
                    name for name in live.live_documents()
                    if catalog.has_document(name)
                    and catalog.replica_set(name).is_replicated
                ]
            watermarks: dict = {}
            views: dict = {}
            for name in names:
                watermarks[name] = self.log_for(name).applied_lsn
                views[name] = catalog.view_of(name)
            self._heartbeat_seq += 1
            beat = HeartbeatMessage(
                sender=self.site_id,
                incarnation=self.incarnation,
                seq=self._heartbeat_seq,
                watermarks=watermarks,
                views=views,
            )
            peers = self._membership_peers()
            for peer in peers:
                self.network.send(self.site_id, peer, beat)
            self.stats.heartbeats_sent += len(peers)

    def _lease_check_loop(self):
        """Expire peers' leases; suspicion is the lease-mode 'down' event."""
        while True:
            self.membership.grace(self._membership_peers(), self.env.now)
            yield (HEARTBEAT_INTERVAL_MS)
            if not self.alive:
                continue
            for peer in self._membership_peers():
                if self.membership.is_live(peer) and self.membership.lease_expired(
                    peer, self.env.now
                ):
                    self._suspect(peer)

    def _suspect(self, peer: Hashable) -> None:
        """This site now believes ``peer`` is down (it may be wrong).

        Everything the perfect detector's SiteDownNotice did, done on a
        local belief instead: unstick coordinators, settle orphans, drop
        the peer from ack rounds — all of which stays correct under false
        suspicion because unsynced orphans abort and synced ones commit,
        the same outcome the (alive) coordinator converges to from its
        side of the cut. Then start elections for every hosted document
        the suspect led.
        """
        self.membership.suspected.add(peer)
        self.stats.suspicions += 1
        # Oracle read for *statistics only* (never behaviour): was this
        # suspicion false? The experiment sweeps report it.
        if self.faults.sites[peer].alive:
            self.stats.false_suspicions += 1
        self._on_site_down(SiteDownNotice(site=peer))
        for name in sorted(self.data_manager.live_documents()):
            if not self.catalog.has_document(name):
                continue
            rset = self.catalog.replica_set(name)
            if rset.is_replicated and rset.primary == peer:
                self._maybe_start_election(name)

    def _on_heartbeat(self, msg: HeartbeatMessage) -> None:
        if not self.alive or self.membership is None:
            return
        sender = msg.sender
        came_back = self.membership.heard_from(sender, self.env.now, msg.incarnation)
        # Kept as sent: every beat builds its own dicts and nothing
        # changes them.
        watermarks = self.membership.watermarks[sender] = msg.watermarks
        views = msg.views
        if views != self._views_heard.get(sender):
            for doc_name, (epoch, primary) in sorted(views.items()):
                self._adopt_view(doc_name, primary, epoch)
            self._views_heard[sender] = views
        # Anti-entropy: the primary's heartbeat advertises its applied
        # watermark. A replica that sees itself behind reconciles by
        # catch-up — this is what heals a batch whose sync fell into a cut
        # too short to trigger suspicion (no election, no gap-detecting
        # next write: without this nudge the divergence would be silent
        # and permanent).
        for rset in self.catalog.led_by().get(sender, ()):
            doc_name = rset.doc_name
            watermark = watermarks.get(doc_name)
            if (
                watermark is not None
                and watermark > self.log_for(doc_name).applied_lsn
            ):
                self.nudge_catch_up(doc_name)
        if came_back:
            # False suspicion (or a recovery we had written off): the peer
            # is talking again. Re-run the perfect detector's up-notice
            # duties — if it leads documents we host, our catch-up attempts
            # may have been swallowed while we thought it dead.
            self._on_site_up(SiteUpNotice(site=msg.sender))
        self._compact_leading_logs(msg.watermarks)

    def _compact_leading_logs(self, advertised: dict) -> None:
        """Checkpoint the update logs of documents this site leads.

        An entry every replica's reported watermark has passed can never
        be needed by a catch-up request again (requests ask for entries
        *above* the requester's watermark): fold it into the snapshot
        base. A silent replica freezes the floor — compaction simply
        stalls rather than compacting past anyone. Only the documents the
        just-received heartbeat ``advertised`` are rechecked: nothing
        else's floor can have moved.
        """
        for rset in self.catalog.led_by().get(self.site_id, ()):
            name = rset.doc_name
            if name not in advertised or name not in self.logs:
                continue
            floor = min(
                self.membership.watermark_of(peer, name)
                for peer in rset.secondaries
            )
            if floor > self.log_for(name).base_lsn:
                self.stats.log_entries_compacted += self.log_for(name).compact_to(
                    floor
                )

    def _adopt_view(self, doc_name: str, primary: Hashable, epoch: int) -> None:
        """Apply a newer (epoch, primary) fact to this site's catalog view."""
        if not self.catalog.has_document(doc_name):
            return
        if not self.catalog.apply_primary(doc_name, primary, epoch):
            return  # stale fact: an older election we already know about
        self.stats.announces_applied += 1
        # A view change can moot a running election (someone already won).
        # The election generator re-checks the view each round; nothing to
        # cancel here. But a replica that just learned of a new primary may
        # hold batches the old one never shipped — reconcile.
        if primary != self.site_id:
            rset = self.catalog.replica_set(doc_name)
            if self.site_id in rset:
                self.nudge_catch_up(doc_name)

    def _on_primary_announce(self, msg: PrimaryAnnounce) -> None:
        if not self.alive or self.membership is None:
            return
        self._adopt_view(msg.doc_name, msg.primary, msg.epoch)

    def _on_log_tip_query(self, msg: LogTipQuery) -> None:
        """Answer an elector with this replica's durable log tip.

        Any live replica answers — including a falsely suspected primary,
        whose report is proof of life and cancels the election.
        """
        if not self.alive or not self.catalog.has_document(msg.doc_name):
            return
        log = self.log_for(msg.doc_name)
        self.network.send(
            self.site_id,
            msg.elector,
            LogTipReport(
                doc_name=msg.doc_name,
                site=self.site_id,
                election_id=msg.election_id,
                applied_lsn=log.applied_lsn,
                max_recorded_lsn=log.max_recorded_lsn,
                epoch=self.catalog.epoch(msg.doc_name),
            ),
        )

    def _maybe_start_election(self, doc_name: str) -> None:
        if not self.alive or doc_name in self._elections:
            return
        rset = self.catalog.replica_set(doc_name)
        if not rset.is_replicated or self.site_id not in rset:
            return
        if rset.primary == self.site_id or self.membership.is_live(rset.primary):
            return
        # Elections serve the whole replica set, not one transaction:
        # global span (parent 0).
        self.env.process(self._span(
            self._run_election(doc_name), "election", "election", about=doc_name
        ))

    def _run_election(self, doc_name: str):
        """Elect a new primary for ``doc_name`` over the wire.

        One round: query every replica's log tip, wait
        ``ELECTION_TIMEOUT_MS``, then decide. Deciding requires reports
        from a **majority** of the replica set (the elector's own tip
        included) — the minority side of a partition can suspect all it
        wants, it can never elect, which is half of the no-split-brain
        argument (the other half is the deposed primary's lease/quorum
        loss). The most-caught-up reporter wins, placement order breaking
        ties — the same rule the perfect monitor applied, computed from
        messages instead of shared memory. Only the winner *assumes*
        primacy; everyone else waits for its announce (the winner is
        reachable, so its own suspicion of the old primary drives its own
        election). A report from the suspected primary itself cancels the
        round: it is alive, we were wrong.
        """
        eid = self._new_round_id()
        self._elections[doc_name] = eid
        self.stats.elections_started += 1
        try:
            while self.alive:
                rset = self.catalog.replica_set(doc_name)
                suspect = rset.primary
                if suspect == self.site_id or self.membership.is_live(suspect):
                    return  # the world moved on: re-elected, or falsely suspected
                epoch = self.catalog.epoch(doc_name)
                own_log = self.log_for(doc_name)
                candidates = [c for c in rset.all_sites if c != self.site_id]
                # Every try of one election answers to the same id.
                rnd = self._rounds[eid] = Round(self.env, "election", candidates, NEVER)
                reports = rnd.replies
                reports[self.site_id] = LogTipReport(
                    doc_name=doc_name,
                    site=self.site_id,
                    election_id=eid,
                    applied_lsn=own_log.applied_lsn,
                    max_recorded_lsn=own_log.max_recorded_lsn,
                    epoch=epoch,
                )
                for candidate in candidates:
                    self.network.send(
                        self.site_id,
                        candidate,
                        LogTipQuery(
                            doc_name=doc_name,
                            elector=self.site_id,
                            election_id=eid,
                            epoch=epoch,
                        ),
                    )
                yield from rnd.wait(ELECTION_TIMEOUT_MS)
                self._rounds.pop(eid, None)
                if not self.alive:
                    return
                if suspect in reports or self.membership.is_live(suspect):
                    # Proof of life — a log-tip report from the suspect, or
                    # its heartbeats resumed while we collected votes (a
                    # short partition healing mid-election). Deposing a
                    # live primary would be safe (fencing) but needless.
                    return
                current = self.catalog.epoch(doc_name)
                if current > epoch or any(r.epoch > current for r in reports.values()):
                    return  # someone already elected under a newer epoch
                if 2 * len(reports) <= rset.degree:
                    # No majority reachable: this side of the cut must not
                    # elect. Keep retrying — the partition may heal, or we
                    # may be the minority forever (then nothing commits
                    # here, which is exactly the point).
                    self.stats.elections_no_quorum += 1
                    yield (self.config.lease_timeout_ms)
                    continue
                winner = rset.most_caught_up(
                    {site: r.applied_lsn for site, r in reports.items()}
                )
                if winner != self.site_id:
                    # The winner reported, so it is live on our side; its
                    # own election will promote it. Re-check later in case
                    # that never happens (e.g. its suspicion lags ours).
                    yield (self.config.lease_timeout_ms)
                    continue
                self.assume_primacy(doc_name)
                return
        finally:
            self._rounds.pop(eid, None)
            if self._elections.get(doc_name) == eid:
                del self._elections[doc_name]

    # ------------------------------------------------------------------
    # update-log catch-up (recovery and gap healing)
    # ------------------------------------------------------------------

    def nudge_catch_up(self, doc_name: str) -> None:
        """Reconcile one document with its current primary, asynchronously.

        The anti-entropy entry point used by the failure monitor after a
        promotion and by SiteUpNotice handling; a no-op when this site is
        already caught up (the catch-up response carries no entries)."""
        def _run():
            yield (self.costs.scheduler_dispatch_ms)
            if self.alive:
                yield from self._traced_catch_up(doc_name)
        self.env.process(_run())

    def _traced_catch_up(self, doc_name: str, force_snapshot: bool = False):
        # Anti-entropy repair is lazy background work shared by many
        # transactions: global span (parent 0), so a committed tree's
        # "ends after all children" invariant never depends on it.
        return self._span(
            self._catch_up(doc_name, force_snapshot), "catch_up", "sync", about=doc_name
        )

    def _catch_up(self, doc_name: str, force_snapshot: bool = False):
        """Close this replica's log gap from the current primary.

        Sends a CatchUpRequest describing the local log tip and applies
        the response — the missing log suffix, or a full snapshot when the
        tips diverged (this replica applied batches of a deposed primary).
        ``force_snapshot`` requests the snapshot outright, and replay
        escalates to it on its own when it finds a *phantom* (a local
        entry whose LSN the new timeline reused under a newer epoch).
        Serialized per document through ``_catchup_gates``; bounded by
        ``CATCHUP_TIMEOUT_MS`` so a primary crashing mid-catch-up
        cannot wedge this site. Returns True when a primary response was
        received and fully processed (the log may still have commuting
        holes).
        """
        gate = self._catchup_gates.get(doc_name)
        if gate is not None:
            yield gate  # another catch-up is in flight; ride on it
            return False
        if not self.data_manager.is_loaded(doc_name):
            # The copy was retired (migration drop) after this catch-up was
            # queued — e.g. recovery iterating a document list captured
            # before the retire. Nothing to reconcile here any more.
            return False
        # A migration placeholder has no base state for log replay to build
        # on: *every* catch-up path (nudge, sync-gap heal, recovery) must
        # pull the snapshot until real document state has been installed.
        if self.holds_placeholder(doc_name):
            force_snapshot = True
        rset = self.catalog.replica_set(doc_name)
        primary = rset.primary
        if primary == self.site_id or not self._peer_up(primary):
            return False
        gate = self.env.event()
        self._catchup_gates[doc_name] = gate
        try:
            for _ in range(2):  # second round only to escalate to snapshot
                log = self.log_for(doc_name)
                resp = yield from self._pull(
                    "catchup", doc_name, primary, log.applied_lsn,
                    # The sentinel epoch never matches: the primary's
                    # divergence branch answers with a snapshot.
                    -1 if force_snapshot else log.last_epoch,
                )
                if resp is None or not self.data_manager.is_loaded(doc_name):
                    # Crashed, timed out, the primary is mid-election (retry
                    # later) or the copy retired while the request flew.
                    return False
                cost = self.costs.scheduler_dispatch_ms
                if resp.snapshot is not None:
                    cost += self._install_snapshot(doc_name, resp)
                    self.stats.catchup_snapshots += 1
                replayed = 0
                phantom = False
                for entry in resp.entries:
                    log = self.log_for(doc_name)
                    existing = log.entries.get(entry.lsn)
                    if existing is not None and existing.epoch != entry.epoch:
                        # Local phantom occupies this slot with a deposed
                        # timeline's data: replay cannot reconcile.
                        phantom = True
                        break
                    if log.has(entry.lsn):
                        continue  # already applied (e.g. by a concurrent sync)
                    cost += self._apply_log_entry(entry)[0]
                    replayed += 1
                self.stats.catchup_entries_replayed += replayed
                self.stats.catchups += 1
                yield (cost)
                if not phantom:
                    return True
                if not self.alive or force_snapshot:
                    return False
                force_snapshot = True  # escalate: full state transfer
            return False
        finally:
            self._catchup_gates.pop(doc_name, None)
            if not gate.triggered:
                gate.succeed(None)

    def _pull(self, kind: str, doc_name: str, primary: Hashable,
              after_lsn: Optional[int] = None, last_epoch: int = 0):
        """Ask ``primary`` for ``doc_name`` in one round of ``kind`` and wait
        up to ``CATCHUP_TIMEOUT_MS``: the :class:`CatchUpResponse`, or None
        when none came, it was not ok, or this site crashed meanwhile.

        The one pull of a replica's catch-up (kind ``catchup``, naming its
        log tip) and a view host's hydration (``view_fetch``, no tip: a
        snapshot). The two kinds stay apart because a crash cancels them
        at different points of its fixed order.
        """
        req_id, rnd = self._open_round(kind, (primary,))
        self.network.send(self.site_id, primary, CatchUpRequest(
            doc_name=doc_name, requester=self.site_id, req_id=req_id,
            after_lsn=after_lsn, last_epoch=last_epoch,
        ))
        got = yield from rnd.wait(CATCHUP_TIMEOUT_MS)
        self._rounds.pop(req_id, None)
        resp = got.get(primary) if got else None
        if not self.alive or resp is None or not resp.ok:
            return None
        return resp

    def _install_snapshot(self, doc_name: str, resp: CatchUpResponse) -> float:
        """Replace the local replica with the primary's committed state.

        The snapshot is the message's own copy of the tree, adopted as it
        is; materialising it is charged on its serialized size."""
        doc = resp.snapshot
        persisted = self.data_manager.replace(doc)
        self.protocol.register_document(doc)
        self.log_for(doc_name).reset_to_snapshot(resp.snapshot_lsn, resp.snapshot_epoch)
        return (
            (resp.snapshot_size / 1024.0) * self.costs.parse_per_kb_ms
            + (persisted / 1024.0) * self.costs.persist_per_kb_ms
        )

    def _handle_catchup_request(self, msg: CatchUpRequest):
        if not self.alive:
            return
        yield (self.costs.scheduler_dispatch_ms)
        if not self.alive:
            return
        doc_name = msg.doc_name
        # A view host keeps no log and names no tip: it takes the snapshot.
        log = None if msg.after_lsn is None else self.log_for(doc_name)
        if self.catalog.replica_set(doc_name).primary != self.site_id:
            # Mid-failover race: the requester asked a site that is not
            # (or no longer) the primary. Tell it to retry later.
            resp = CatchUpResponse(doc_name=doc_name, req_id=msg.req_id, ok=False)
        elif (
            log is not None
            and log.can_serve_after(msg.after_lsn)
            and log.epoch_at(msg.after_lsn) == msg.last_epoch
        ):
            # Same timeline: serve the gapless run directly above the
            # requester's tip. Entries past this log's own first hole (a
            # racing batch still in flight to us) are withheld — the
            # requester heals them on a later trigger.
            resp = CatchUpResponse(
                doc_name=doc_name,
                req_id=msg.req_id,
                entries=list(log.contiguous_entries_after(msg.after_lsn)),
            )
        elif (snap := self._committed_snapshot(doc_name)) is None:
            # A snapshot is due, but the log has in-flight holes; the
            # requester retries.
            resp = CatchUpResponse(doc_name=doc_name, req_id=msg.req_id, ok=False)
        else:
            # A view host, or a replica whose log tip is not on this
            # primary's timeline (phantom entries applied under a deposed
            # primary, or a tip older than this log's own snapshot base):
            # ship full state, stamped with the epoch the receiver's next
            # entries are fenced against.
            snapshot, size, lsn = snap
            resp = CatchUpResponse(
                doc_name=doc_name,
                req_id=msg.req_id,
                snapshot=snapshot,
                snapshot_size=size,
                snapshot_lsn=lsn,
                snapshot_epoch=(
                    self.catalog.epoch(doc_name) if log is None else log.last_epoch
                ),
            )
        self.network.send(self.site_id, msg.requester, resp)

    def _committed_snapshot(self, doc_name: str):
        """``(tree, size, lsn)`` of this site's committed state of
        ``doc_name``, for catch-up and view hydration (each caller stamps
        its own epoch); None unless this site leads and hosts the document
        with a hole-free log (with holes the state has no single LSN to
        stamp it with; they close within a round trip)."""
        if (
            not self.catalog.has_document(doc_name)
            or self.catalog.replica_set(doc_name).primary != self.site_id
            or not self.data_manager.is_loaded(doc_name)
        ):
            return None
        log = self.log_for(doc_name)
        if log.applied_lsn != log.max_recorded_lsn:
            return None
        snapshot, size = self.data_manager.snapshot(doc_name)
        return snapshot, size, log.applied_lsn

    # ------------------------------------------------------------------
    # the lazy secondaries' subscription (the view hosts': repro.views)
    # ------------------------------------------------------------------

    def _log_and_queue_lazy(self, tid: TxId, ctx: SiteTxContext,
                            logged_during_sync: set) -> None:
        """Record the updates of ``tid`` that no sync round shipped, on the
        replicated documents this site leads, and stage them for the
        secondaries. Called before the locks release (commit) or at fail
        time, so log order = settle order. Lazy commits: every document, no
        persist (the commit fold does it). Commit-sync regimes (kept
        effects, orphan commits): only documents missing from
        ``logged_during_sync`` (``ctx.stable_applied`` before the fold; an
        orphan can commit with one log-only sync arrived and another lost),
        persisted at once — an unlogged kept effect would be invisible to
        catch-up and diverge the replicas for good.
        """
        if self.replication.is_lazy:
            already_logged, persist = frozenset(), False
        elif self.replication.syncs_at_commit:
            already_logged, persist = logged_during_sync, True
        else:
            return
        for doc_name, ops in ctx.executed_updates_by_doc().items():
            rset = self.catalog.replica_set(doc_name)
            if rset.primary != self.site_id or not rset.is_replicated:
                continue
            if doc_name in already_logged:
                continue  # the sync round already recorded this batch
            entry = UpdateLogEntry(
                lsn=0,
                epoch=self.catalog.epoch(doc_name),
                tid=tid,
                doc_name=doc_name,
                ops=tuple(ops),
            )
            self._record(entry, lazy=True, persist=persist)

    def _push(self, doc_name: str, box: list, incarnation: int):
        """Close the lazy box of ``doc_name`` after ``LAZY_STALENESS_MS``
        and ship its entries to the secondaries: one
        :class:`ReplicaSyncBatch` per live secondary, only when non-empty
        (a secondary that misses it heals through gap catch-up).

        Fire-and-forget and fenced: only while alive in the staging
        incarnation and still leading the document, and only entries of
        the current epoch.
        """
        yield (LAZY_STALENESS_MS)
        if self._lazy_outboxes.get(doc_name) is box:
            del self._lazy_outboxes[doc_name]
        if not self.alive or self.incarnation != incarnation:
            return
        rset = self.catalog.replica_set(doc_name)
        if rset.primary != self.site_id:
            return  # deposed while the entries waited: fenced
        epoch = self.catalog.epoch(doc_name)
        entries = [e for e in box if e.epoch >= epoch]
        if not entries:
            return
        live = [target for target in rset.secondaries if self._peer_up(target)]
        batch_id = self._new_round_id()  # no round: the acks find none
        for target in live:
            self.network.send(
                self.site_id, target, self._sync_batch(doc_name, batch_id, entries)
            )
        self.stats.lazy_batches_propagated += len(live)
        self.stats.lazy_entries_coalesced += len(live) * len(entries)
