"""Online fragment migration: move a replica set while traffic flows.

The elastic-sharding half of the ROADMAP's "millions of users" north star:
a document's placement was fixed at allocation time until now; the
:class:`MigrationManager` moves it — grow the replica set, catch the new
copies up, cut the primary over, retire the old copies — without stopping
client traffic. No new consistency machinery is introduced: every phase
leans on the epoch/LSN substrate of failover, catch-up and quorum
replication.

Phases (per migration)::

    JOIN ──► CATCH-UP ──► CUTOVER ──► DRAIN ──► RETIRE
      │          │            │                    │
      │          │            │                    └─ placement shrinks first
      │          │            └─ epoch bump fences the old primary
      │          └─ snapshot transfer + log replay (existing catch-up path)
      └─ placement grows: every commit now fans to the joiner too
         (the dual-write window)

**JOIN.** Each joining site adopts an empty placeholder and the shared
placement is extended in the same event — from that instant commit-time
replica sync fans to the joiner as well (writes land at old *and* new
copies: the dual-write window), and the joiner's first catch-up round
pulls a full snapshot because its empty log is off every timeline.

**CATCH-UP.** The manager polls until every joiner's applied watermark
reaches the live replicas' recorded tip, re-nudging the ordinary
anti-entropy path (:meth:`DTXSite.nudge_catch_up`) each round — crashes
and partitions during the window only delay the poll, they cannot corrupt
it, because catch-up is idempotent and epoch-fenced.

**CUTOVER** (only when the primary moves). The target checks its own
readiness and promotes itself in one simulation event
(:meth:`DTXSite.assume_primacy` with the goal LSN — the promotion step
failover and the lease election use too), so no commit can slip between
the check and the turn: its log must be contiguous **and** at the goal,
so a committed write can never sit above the new primary's tip when the
epoch turns. The promotion claims the next epoch, so any in-flight sync
stamped by the old primary is refused as ``stale-epoch`` and its
transaction unwinds — the fencing rule that already guards failover
guards cutover. Under the perfect detector the manager calls the target
directly and the shared catalog is the announcement; under the lease
detector the request reaches the target one dispatch later
(:meth:`DTXSite.request_primacy`) and the target broadcasts a
``PrimaryAnnounce`` exactly like an election winner.

**DRAIN / RETIRE.** The placement shrinks first (new operations stop
routing to the leavers), then a drain window lets in-flight requests
finish, then each leaver drops its copy once no in-flight transaction
touches it at that site. A leaver that stays busy or crashed keeps its
(inert, unroutable) copy rather than risking an active transaction.

The manager is schedule-transparent when unused: constructing it spawns
no process and draws no randomness; default-config runs are bit-identical
with or without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from ..errors import ConfigError, DistributionError

#: Phase names, in order; ``done``/``stalled`` are terminal.
PHASES = ("join", "catchup", "cutover", "drain", "retire", "done", "stalled")

#: Cadence of the catch-up / readiness / quiescence polls (ms).
POLL_INTERVAL_MS = 2.0
#: How long the placement shrink rests before copies are dropped (ms) —
#: must comfortably exceed one network round so in-flight requests routed
#: against the old placement land before their copy vanishes.
DRAIN_MS = 5.0
#: Patience per waiting phase; a migration that cannot make progress (e.g.
#: its target never recovers) parks as ``stalled`` with the placement left
#: as a safe superset — data is never dropped on a stalled move.
MAX_POLL_ROUNDS = 500


@dataclass
class Migration:
    """One in-flight (or finished) placement move."""

    doc_name: str
    targets: tuple  # new placement, primary first
    label: str = ""
    started_ms: float = 0.0
    finished_ms: float = 0.0
    phase: str = "join"
    ok: bool = False  # True once the move fully completed
    joined: tuple = ()  # sites that gained a copy
    retired: tuple = ()  # sites that dropped their copy
    kept_inert: tuple = ()  # leavers whose copy could not be dropped safely
    cutover_epoch: int = 0  # epoch the new primary leads under (0 = no cutover)
    done: object = None  # env event, fires with the Migration when terminal

    @property
    def finished(self) -> bool:
        return self.phase in ("done", "stalled")


@dataclass
class MigrationStats:
    started: int = 0
    completed: int = 0
    stalled: int = 0
    replicas_added: int = 0
    replicas_retired: int = 0
    cutovers: int = 0
    log: list = field(default_factory=list)  # (time, doc, old, new, phase)


class MigrationManager:
    """Moves documents' replica sets online, one process per migration.

    Cluster-level, like the failure monitor: it reads log tips and grows or
    shrinks the shared placement directly (the in-process stand-in for the
    admin RPCs of a real deployment). The promotion itself runs at the
    target site, reached by a message under the lease detector.
    """

    def __init__(self, cluster):
        if cluster.replication.write_policy == "all":
            raise ConfigError(
                "online migration requires a primary-copy write regime "
                "(replica_write_policy 'primary', 'quorum' or 'lazy'): the "
                "write-all regime keeps no update logs to catch a joining "
                "replica up from"
            )
        self.cluster = cluster
        self.env = cluster.env
        self.catalog = cluster.catalog  # the shared catalog (placement truth)
        self.sites = cluster.sites
        self.stats = MigrationStats()
        self.active: dict[str, Migration] = {}  # doc -> in-flight migration
        self.history: list[Migration] = []

    # -- public API --------------------------------------------------------

    def migrate(
        self, doc_name: str, targets: Sequence[Hashable], label: str = ""
    ) -> Migration:
        """Start moving ``doc_name`` to ``targets`` (first = new primary).

        Returns immediately with the :class:`Migration` record; its
        ``done`` event fires when the move completes (or parks as
        ``stalled``). One migration per document at a time.
        """
        targets = tuple(targets)
        if not targets:
            raise DistributionError("migration needs at least one target site")
        if len(set(targets)) != len(targets):
            raise DistributionError(f"duplicate sites in migration of {doc_name!r}")
        for s in targets:
            if s not in self.sites:
                raise DistributionError(f"unknown migration target site {s!r}")
        if not self.catalog.has_document(doc_name):
            raise DistributionError(f"document {doc_name!r} not in catalog")
        if doc_name in self.active:
            raise DistributionError(
                f"a migration of {doc_name!r} is already in flight"
            )
        mig = Migration(
            doc_name=doc_name,
            targets=targets,
            label=label,
            started_ms=self.env.now,
            done=self.env.event(),
        )
        self.active[doc_name] = mig
        self.stats.started += 1
        self.stats.log.append(
            (self.env.now, doc_name, self.catalog.sites_for(doc_name), targets, "start")
        )
        self.env.process(self._run(mig))
        return mig

    def quiesced(self) -> bool:
        """True when no migration is in flight."""
        return not self.active

    # -- the migration process ---------------------------------------------

    def _finish(self, mig: Migration, phase: str) -> None:
        mig.phase = phase
        mig.ok = phase == "done"
        mig.finished_ms = self.env.now
        if mig.ok:
            self.stats.completed += 1
        else:
            self.stats.stalled += 1
        self.active.pop(mig.doc_name, None)
        self.history.append(mig)
        self.stats.log.append(
            (
                self.env.now,
                mig.doc_name,
                None,
                self.catalog.sites_for(mig.doc_name),
                phase,
            )
        )
        if mig.done is not None and not mig.done.triggered:
            mig.done.succeed(mig)

    def _run(self, mig):
        doc = mig.doc_name
        if tuple(self.catalog.sites_for(doc)) == mig.targets:
            self._finish(mig, "done")  # placement already exact: no-op
            return
        yield (0.0)  # detach from the caller's event turn

        # -- JOIN: grow the placement; dual-write window opens -------------
        joiners = [s for s in mig.targets if s not in self.catalog.sites_for(doc)]
        pending = list(joiners)
        for _ in range(MAX_POLL_ROUNDS):
            still = []
            for s in pending:
                site = self.sites[s]
                if not site.alive:
                    still.append(s)  # admit once it recovers
                    continue
                site.adopt_placeholder(doc)
                # Same event turn as the placeholder install: a sync can
                # never race between placement extension and hosting.
                existing = self.catalog.sites_for(doc)
                if s not in existing:
                    self.catalog.add(doc, (*existing, s))
                site.nudge_catch_up(doc)
                self.stats.replicas_added += 1
            pending = still
            if not pending:
                break
            yield POLL_INTERVAL_MS
        if pending:
            self._finish(mig, "stalled")
            return
        mig.joined = tuple(joiners)

        # -- CATCH-UP: every joiner reaches the live recorded tip ----------
        mig.phase = "catchup"
        caught_up = yield from self._await_caught_up(doc, joiners)
        if not caught_up:
            self._finish(mig, "stalled")
            return

        # -- CUTOVER: move the primary under an epoch bump -----------------
        mig.phase = "cutover"
        new_primary = mig.targets[0]
        if not (yield from self._cutover(mig, new_primary)):
            self._finish(mig, "stalled")
            return

        # -- DRAIN + RETIRE: shrink the placement, then drop the copies ----
        mig.phase = "drain"
        leavers = [s for s in self.catalog.sites_for(doc) if s not in mig.targets]
        if not self._current_primary_in(doc, mig.targets):
            # A failover raced the move and re-pointed the primary outside
            # the target set: leave the superset placement (safe) rather
            # than shrink it out from under the new regime.
            self._finish(mig, "stalled")
            return
        self.catalog.add(doc, mig.targets)  # new operations stop routing out
        yield DRAIN_MS
        mig.phase = "retire"
        retired, inert = yield from self._retire(doc, leavers)
        mig.retired = tuple(retired)
        mig.kept_inert = tuple(inert)
        self._finish(mig, "done")

    # -- helpers -----------------------------------------------------------

    def _live_recorded_tip(self, doc: str) -> int:
        """The highest LSN durably recorded at any live replica — every
        committed write is at or below it (a committed batch is recorded
        at the primary, and at W-1 further replicas under quorum)."""
        tip = 0
        for s in self.catalog.sites_for(doc):
            site = self.sites[s]
            if site.alive and site.data_manager.is_loaded(doc):
                tip = max(tip, site.log_for(doc).max_recorded_lsn)
        return tip

    def _await_caught_up(self, doc: str, joiners: list):
        """Poll (and re-nudge) until every joiner's applied watermark
        reaches the live recorded tip. The goal is recomputed each round:
        traffic keeps flowing, but the joiners ride the sync fan-out, so
        the gap closes once the snapshot lands."""
        for _ in range(MAX_POLL_ROUNDS):
            goal = self._live_recorded_tip(doc)
            lagging = []
            for s in joiners:
                site = self.sites[s]
                if (
                    not site.alive
                    or site.holds_placeholder(doc)  # snapshot not landed yet
                    or site.log_for(doc).applied_lsn < goal
                ):
                    lagging.append(s)
            if not lagging:
                return True
            for s in lagging:
                site = self.sites[s]
                if site.alive:
                    site.nudge_catch_up(doc)
            yield POLL_INTERVAL_MS
        return False

    def _current_primary_in(self, doc: str, targets: tuple) -> bool:
        # The authoritative belief is the target primary's own view: the
        # shared catalog under the perfect detector, the announce it
        # broadcast under the lease detector.
        return self.sites[targets[0]].catalog.replica_set(doc).primary in targets

    def _cutover(self, mig: Migration, new_primary):
        """Promote ``new_primary`` once it provably holds every committed
        write. The target checks readiness and promotes in one event
        (:meth:`~repro.core.site.DTXSite.assume_primacy`), so no commit
        can land in between; under the lease detector the request travels
        to it first."""
        doc = mig.doc_name
        target = self.sites[new_primary]
        for _ in range(MAX_POLL_ROUNDS):
            goal = self._live_recorded_tip(doc)
            epoch = target.catalog.epoch(doc)
            if self.cluster.config.failure_detector == "lease":
                promoted = target.alive and (
                    yield self.env.process(target.request_primacy(doc, goal))
                )
            else:
                promoted = target.assume_primacy(doc, goal)
            if promoted:
                if target.catalog.epoch(doc) != epoch:  # not a leader already
                    mig.cutover_epoch = target.catalog.epoch(doc)
                    self.stats.cutovers += 1
                return True
            if target.alive:
                target.nudge_catch_up(doc)
            yield POLL_INTERVAL_MS
        return False

    def _retire(self, doc: str, leavers: list):
        """Drop each leaver's copy once it is quiescent; keep it inert
        (placement already excludes it) when it never quiesces."""
        retired, inert = [], []
        for s in leavers:
            site = self.sites[s]
            dropped = False
            for _ in range(MAX_POLL_ROUNDS):
                if site.alive and not site.has_active_work_on(doc):
                    site.drop_document(doc)
                    self.stats.replicas_retired += 1
                    retired.append(s)
                    dropped = True
                    break
                yield POLL_INTERVAL_MS
            if not dropped:
                inert.append(s)
        return retired, inert
