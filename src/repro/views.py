"""Materialized XPath views: asynchronous read replicas for query traffic.

A :class:`ViewDefinition` names an XPath pattern over one or more documents
and a hosting site. A view host is one more subscriber of each document's
update stream, next to the secondaries, as ViP2P's view peers are: every
site's :class:`ViewManager` holds all of this subsystem's behaviour, and the
site only calls its hooks. The host materializes each source document from
a primary snapshot — pulled the way a lagging replica pulls one, by a
:class:`~repro.core.messages.CatchUpRequest` that names no log tip — and
then maintains it incrementally from the committed
:class:`~repro.distribution.replication.UpdateLogEntry` batches the primary
pushes (``ViewDeltaBatch``, every ``view_refresh_ms``). A coordinator routes
a read-only query to a view host when a registered view's pattern
*subsumes* the query and the view's freshness is within
``view_staleness_ms``; the served read takes no locks and joins no 2PC
round.

Correctness never depends on a view being alive: any refusal (not hydrated,
stale, epoch-fenced), timeout or host crash falls back to the normal locked
read path at the coordinator. The maintained state is a full shadow of each
source document, kept exact by replaying the committed log in LSN order —
so a view serve observes precisely the primary's committed state at some
LSN prefix, never a torn or fenced intermediate. (Pruning the shadow to the
pattern's fragment would need inverse-path analysis of the XDGL update
language; the routing/maintenance machinery here is agnostic to it.)

Epoch fencing mirrors ``_ingest_sync_entry``: deltas stamped with an older
epoch than the view's are dropped; a *newer* epoch invalidates the shadow
(the materialized suffix may have been fenced away by failover) and forces
re-hydration from the new primary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Hashable, Sequence

from .config import CATCHUP_TIMEOUT_MS
from .core.context import _AbortTx
from .core.messages import ViewDeltaBatch, ViewReadRequest, ViewReadResult
from .errors import ConfigError, UpdateError
from .update.applier import apply_charged, apply_update
from .xml.model import Document
from .xml.serializer import serialize_document
from .xpath.ast import Axis, LocationPath, NodeTest, NodeTestKind, Step
from .xpath.evaluator import EvalStats, evaluate
from .xpath.parser import parse_xpath


# ----------------------------------------------------------------------
# pattern subsumption
# ----------------------------------------------------------------------

def _test_subsumes(vt: NodeTest, qt: NodeTest) -> bool:
    if vt.kind is not qt.kind:
        return False
    if vt.kind is NodeTestKind.NAME and vt.name == "*":
        return True
    return vt.name == qt.name


def _step_subsumes(v: Step, q: Step) -> bool:
    """One view step covers one query step: test covers, predicates weaker.

    A view step whose predicates are a subset of the query step's selects a
    superset. Predicates are frozen dataclasses and compare by value (a
    path's plan and cached text are not part of its equality), so
    ``[id=4]`` matches ``[id=4]`` regardless of object identity.
    """
    if not _test_subsumes(v.test, q.test):
        return False
    return all(p in q.predicates for p in v.predicates)


def _covers(vsteps: tuple, qsteps: tuple) -> bool:
    if not vsteps:
        return not qsteps
    if not qsteps:
        return False
    v = vsteps[0]
    if v.axis is Axis.DESCENDANT:
        # A descendant step may absorb any prefix of the query path.
        return any(
            _step_subsumes(v, qsteps[i]) and _covers(vsteps[1:], qsteps[i + 1:])
            for i in range(len(qsteps))
        )
    q = qsteps[0]
    if q.axis is Axis.DESCENDANT:
        # The query reaches arbitrary depth; a child step fixes one level.
        return False
    return _step_subsumes(v, q) and _covers(vsteps[1:], qsteps[1:])


def subsumes(view_path: LocationPath, query_path: LocationPath) -> bool:
    """True when every node the query can select matches the view pattern.

    Conservative by construction: only absolute paths over the child /
    descendant axes with name, wildcard, attribute and text() tests are
    reasoned about, and any uncertainty answers False (the read then takes
    the locked path — subsumption gates *routing*, never correctness).
    """
    if not (view_path.absolute and query_path.absolute):
        return False
    return _covers(tuple(view_path.steps), tuple(query_path.steps))


# ----------------------------------------------------------------------
# view definitions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ViewDefinition:
    """An XPath pattern over ``doc_names``, materialized at ``host``."""

    name: str
    pattern: str
    doc_names: tuple
    host: Hashable
    path: LocationPath

    @classmethod
    def define(
        cls,
        name: str,
        pattern: str,
        doc_names: Sequence[str],
        host: Hashable,
    ) -> "ViewDefinition":
        path = parse_xpath(pattern)
        if not path.absolute:
            raise ConfigError(f"view pattern must be absolute: {pattern!r}")
        names = tuple(doc_names)
        if not names:
            raise ConfigError(f"view {name!r} needs at least one document")
        return cls(name=name, pattern=pattern, doc_names=names, host=host, path=path)

    def covers(self, doc_name: str, query_path: LocationPath) -> bool:
        """Whether this view answers ``query_path`` on ``doc_name``; the
        subsumption is decided once per (pattern, query path) object."""
        if doc_name not in self.doc_names:
            return False
        memo = query_path._subsumed
        if memo is None:
            memo = {}
            object.__setattr__(query_path, "_subsumed", memo)  # frozen
        path = self.path
        hit = memo.get(id(path))
        if hit is None or hit[0] is not path:
            hit = memo[id(path)] = (path, subsumes(path, query_path))
        return hit[1]


# ----------------------------------------------------------------------
# per-host maintenance
# ----------------------------------------------------------------------

class _ViewState:
    """Shadow of one source document at a view host (volatile)."""

    __slots__ = ("doc", "applied_lsn", "epoch", "synced_at", "pending", "fetching")

    def __init__(self) -> None:
        self.doc = None  # materialized Document; None until hydrated
        self.applied_lsn = 0
        self.epoch = 0
        self.synced_at = -1.0  # sim-time the shadow last provably matched
        #                        the primary's watermark; -1 = never
        self.pending: dict[int, object] = {}  # out-of-order delta buffer
        self.fetching = False  # one snapshot fetch in flight at a time

    def invalidate(self) -> None:
        self.doc = None
        self.synced_at = -1.0
        self.pending.clear()


class ViewManager:
    """One site's part in the materialized views (``DTXSite.views``).

    Every site has one, and it plays up to three parts: **publisher** at a
    replica of a viewed document (an outbox per document, drained by a push
    loop while the site leads it), **host** of the shadows (``states``) and
    **router** of its coordinators' read-only queries. The site calls in
    through its hooks only: :meth:`offer`, the handlers :meth:`on_delta`
    and :meth:`on_read`, :meth:`route_read`, :meth:`crash` and
    :meth:`recover`. The rounds this opens are the site's (its registry
    and id counter), so a crash settles them in the site's fixed order.
    """

    def __init__(self, site) -> None:
        self.site = site
        self.states: dict[str, _ViewState] = {}
        self.trace = None  # tests set a list to record every serve
        self._outboxes: dict[str, list] = {}  # doc -> entries not yet pushed

    def add_doc(self, doc_name: str) -> _ViewState:
        return self.states.setdefault(doc_name, _ViewState())

    # -- site hooks --------------------------------------------------------

    def offer(self, entry) -> None:
        """Stage an entry the site just recorded, while it leads the
        entry's document (the caller checked that the document has views)."""
        site = self.site
        if site.catalog.replica_set(entry.doc_name).primary == site.site_id:
            self.open_outbox(entry.doc_name).append(entry)

    def crash(self) -> None:
        """The site crashed: staged entries are lost (the hosts see the
        watermark gap and re-hydrate), each outbox stays, emptied, for its
        push loop; the shadows are volatile, recovery re-hydrates them."""
        for box in self._outboxes.values():
            box.clear()
        for state in self.states.values():
            state.invalidate()
            state.applied_lsn = 0
            state.epoch = 0
            state.fetching = False

    def recover(self):
        """Re-hydrate every hosted shadow from its document's current
        primary (run by the site's recovery process, after its catch-ups)."""
        for doc_name in sorted(self.states):
            if not self.site.alive:
                return
            yield from self._fetch(doc_name)

    # -- publisher: the view half of the update stream -----------------------

    def open_outbox(self, doc_name: str) -> list:
        """The outbox of ``doc_name``, opened with its push loop on first
        use (at registration, at every replica: any may come to lead)."""
        box = self._outboxes.get(doc_name)
        if box is None:
            box = self._outboxes[doc_name] = []
            self.site.env.process(self._push_loop(doc_name, box))
        return box

    def _push_loop(self, doc_name: str, box: list):
        """Every ``view_refresh_ms``, for good (the loop survives crashes,
        heartbeat-loop idiom), while the site is up: ship ``box``'s entries
        of the current epoch to every live view host, this site included,
        in ``str`` order — one :class:`~repro.core.messages.ViewDeltaBatch`
        each with the log's gapless watermark, even empty, as the freshness
        beacon that keeps an idle document serveable. A site that does not
        lead the document drops the entries."""
        site = self.site
        catalog = site.catalog
        while True:
            yield (site.config.view_refresh_ms)
            if not site.alive:
                continue
            entries = box.copy()
            box.clear()
            if catalog.replica_set(doc_name).primary != site.site_id:
                continue
            epoch = catalog.epoch(doc_name)
            entries = [e for e in entries if e.epoch >= epoch]
            targets = sorted({v.host for v in catalog.views_for(doc_name)}, key=str)
            watermark = site.log_for(doc_name).applied_lsn
            live = [target for target in targets if site._peer_up(target)]
            batch_id = site._new_round_id()  # no round: the batches are not acked
            for target in live:
                site.network.send(site.site_id, target, ViewDeltaBatch(
                    primary=site.site_id, doc_name=doc_name, batch_id=batch_id,
                    epoch=epoch, watermark=watermark, entries=list(entries),
                ))
            site.stats.view_delta_batches += len(live)
            site.stats.view_deltas_coalesced += len(live) * len(entries)

    # -- host: hydration and maintenance ---------------------------------------

    def hydrate(self, doc_name: str) -> None:
        """Schedule the first snapshot pull of a hosted shadow."""
        self.site.env.process(self._hydrate(doc_name))

    def _hydrate(self, doc_name: str):
        site = self.site
        yield (site.costs.scheduler_dispatch_ms)
        if site.alive:
            yield from self._fetch(doc_name)

    def _fetch(self, doc_name: str):
        """(Re)materialize one hosted shadow from the current primary.

        One fetch in flight per document; a refusal or timeout leaves the
        shadow unhydrated (the next delta that needs hydration retries, and
        reads fall back meanwhile). A host that leads the document itself
        materializes locally.
        """
        site = self.site
        state = self.states.get(doc_name)
        if state is None or state.fetching:
            return
        state.fetching = True
        try:
            if not site.catalog.has_document(doc_name):
                return
            primary = site.catalog.replica_set(doc_name).primary
            if primary == site.site_id:
                snap = site._committed_snapshot(doc_name)
                if snap is None:
                    return  # racing batches in flight; retry later
                cost = self.install_snapshot(doc_name, *snap, site.catalog.epoch(doc_name))
            else:
                if not site._peer_up(primary):
                    return
                resp = yield from site._pull("view_fetch", doc_name, primary)
                if resp is None:
                    return
                cost = self.install_snapshot(
                    doc_name, resp.snapshot, resp.snapshot_size,
                    resp.snapshot_lsn, resp.snapshot_epoch,
                )
            yield (cost)
        finally:
            state.fetching = False

    def install_snapshot(
        self, doc_name: str, snapshot: Document, size: int, lsn: int, epoch: int
    ) -> float:
        """(Re)materialize one shadow from a primary snapshot; returns cost.

        ``snapshot`` is a private copy of the committed tree and becomes the
        shadow as it is; ``size`` is its serialized length in bytes, which
        materialising it is charged on."""
        state = self.add_doc(doc_name)
        state.doc = snapshot
        state.applied_lsn = lsn
        state.epoch = epoch
        state.pending = {
            n: e for n, e in state.pending.items() if n > lsn and e.epoch >= epoch
        }
        state.synced_at = self.site.env.now
        self.site.stats.view_hydrations += 1
        return (size / 1024.0) * self.site.costs.parse_per_kb_ms

    def on_delta(self, msg):
        """Handle one ``ViewDeltaBatch``: apply it, then re-hydrate if it
        left the shadow behind its primary."""
        site = self.site
        if not site.alive:
            return
        cost, need_fetch = self.ingest_delta(msg)
        yield (cost)
        if site.alive and need_fetch:
            yield from self._fetch(msg.doc_name)

    def ingest_delta(self, msg) -> tuple[float, bool]:
        """Apply one ``ViewDeltaBatch``; returns ``(cost_ms, need_hydrate)``.

        Idempotent and epoch-fenced like ``_ingest_sync_entry``: duplicate
        LSNs are no-ops, older-epoch batches are dropped, a newer epoch
        invalidates the shadow (re-hydrate), and a watermark the contiguous
        prefix cannot reach signals a lost batch or failover gap that only
        a fresh snapshot can close.
        """
        state = self.states.get(msg.doc_name)
        if state is None:
            return 0.0, False
        if msg.epoch < state.epoch:
            return 0.0, False
        if state.doc is None:
            return 0.0, True  # awaiting first hydration (or post-crash)
        if msg.epoch > state.epoch:
            state.invalidate()
            return 0.0, True
        for entry in msg.entries:
            if entry.lsn <= state.applied_lsn or entry.lsn in state.pending:
                continue
            state.pending[entry.lsn] = entry
        cost = 0.0
        applied = 0
        while state.doc is not None and state.applied_lsn + 1 in state.pending:
            entry = state.pending.pop(state.applied_lsn + 1)
            cost += self._apply_entry(state, entry)
            if state.doc is None:
                break
            state.applied_lsn = entry.lsn
            applied += 1
        self.site.stats.view_deltas_applied += applied
        if state.doc is None:
            return cost, True
        if state.applied_lsn >= msg.watermark:
            state.synced_at = self.site.env.now
            return cost, False
        return cost, True

    def _apply_entry(self, state: _ViewState, entry) -> float:
        cost = 0.0
        for op in entry.ops:
            try:
                _, charge = apply_charged(
                    self.site.costs, apply_update, op.payload, state.doc
                )
            except UpdateError:
                # The shadow diverged (lost the replay invariant): drop it
                # and re-hydrate rather than ever serving a wrong answer.
                state.invalidate()
                return cost
            cost += charge
        return cost

    # -- host: serving -------------------------------------------------------

    def on_read(self, msg):
        """Serve one routed read from the local shadow — no locks, no tx.

        The refusal reasons (``no-view`` / ``epoch-fenced`` / ``stale``)
        all make the coordinator fall back; only a hydrated, same-epoch,
        within-bound shadow answers.
        """
        site = self.site
        if not site.alive:
            return
        ok, reason, size, staleness, lsn, cost = self.serve(msg.op, msg.epoch, msg.bound_ms)
        tr = site.tracer
        serve_start = site.env.now if tr is not None else 0.0
        yield (site.costs.scheduler_dispatch_ms + cost)
        if not site.alive:
            return
        if tr is not None:
            tr.add(
                "view_serve", "view", site.site_id, tr.live_parent(msg.span),
                serve_start, site.env.now,
                {"doc": msg.op.doc_name, "ok": "1" if ok else "0"},
            )
        site.network.send(site.site_id, msg.coordinator, ViewReadResult(
            tid=msg.tid, read_id=msg.read_id, site=site.site_id, ok=ok,
            reason=reason, result_size=size, staleness_ms=staleness, lsn=lsn,
        ))

    def serve(
        self, op, epoch: int, bound_ms: float
    ) -> tuple[bool, str, int, float, int, float]:
        """Answer one routed read-only query — no locks, no 2PC.

        Returns ``(ok, reason, result_size, staleness_ms, lsn, cost_ms)``.
        Refuses (coordinator falls back to the locked path) when the shadow
        is not hydrated, its epoch differs from the coordinator's view, or
        its freshness exceeds ``bound_ms``.
        """
        site = self.site
        stats = site.stats
        state = self.states.get(op.doc_name)
        if state is None or state.doc is None or state.synced_at < 0.0:
            return False, "no-view", 0, 0.0, 0, 0.0
        if state.epoch != epoch:
            stats.view_epoch_refusals += 1
            return False, "epoch-fenced", 0, 0.0, 0, 0.0
        staleness = site.env.now - state.synced_at
        if staleness > bound_ms:
            stats.view_stale_refusals += 1
            return False, "stale", 0, staleness, 0, 0.0
        eval_stats = EvalStats()
        result = evaluate(op.payload, state.doc, eval_stats)
        cost = eval_stats.nodes_visited * site.costs.node_visit_ms
        stats.view_reads_served += 1
        stats.view_staleness_sum_ms += staleness
        if self.trace is not None:
            self.trace.append({
                "doc": op.doc_name, "lsn": state.applied_lsn, "epoch": state.epoch,
                "staleness_ms": staleness, "at_ms": site.env.now,
                "digest": hashlib.sha256(serialize_document(state.doc).encode()).hexdigest(),
            })
        return True, "", 96 * len(result), staleness, state.applied_lsn, cost

    # -- router: the coordinator side ----------------------------------------

    def route_read(self, rec, op):
        """Answer a query of a read-only transaction from a view host, when
        views are routed (``view_staleness_ms`` > 0) and the document has
        some. True when served; the caller then skips the locked path. The
        host never joins ``sites_involved``: no lock-table operation and no
        2PC round for this read."""
        site = self.site
        if (
            site.config.view_staleness_ms <= 0
            or not site.catalog.has_views(op.doc_name)
            or rec.tx.is_update_transaction
        ):
            return False
        served = yield from site._span(
            self._read(rec, op), "view_read", "view", rec.op_span, rec, op.doc_name,
        )
        if served:
            op.executed = True
            rec.view_served_ops += 1
            site.stats.view_reads_routed += 1
            return True
        site.stats.view_read_fallbacks += 1
        return False

    def _read(self, rec, op):
        """One bounded round per covering live host, in registration order,
        until one answers; False when every candidate refused or timed out
        (every refusal, timeout or host crash falls back to the locked
        path, so correctness never depends on a view)."""
        site = self.site
        epoch = site.catalog.epoch(op.doc_name)
        tried: set = set()
        for view in site.catalog.views_for(op.doc_name):
            host = view.host
            if host in tried:  # per-doc shadow: same answer as before
                continue
            if not view.covers(op.doc_name, op.payload):
                continue
            tried.add(host)
            if not site._peer_up(host):
                continue
            read_id, rnd = site._open_round("view_read", (host,))
            site._send_in_span(host, rec.op_span, ViewReadRequest(
                tid=rec.tid, coordinator=site.site_id, op=op, read_id=read_id,
                epoch=epoch, bound_ms=site.config.view_staleness_ms, span=rec.op_span,
            ))
            got = yield from rnd.wait(CATCHUP_TIMEOUT_MS)
            site._rounds.pop(read_id, None)
            site._check_alive()
            if rec.abort_requested:
                raise _AbortTx(rec.abort_reason or "abort-ordered")
            resp = got.get(host) if got else None
            if resp is not None and resp.ok:
                return True
        return False
