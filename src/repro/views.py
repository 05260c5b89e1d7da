"""Materialized XPath views: asynchronous read replicas for query traffic.

A :class:`ViewDefinition` names an XPath pattern over one or more documents
and a hosting site. The host's :class:`ViewManager` materializes each source
document from a primary snapshot and then maintains it incrementally by
consuming committed :class:`~repro.replication.log.UpdateLogEntry` batches
pushed off the primary (``ViewDeltaBatch`` — a view host is one more
subscriber of the primary's update stream, next to the secondaries, and is
pushed to by the same code as lazy replication). A coordinator routes a
read-only query to a view host when a registered view's pattern
*subsumes* the query and the view's freshness is
within the transaction's staleness bound; the served read takes no locks and
joins no 2PC round.

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

from .errors import ConfigError, UpdateError
from .update.applier import apply_update
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
        return doc_name in self.doc_names and subsumes(self.path, query_path)


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
    """Maintains and serves the view shadows hosted at one site.

    Built lazily by :attr:`DTXSite.views` — a site that hosts no view never
    constructs one, so default schedules are untouched.
    """

    def __init__(self, site) -> None:
        self.site = site
        self.states: dict[str, _ViewState] = {}
        self.trace = None  # tests set a list to record every serve

    def add_doc(self, doc_name: str) -> _ViewState:
        return self.states.setdefault(doc_name, _ViewState())

    def wipe(self) -> None:
        """Crash: the shadows are volatile, recovery re-hydrates."""
        for state in self.states.values():
            state.invalidate()
            state.applied_lsn = 0
            state.epoch = 0
            state.fetching = False

    # -- maintenance -------------------------------------------------------

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
        stats = self.site.stats
        if msg.epoch < state.epoch:
            stats.view_fenced_deltas += 1
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
        stats.view_deltas_applied += applied
        if state.doc is None:
            return cost, True
        if state.applied_lsn >= msg.watermark:
            state.synced_at = self.site.env.now
            return cost, False
        return cost, True

    def _apply_entry(self, state: _ViewState, entry) -> float:
        cost = 0.0
        for op in entry.ops:
            eval_stats = EvalStats()
            try:
                changes = apply_update(op.payload, state.doc, eval_stats)
            except UpdateError:
                # The shadow diverged (lost the replay invariant): drop it
                # and re-hydrate rather than ever serving a wrong answer.
                state.invalidate()
                return cost
            cost += (
                eval_stats.nodes_visited * self.site.costs.node_visit_ms
                + max(1, len(changes)) * self.site.costs.update_apply_ms
            )
        return cost

    # -- serving -----------------------------------------------------------

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
            digest = hashlib.sha256(
                serialize_document(state.doc).encode()
            ).hexdigest()
            self.trace.append(
                {
                    "doc": op.doc_name,
                    "lsn": state.applied_lsn,
                    "epoch": state.epoch,
                    "staleness_ms": staleness,
                    "digest": digest,
                    "at_ms": site.env.now,
                }
            )
        return True, "", 96 * len(result), staleness, state.applied_lsn, cost
