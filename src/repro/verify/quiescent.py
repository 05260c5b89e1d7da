"""One definition of a settled cluster.

The paper's DTX ends every transaction by releasing its locks and waking
its waiters at every site (Algorithms 5 and 6), and replicas must agree
once the system is quiet. :func:`quiescent` lists, after a drained run,
each fact that contradicts that, by kind (:data:`KINDS`), naming its site,
document and transaction where it has one. Only live sites are judged:

* ``catalog``: each site's view holds the newest (epoch, primary);
* ``divergent``, ``shadow``: each loaded copy (a migration placeholder
  aside) and view shadow renders that primary's bytes;
* a site keeps nothing of a transaction or update stream: ``context``,
  ``waiter``, ``turn``, ``lock``, ``wait_edge``, ``deferred_wake``, ``outbox``,
  ``round``, ``coordinator``, ``catchup_gate``, ``pending_change``, or an
  update log that is not contiguous to its tip (``log_hole``);
* no ``client`` process or ``migration`` is still running.

It only reads, so it moves no schedule; no timed path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Optional

from ..xml.serializer import serialize_document as _text

KINDS = (
    "catalog", "divergent", "shadow", "context", "waiter", "turn", "lock", "wait_edge",
    "deferred_wake", "outbox", "round", "coordinator", "catchup_gate",
    "pending_change", "log_hole", "client", "migration",
)


@dataclass(frozen=True)
class Violation:
    kind: str
    site: Hashable = None
    doc: Optional[str] = None
    tid: Hashable = None
    detail: str = ""


def quiescent(cluster) -> list[Violation]:
    """Everything that says ``cluster`` has not settled; ``[]`` if it has."""
    live = [site for site in cluster.sites.values() if site.alive]
    found = list(_replicas(cluster, live))
    for site in live:
        found += leftovers(site)
    found += [
        Violation("client", detail=str(client.client_id))
        for client in cluster.clients
        if not client.process.triggered
    ]
    migration = cluster._migration  # not ``cluster.migration``: that builds one
    if migration is not None:
        found += [Violation("migration", doc=doc) for doc in sorted(migration.active)]
    return found


def _replicas(cluster, live) -> Iterator[Violation]:
    reference = {}
    for doc in cluster.catalog.all_documents():
        rset = cluster.catalog.replica_set(doc)
        if not rset.is_replicated:
            continue
        views = {site.site_id: (site.catalog.epoch(doc), site.catalog.replica_set(doc).primary)
                 for site in live}
        newest = max(views.values(), key=lambda view: view[0], default=(0, rset.primary))
        for sid, view in views.items():
            if view != newest:
                yield Violation("catalog", sid, doc, detail=f"{view}, newest {newest}")
        primary = cluster.sites[newest[1]]
        if not (primary.alive and primary.data_manager.is_loaded(doc)):
            yield Violation("catalog", primary.site_id, doc, detail="the primary holds no copy")
            continue
        reference[doc] = _text(primary.data_manager.document(doc))
        for sid in rset.all_sites:
            site = cluster.sites[sid]
            if (site is not primary and site.alive and site.data_manager.is_loaded(doc)
                    and not site.holds_placeholder(doc)
                    and _text(site.data_manager.document(doc)) != reference[doc]):
                yield Violation("divergent", sid, doc, detail=f"differs from {primary.site_id}")
    for site in live:
        for doc, state in sorted(site.views.states.items()):
            if state.doc is None or (doc in reference and _text(state.doc) != reference[doc]):
                yield Violation("shadow", site.site_id, doc, detail="not the primary's")


def leftovers(site) -> Iterator[Violation]:
    """The per-site part of :func:`quiescent`: what ``site`` still holds of
    a transaction or an update stream (cheap enough to run at every end of
    a transaction)."""
    sid, table = site.site_id, site.lock_manager.table
    for tid in site.tx_contexts:
        yield Violation("context", sid, tid=tid)
    for kind, tid, detail in site.lock_manager.pending():
        yield Violation(kind, sid, tid=tid, detail=detail)
    for tid in sorted(table.transactions(), key=repr):
        yield Violation("lock", sid, tid=tid, detail=f"{len(table.held_by(tid))} keys")
    for waiter, holder in site.wfg.edges():
        yield Violation("wait_edge", sid, tid=waiter, detail=f"waits for {holder!r}")
    for (doc, primary), box in site._sync_outboxes.items():
        yield Violation("outbox", sid, doc, detail=f"{len(box)} for sync to {primary}")
    for doc, box in site._lazy_outboxes.items():
        yield Violation("outbox", sid, doc, detail=f"{len(box)} for lazy push")
    for round_id, rnd in site._rounds.items():
        yield Violation("round", sid, detail=f"{rnd.kind} round {round_id}")
    for tid in site.coordinators:
        yield Violation("coordinator", sid, tid=tid)
    for doc in site._catchup_gates:
        yield Violation("catchup_gate", sid, doc)
    for doc, changes in site.data_manager._pending.items():
        if changes:
            yield Violation("pending_change", sid, doc, detail=f"{len(changes)} records")
    for doc, log in site.logs.items():
        if log.applied_lsn != log.max_recorded_lsn:
            yield Violation("log_hole", sid, doc,
                            detail=f"{log.applied_lsn} contiguous of {log.max_recorded_lsn}")
