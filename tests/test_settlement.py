"""A finished transaction holds nothing at any site.

Every end of a transaction at a site — commit, abort, fail, an orphan
resolved after its coordinator died — goes through ``DTXSite._settle``,
which drops the context, the locks and the waiter together. So right after
each ``_settle`` the site holds none of them for that transaction, and
after a run has drained every site holds no ``SiteTxContext`` at all and
no waiter or lock-table holder that its ``finished`` set names. The check
runs over every cluster of the default grids of five sweeps (crashes,
partitions, quorums, hash-ring rebalances, replication) and of the refusal
run, whose fails reach sites through ``FailNotice``.

Both checks are needed: a waiter left behind by an end is woken, and so
dropped, by the next release of what it waited for, which the drain
always brings; only the check at the end itself sees it.
"""

from __future__ import annotations

import pytest

from repro import DTXCluster
from repro.core.site import DTXSite
from repro.experiments import run_sweep

from .test_determinism import refusal_run


def held(site, tids) -> list[str]:
    """What ``site`` still holds for any of ``tids``."""
    locked = site.lock_manager.table.transactions()
    return [
        f"{site.site_id}: {what} of {tid!r}"
        for tid in tids
        for what, kept in (
            ("context", tid in site.tx_contexts),
            ("waiter", tid in site.waiters),
            ("locks", tid in locked),
        )
        if kept
    ]


def held_after_drain(cluster) -> list[str]:
    """Every context left anywhere, and what finished transactions hold."""
    out = []
    for sid in sorted(cluster.sites, key=str):
        site = cluster.site(sid)
        out += held(site, site.finished | set(site.tx_contexts))
    return out


_RUNS = {
    name: (lambda name=name: run_sweep(name))
    for name in ("availability", "partitions", "quorum", "scale", "replication")
}
_RUNS["refusals"] = refusal_run


@pytest.mark.parametrize("run", list(_RUNS.values()), ids=list(_RUNS))
def test_finished_transactions_hold_nothing(monkeypatch, run):
    clusters, at_settle = [], []
    init, settle = DTXCluster.__init__, DTXSite._settle

    def recording_init(cluster, *args, **kwargs):
        init(cluster, *args, **kwargs)
        clusters.append(cluster)

    def checked_settle(site, tid, *args, **kwargs):
        cost = settle(site, tid, *args, **kwargs)
        at_settle.extend(held(site, [tid]))
        return cost

    monkeypatch.setattr(DTXCluster, "__init__", recording_init)
    monkeypatch.setattr(DTXSite, "_settle", checked_settle)
    run()
    assert clusters
    assert not at_settle, f"held right after _settle: {at_settle}"
    after = {i: h for i, cluster in enumerate(clusters) if (h := held_after_drain(cluster))}
    assert not after, f"held after the drain, by cluster: {after}"
