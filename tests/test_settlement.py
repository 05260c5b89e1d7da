"""A finished transaction holds nothing at any site.

Every end of a transaction at a site — commit, abort, fail, an orphan
resolved after its coordinator died — goes through ``DTXSite._settle``,
which drops the context, the locks, the waiter and the turn together. So
right after each ``_settle`` the site holds none of them for that
transaction, and after a run has drained the cluster has settled
(``repro.verify.quiescent``).
The check runs over every cluster of the default grids of five sweeps
(crashes, partitions, quorums, hash-ring rebalances, replication) and of
the refusal run, whose fails reach sites through ``FailNotice``.

Both checks are needed: a waiter left behind by an end is woken, and so
dropped, by the next release of what it waited for, which the drain
always brings; only the check at the end itself sees it.
"""

from __future__ import annotations

import pytest

from repro import DTXCluster
from repro.core.site import DTXSite
from repro.experiments import run_sweep
from repro.verify.quiescent import leftovers, quiescent

from .test_determinism import refusal_run

#: What ``_settle`` drops (the coordinator's record outlives its own share).
_ENDED = ("context", "waiter", "turn", "lock", "wait_edge")

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
        at_settle.extend(v for v in leftovers(site) if v.tid == tid and v.kind in _ENDED)
        return cost

    monkeypatch.setattr(DTXCluster, "__init__", recording_init)
    monkeypatch.setattr(DTXSite, "_settle", checked_settle)
    run()
    assert clusters
    assert not at_settle, f"held right after _settle: {at_settle}"
    after = {i: found for i, cluster in enumerate(clusters) if (found := quiescent(cluster))}
    assert not after, f"unsettled after the drain, by cluster: {after}"
