"""Ablation — lock granularity: XDGL vs Node2PL vs whole-document 2PL.

DESIGN.md calls out granularity as *the* design choice behind DTX's results.
This ablation runs the identical mixed workload under all three registered
protocols, adding the document-level baseline the figure benchmarks omit
(the paper mentions it as "a traditional technique ... complete lock on the
document" without plotting it).
"""

from repro.config import SystemConfig
from repro.experiments import ExperimentConfig, run_experiment
from repro.workload import WorkloadSpec, render_comparison

from .conftest import run_once

PROTOCOLS = ("xdgl", "node2pl", "doclock2pl")


def _run_all():
    runs = {}
    for protocol in PROTOCOLS:
        cfg = ExperimentConfig(
            protocol=protocol,
            n_sites=4,
            replication="partial",
            db_bytes=100_000,
            workload=WorkloadSpec(n_clients=20, update_tx_ratio=0.2),
            system=SystemConfig().with_(client_think_ms=1.0),
        )
        runs[protocol] = run_experiment(cfg)
    return runs


def test_ablation_lock_granularity(benchmark):
    runs = run_once(benchmark, _run_all)
    print()
    print(render_comparison("lock granularity ablation (20 clients, 20% updates)", runs))
    resp = {p: runs[p].mean_response_ms() for p in PROTOCOLS}
    # Finer granularity must win on response time.
    assert resp["xdgl"] < resp["node2pl"], resp
    # Against DocLock2PL compare work completed, not the mean response of
    # committed transactions: DocLock2PL aborts many more transactions, and
    # aborting fast flatters a committed-only mean (survivor bias). XDGL
    # finishes its workload sooner while committing at least as much.
    done = {p: runs[p].completion_time_ms() for p in PROTOCOLS}
    committed = {p: len(runs[p].committed) for p in PROTOCOLS}
    assert done["xdgl"] < done["doclock2pl"], done
    assert committed["xdgl"] >= committed["doclock2pl"], committed
    # Whole-document locking blocks operations far more often per op served
    # (deadlock *counts* are not monotone in granularity: one lock per
    # document makes crosswise document access a deadlock, so DocLock2PL can
    # out-deadlock XDGL despite admitting less concurrency).
    def blocked_ratio(run):
        blocked = sum(s.ops_blocked for s in run.site_stats.values())
        served = sum(s.ops_executed for s in run.site_stats.values())
        return blocked / max(1, served)

    assert blocked_ratio(runs["doclock2pl"]) > blocked_ratio(runs["xdgl"])
