"""The progress judge: ``repro.verify.progress`` names each stall of a run.

``quiescent`` judges where a drained run ended; ``progress`` judges whether
it got there without stalling. A parked waiter, turn or wake at the end is
a lost wake-up (with ``lock_wait_timeout_ms`` 0 the run would spin: the
detector's sweeps keep the event queue alive); a lock-wait timeout that no
crash or partition explains is a stall the timeout hid.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.core.context import CoordinatorRecord
from repro.core.transaction import TxId
from repro.experiments import SWEEPS, run_sweep
from repro.locking import LockManager
from repro.update import ChangeOp
from repro.verify import progress
from repro.xml import E, doc

from .conftest import plant_turn, plant_waiter
from .test_hotpath import contended_cluster

TID = TxId("s2", 7, 1.0)


def timeout_cluster(timeout_ms: float = 2.0) -> DTXCluster:
    """A long writer of /hot/a and a second writer of it that gives up
    after ``timeout_ms``; s3 hosts nothing."""
    cluster = DTXCluster(config=SystemConfig().with_(
        client_think_ms=0.0, lock_wait_timeout_ms=timeout_ms,
    ))
    cluster.add_site("s1", [doc("hot", E("hot", E("a", text="0")))])
    cluster.add_site("s2")
    cluster.add_site("s3")
    def writes(n):
        return [Operation.update("hot", ChangeOp("/hot/a", "x")) for _ in range(n)]

    cluster.add_client("long", "s1", [Transaction(writes(40), label="long")])
    cluster.add_client("short", "s2", [Transaction(writes(1), label="short")])
    return cluster


def test_a_run_that_kept_moving_has_no_violation():
    cluster = contended_cluster(seed=1)
    result = cluster.run()
    assert result.committed and progress(cluster, result) == []


@pytest.mark.parametrize("plant", ["waiter", "turn", "wake"])
def test_each_parked_item_is_one_violation(plant):
    cluster = contended_cluster(seed=1)
    result = cluster.run()
    site = cluster.site("s1")
    holder = TxId("s1", 8, 2.0)
    if plant == "waiter":
        plant_waiter(site.lock_manager, TID, holder, "s2", 3)
    elif plant == "turn":
        plant_turn(site.lock_manager, TID, holder, "s2")
    else:
        tx = Transaction([Operation.update("hot", ChangeOp("/hot/v0", "x"))])
        rec = CoordinatorRecord(tx=tx, tid=TID, deliver=lambda outcome: None)
        rec.wake_event = cluster.env.event()
        site.coordinators[TID] = rec
    (found,) = progress(cluster, result)
    assert (found.kind, found.site, found.tid) == ("parked", "s1", TID)


def test_a_lost_wake_up_parks_instead_of_spinning(monkeypatch):
    """With the wake walk removed, a contended run with no lock-wait
    timeout never ends; run to a horizon, the judge lists what is parked:
    the waiters at the data site and their coordinators' wakes."""
    monkeypatch.setattr(LockManager, "_walk", lambda manager, released: None)
    cluster = contended_cluster(seed=1)
    result = cluster.run(until=2000.0)
    found = progress(cluster, result)
    kinds = {(v.kind, v.site, v.detail.split(" ")[0]) for v in found}
    assert kinds == {("parked", "s1", "waiter"), ("parked", "s2", "waits"),
                     ("parked", "s3", "waits")}


def test_a_lock_wait_timeout_with_no_fault_is_stalled():
    cluster = timeout_cluster()
    result = cluster.run()
    (record,) = [r for r in result.records if r.reason == "lock-wait-timeout"]
    (found,) = progress(cluster, result)
    assert (found.kind, found.tid) == ("stalled", "short")
    assert f"{record.finished_ts:.1f} ms" in found.detail


@pytest.mark.parametrize("fault, explains", [
    ((0.0, 0.1), False),  # over more than one timeout before the end
    ((0.0, 100.0), True),  # active throughout
    ((0.0, None), True),  # never recovered
])
def test_only_a_fault_within_one_timeout_explains_a_timeout(fault, explains):
    """A crash of s3 (which hosts nothing, so the schedule at s1 and s2
    barely moves) explains the timeout only if it was active within one
    timeout of the transaction's end."""
    cluster = timeout_cluster()
    start, stop = fault
    cluster.schedule_crash("s3", start + 0.01, None if stop is None else stop)
    result = cluster.run()
    assert [r.reason for r in result.records].count("lock-wait-timeout") == 1
    assert [v.kind for v in progress(cluster, result)] == ([] if explains else ["stalled"])


def test_partitions_count_as_faults_and_hand_outcomes_are_judged():
    """Outcomes of transactions submitted by hand (``reason`` and
    ``finished_ts``) are judged like a result's records, and a partition
    is a fault from its start to its heal."""
    cluster = contended_cluster(seed=1)
    cluster.run()
    timeouts = [SimpleNamespace(reason="lock-wait-timeout", finished_ts=t, tid=TID)
                for t in (40.0, 400.0)]
    log = cluster.faults.stats.fault_log
    log += [(10.0, "partition", None), (35.0, "heal", None)]
    timeout = 50.0
    cluster.config = cluster.config.with_(lock_wait_timeout_ms=timeout)
    found = progress(cluster, timeouts)
    assert [(v.kind, v.tid) for v in found] == [("stalled", TID)]
    assert "400.0 ms" in found[0].detail


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_every_quick_grid_cell_kept_moving(name):
    """The sweep cells assert that nothing is parked; a lock-wait timeout
    no fault explains is counted, and none of the quick grids has one."""
    result = run_sweep(name)
    assert {key: cell["stalled"] for key, cell in result.cells.items() if cell["stalled"]} == {}


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 17: under the default seed a writer waiting at s1 is passed by a "
    "stream of newer readers (the lock table grants a compatible newcomer past a "
    "sleeping waiter), and a transaction queued two sites behind it times out at "
    "480.7 ms, long after the 6-36 ms partition"
))
def test_the_dense_quorum_partition_cell_kept_moving():
    result = run_sweep("quorum", full=True, regime=("eager",), fault=("partition",))
    assert result.cells[("eager", "partition")]["stalled"] == 0
