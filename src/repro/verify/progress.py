"""One definition of a run that kept moving.

:func:`~repro.verify.quiescent` judges where a drained run ended; this
judges whether it got there without stalling. A lost wake-up either spins
(with ``lock_wait_timeout_ms`` 0 nothing ends the wait, and the deadlock
detector's sweeps keep the event queue alive, so the run is stopped at a
simulated horizon) or is ended by the lock-wait timeout and passes as an
abort. :func:`progress` names both, by kind (:data:`KINDS`):

* ``parked``: at the end, a live site still has a waiter or a turn (a
  woken waiter whose retry has not run there), or a coordinator still
  waits for a wake;
* ``stalled``: a transaction ended by lock-wait timeout while no fault
  (a site crash or a network partition, from ``cluster.faults.stats
  .fault_log``) was active within one timeout of its end.

It only reads, so it moves no schedule; no timed path calls it.
"""

from __future__ import annotations

from .quiescent import Violation

KINDS = ("parked", "stalled")


def progress(cluster, result) -> list[Violation]:
    """Every stall of the run; ``[]`` if it kept moving. ``result`` is its
    :class:`~repro.core.results.RunResult`, or the outcomes of transactions
    submitted by hand (anything with ``reason`` and ``finished_ts``)."""
    found = []
    for site in cluster.sites.values():
        if not site.alive:
            continue
        sid = site.site_id
        for kind, tid, detail in site.lock_manager.pending():
            if kind != "deferred_wake":
                found.append(Violation("parked", sid, tid=tid, detail=f"{kind} {detail}".rstrip()))
        for tid, rec in site.coordinators.items():
            if rec.wake_event is not None and not rec.wake_event.triggered:
                found.append(Violation("parked", sid, tid=tid, detail="waits for a wake"))
    timeout = cluster.config.lock_wait_timeout_ms
    windows = _fault_windows(cluster.faults.stats.fault_log)
    for record in getattr(result, "records", result):
        if record.reason != "lock-wait-timeout":
            continue
        end = record.finished_ts
        if not any(start <= end and stop >= end - timeout for start, stop in windows):
            found.append(Violation(
                "stalled", tid=getattr(record, "label", None) or getattr(record, "tid", None),
                detail=f"lock-wait timeout at {end:.1f} ms, no fault within {timeout:g} ms",
            ))
    return found


def _fault_windows(log) -> list[tuple[float, float]]:
    """``(start, stop)`` per crash (to its site's recovery) and partition
    (to the heal); a fault still active at the end runs on for good."""
    windows, open_at = [], {}
    for time, event, who in log:
        if event in ("crash", "partition"):
            open_at.setdefault(who, time)
        elif who in open_at:  # "recover" of that site, or "heal"
            windows.append((open_at.pop(who), time))
    windows += [(start, float("inf")) for start in open_at.values()]
    return windows
