"""The discrete-event simulation kernel.

A minimal, deterministic SimPy-style environment: a time-ordered event queue,
generator-based processes, timeouts and composite conditions. Determinism
matters more here than raw speed — two runs with the same configuration and
seed produce identical schedules, which the reproduction's tests assert on —
but speed matters too: the queue is an *indexed bucket queue*, a min-heap of
distinct event times plus a dict mapping each time to the FIFO list of items
scheduled for it. Scheduling at an already-known time is one dict lookup and
a list append (no heap operation); draining dispatches a whole same-time
bucket in one pass, which batches same-tick message deliveries. FIFO bucket
order is exactly the ``(time, seq)`` order of a classic one-entry-per-item
scheduling heap — that classic kernel is preserved in
:mod:`repro.verify.schedule_digest` as a differential oracle, and
``tests/test_kernel_equivalence.py`` asserts event-by-event trace equality
between the two on full DTX workloads.

Queue items are either :class:`Event` objects or flat ``(fn, arg)`` tuples —
the allocation-free path used for network message delivery (see
:meth:`Environment._schedule_flat`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf as _INF
from typing import Any, Callable, Iterable, Optional

from ..errors import SimulationError
from .events import AllOf, Event, FirstOf, Process, Timeout


class Environment:
    """Execution environment: virtual clock plus the pending-event queue."""

    #: The flat-timer path in :meth:`Process._resume` writes tick events
    #: straight into ``_times``/``_buckets`` (one method call saved on the
    #: hottest line of the simulator). A subclass that replaces the queue —
    #: like the differential oracle's classic heap — MUST clear this so
    #: ticks go through its ``_schedule`` override.
    _FLAT_INLINE = True

    __slots__ = ("_now", "_times", "_buckets", "_tracer")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._times: list[float] = []  # min-heap of distinct bucket times
        self._buckets: dict[float, list] = {}  # time -> FIFO list of items
        self._tracer: Optional[Callable[[float, Any], None]] = None

    @property
    def now(self) -> float:
        """Current simulated time (milliseconds, by this project's convention)."""
        return self._now

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        t = self._now + delay
        buckets = self._buckets
        b = buckets.get(t)
        if b is None:
            heappush(self._times, t)
            buckets[t] = [event]
        else:
            b.append(event)

    def _schedule_flat(self, delay: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Queue a bare ``fn(arg)`` call ``delay`` units from now.

        The flat form of scheduling: no Event is allocated and dispatch is a
        single call. Used on the highest-volume path (message delivery).
        """
        t = self._now + delay
        buckets = self._buckets
        b = buckets.get(t)
        if b is None:
            heappush(self._times, t)
            buckets[t] = [(fn, arg)]
        else:
            b.append((fn, arg))

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def first_of(self, *events: Event) -> FirstOf:
        """An event that fires with whichever of ``events`` is processed
        first (see :class:`FirstOf`)."""
        return FirstOf(self, events)

    def schedule_call(self, delay: float, fn, *args) -> Event:
        """Invoke ``fn(*args)`` after ``delay`` simulated units.

        The kernel-level hook fault schedules are built on: crashing or
        recovering a site at an absolute point of the simulation must not
        depend on any process being runnable at that site.
        """
        if delay < 0:
            raise SimulationError(f"negative schedule_call delay {delay!r}")
        ev = Event(self)
        ev.callbacks.append(lambda _ev: fn(*args))
        ev._ok = True
        ev._value = None
        self._schedule(ev, delay)
        return ev

    # -- execution --------------------------------------------------------------

    def step(self) -> None:
        """Process exactly one queue item."""
        times = self._times
        if not times:
            raise SimulationError("step on an empty event queue")
        t = times[0]
        buckets = self._buckets
        b = buckets[t]
        item = b.pop(0)
        if not b:
            heappop(times)
            del buckets[t]
        self._now = t
        if self._tracer is not None:
            self._tracer(t, item)
        if item.__class__ is tuple:
            item[0](item[1])
            return
        callbacks = item.callbacks
        item.callbacks = None  # mark processed
        for callback in callbacks:
            callback(item)
        if not item._ok and not item._defused:
            raise item._value

    def peek(self) -> float:
        """Time of the next event, or ``inf`` when the queue is empty."""
        times = self._times
        return times[0] if times else _INF

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to queue exhaustion), a number (run up
        to that time) or an :class:`Event` (run until it fires; its value is
        returned, or its exception raised).
        """
        if self._tracer is not None:
            return self._run_stepwise(until)
        if until is None:
            self._drain(_INF)
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(f"cannot run until {horizon} < now {self._now}")
        self._drain(horizon)
        self._now = horizon
        return None

    def _drain(self, horizon: float) -> None:
        """Dispatch every item scheduled at or before ``horizon``."""
        times = self._times
        buckets = self._buckets
        while times and times[0] <= horizon:
            t = heappop(times)
            self._now = t
            b = buckets.pop(t)
            # Items scheduled *for this same time* during dispatch open a
            # fresh bucket (and re-push t, drained next iteration) — they
            # run after everything already queued, exactly like a classic
            # heap where later schedules carry higher sequence numbers.
            # (The popped bucket itself is never mutated mid-iteration, so
            # iterating it directly is safe; ``i`` only feeds _restore.)
            i = 0
            try:
                for item in b:
                    i += 1
                    if item.__class__ is tuple:
                        item[0](item[1])
                        continue
                    callbacks = item.callbacks
                    item.callbacks = None
                    for callback in callbacks:
                        callback(item)
                    if not item._ok and not item._defused:
                        raise item._value
            except BaseException:
                self._restore(t, b[i:])
                raise

    def _run_until_event(self, until: Event) -> Any:
        times = self._times
        buckets = self._buckets
        while until.callbacks is not None:
            if not times:
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired"
                )
            t = heappop(times)
            self._now = t
            b = buckets.pop(t)
            i = 0
            try:
                for item in b:
                    i += 1
                    if item.__class__ is tuple:
                        item[0](item[1])
                        continue
                    callbacks = item.callbacks
                    item.callbacks = None
                    for callback in callbacks:
                        callback(item)
                    if not item._ok and not item._defused:
                        raise item._value
                    if item is until:
                        # Stop mid-bucket: put the unprocessed tail back.
                        self._restore(t, b[i:])
                        break
            except BaseException:
                self._restore(t, b[i:])
                raise
        if until._ok:
            return until._value
        until.defuse()
        raise until._value

    def _restore(self, t: float, rest: list) -> None:
        """Re-queue the unprocessed remainder of a bucket (after an exception
        or an early run-until stop), ahead of any same-time items scheduled
        since — those newcomers are younger and would also sort later by
        sequence number in the classic heap."""
        if not rest:
            return
        buckets = self._buckets
        cur = buckets.get(t)
        if cur is None:
            heappush(self._times, t)
            buckets[t] = rest
        else:
            buckets[t] = rest + cur

    def _run_stepwise(self, until: Optional[Any] = None) -> Any:
        """Item-at-a-time driver used when a tracer is attached.

        Dispatch order is identical to the fast drain loops; only the loop
        granularity differs (every item goes through :meth:`step`).
        """
        if until is None:
            while self._times:
                self.step()
            return None
        if isinstance(until, Event):
            while until.callbacks is not None:
                if not self._times:
                    raise SimulationError(
                        "simulation ran out of events before the awaited event fired"
                    )
                self.step()
            if until._ok:
                return until._value
            until.defuse()
            raise until._value
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(f"cannot run until {horizon} < now {self._now}")
        times = self._times
        while times and times[0] <= horizon:
            self.step()
        self._now = horizon
        return None
