"""Event primitives for the discrete-event kernel.

The design follows the classic SimPy architecture: an :class:`Event` carries
callbacks and an outcome (value or exception); processes are generators that
``yield`` events and are resumed when those events fire. The kernel lives in
:mod:`repro.sim.environment`.

Hot-path layout notes: every class here is ``__slots__``-only and the
constructors of the high-volume types (:class:`Event`, :class:`Timeout`,
:class:`Process`) assign their fields flat instead of chaining through
``super().__init__`` — a simulated millisecond dispatches thousands of these.
Besides events, a process may yield a bare nonnegative number: the *flat
timer* path, equivalent to ``yield env.timeout(delay)`` but reusing one
preallocated tick event per process, so a pure timer step allocates nothing.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterable, Optional

from ..errors import SimulationError

_PENDING = object()


class Event:
    """A happening at a point in simulated time.

    Life cycle: *pending* → *triggered* (outcome decided, scheduled on the
    event queue) → *processed* (callbacks ran).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env):
        self.env = env
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ---------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event has no outcome yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event has no value yet")
        return self._value

    def defuse(self) -> None:
        """Mark a failure as handled so the kernel does not crash the run."""
        self._defused = True

    # -- outcome -----------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env._schedule(self, 0.0)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` units of simulated time in the future."""

    __slots__ = ("delay",)

    def __init__(self, env, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._schedule(self, delay)


class Process(Event):
    """Runs a generator; the Process event fires when the generator returns.

    The generator yields :class:`Event` instances; each resume sends the
    yielded event's value back in (or throws its exception, letting the
    process ``try/except`` failures of sub-events). Yielding a bare
    nonnegative ``int`` or ``float`` is the flat timer form of
    ``yield env.timeout(delay)``: same schedule position (both schedule at
    resume time, before anything else can run), no per-timer allocation —
    the process's one reusable tick event carries it. ``bool`` is
    deliberately not a timer (``yield True`` is a bug, not a zero-delay).
    """

    __slots__ = ("_generator", "_tick", "_tick_cbs", "_inline")

    def __init__(self, env, generator):
        if not hasattr(generator, "send"):
            raise SimulationError(f"process needs a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        # Environments whose queue *is* the stock bucket structure let the
        # flat-timer path below write ticks straight into it (saves a method
        # call per timer); kernels with their own queue (the differential
        # oracle) clear _FLAT_INLINE and ticks route through _schedule.
        self._inline: bool = env._FLAT_INLINE
        # The reusable tick: bootstraps the generator now, then carries every
        # flat-timer yield. Its singleton callback list is restored before
        # each reschedule (dispatch nulls it), so a timer step allocates
        # nothing. The tick never fails and carries no value, exactly like
        # the bootstrap event and a value-less Timeout.
        tick = Event.__new__(Event)
        tick.env = env
        tick.callbacks = cbs = [self._resume]
        tick._value = None
        tick._ok = True
        tick._defused = False
        self._tick = tick
        self._tick_cbs = cbs
        env._schedule(tick, 0.0)

    def _resume(self, trigger: Event) -> None:
        generator = self._generator
        while True:
            try:
                if trigger._ok:
                    target = generator.send(trigger._value)
                else:
                    trigger._defused = True
                    target = generator.throw(trigger._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            cls = target.__class__
            if cls is float or cls is int:
                # Flat timer: reschedule the reusable tick.
                if target < 0:
                    exc = SimulationError(f"negative timeout delay {target!r}")
                    generator.close()
                    self.fail(exc)
                    return
                tick = self._tick
                tick.callbacks = self._tick_cbs
                env = self.env
                if self._inline:
                    # env._schedule(tick, target), by hand: this is the
                    # hottest line of the whole simulator.
                    t = env._now + target
                    buckets = env._buckets
                    b = buckets.get(t)
                    if b is None:
                        heappush(env._times, t)
                        buckets[t] = [tick]
                    else:
                        b.append(tick)
                else:
                    env._schedule(tick, target)
                return
            try:
                cbs = target.callbacks
            except AttributeError:
                exc = SimulationError(f"process yielded a non-event: {target!r}")
                generator.close()
                self.fail(exc)
                return
            if cbs is None:
                # Already fired: resume immediately with its outcome.
                trigger = target
                continue
            cbs.append(self._resume)
            return


class Condition(Event):
    """Base for AllOf/AnyOf: composite events over a set of children."""

    __slots__ = ("events", "_pending")

    def __init__(self, env, events: Iterable[Event]):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different environments")
        self._pending = sum(1 for ev in self.events if not ev.processed)
        for ev in self.events:
            if ev.processed:
                if not self.triggered:
                    self._consume(ev)
            else:
                ev.callbacks.append(self._on_child)
        if not self.triggered:
            self._check_initial()

    def _on_child(self, ev: Event) -> None:
        self._pending -= 1
        if self.triggered:
            if not ev._ok:
                ev.defuse()  # outcome already decided; swallow the failure
            return
        self._consume(ev)

    def _consume(self, ev: Event) -> None:
        raise NotImplementedError

    def _check_initial(self) -> None:
        pass

    def results(self) -> dict[Event, Any]:
        """Outcome values of the children that have already *fired*.

        ``processed`` (not ``triggered``) is the right filter: a Timeout is
        triggered at creation — its outcome is pre-decided — but it has not
        happened until the clock reaches it.
        """
        return {ev: ev._value for ev in self.events if ev.processed}


class AllOf(Condition):
    """Fires when every child has fired; fails fast on the first failure."""

    __slots__ = ()

    def _consume(self, ev: Event) -> None:
        if not ev._ok:
            ev.defuse()
            self.fail(ev._value)
            return
        if self._pending == 0 and not self.triggered:
            self.succeed(self.results())

    def _check_initial(self) -> None:
        if self._pending == 0 and not self.triggered:
            self.succeed(self.results())


class AnyOf(Condition):
    """Fires as soon as one child fires (with that child's outcome)."""

    __slots__ = ()

    def _consume(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            ev.defuse()
            self.fail(ev._value)
            return
        self.succeed(self.results())

    def _check_initial(self) -> None:
        if not self.events:
            raise SimulationError("AnyOf needs at least one event")
