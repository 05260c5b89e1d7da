"""Unit tests for the discrete-event kernel: events, processes, conditions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Environment, Event, Inbox, Store

from .conftest import example_budget


class TestClockAndTimeouts:
    def test_time_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_timeout_advances_clock(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(5)
            log.append(env.now)
            yield env.timeout(2.5)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [5.0, 7.5]

    def test_zero_delay_timeout(self):
        env = Environment()
        done = []

        def proc():
            yield env.timeout(0)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [0.0]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_timeout_carries_value(self):
        env = Environment()
        got = []

        def proc():
            v = yield env.timeout(1, value="hello")
            got.append(v)

        env.process(proc())
        env.run()
        assert got == ["hello"]

    def test_event_ordering_fifo_at_same_time(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(1)
            order.append(tag)

        for tag in "abc":
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_run_until_time(self):
        env = Environment()
        fired = []

        def proc():
            while True:
                yield env.timeout(10)
                fired.append(env.now)

        env.process(proc())
        env.run(until=35)
        assert fired == [10.0, 20.0, 30.0]
        assert env.now == 35.0

    def test_run_until_past_rejected(self):
        env = Environment()
        env.run(until=5)
        with pytest.raises(SimulationError):
            env.run(until=1)


class TestProcessesAndEvents:
    def test_process_return_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1)
            return 42

        p = env.process(proc())
        assert env.run(until=p) == 42

    def test_manual_event_wakes_waiter(self):
        env = Environment()
        gate = env.event()
        woke = []

        def waiter():
            v = yield gate
            woke.append((env.now, v))

        def opener():
            yield env.timeout(3)
            gate.succeed("open")

        env.process(waiter())
        env.process(opener())
        env.run()
        assert woke == [(3.0, "open")]

    def test_multiple_waiters_one_event(self):
        env = Environment()
        gate = env.event()
        woke = []

        def waiter(tag):
            yield gate
            woke.append(tag)

        for tag in "abc":
            env.process(waiter(tag))

        def opener():
            yield env.timeout(1)
            gate.succeed()

        env.process(opener())
        env.run()
        assert sorted(woke) == ["a", "b", "c"]

    def test_event_cannot_trigger_twice(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_process_waiting_on_processed_event(self):
        env = Environment()
        ev = env.event()
        ev.succeed("early")
        env.run()
        got = []

        def late():
            v = yield ev
            got.append(v)

        env.process(late())
        env.run()
        assert got == ["early"]

    def test_unhandled_failure_crashes_run(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise ValueError("boom")

        env.process(bad())
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_waiter_catches_failure_of_subprocess(self):
        env = Environment()
        caught = []

        def bad():
            yield env.timeout(1)
            raise ValueError("boom")

        def guard():
            try:
                yield env.process(bad())
            except ValueError as exc:
                caught.append(str(exc))

        env.process(guard())
        env.run()
        assert caught == ["boom"]

    def test_run_until_failed_process_raises(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise RuntimeError("x")

        p = env.process(bad())
        with pytest.raises(RuntimeError):
            env.run(until=p)

    def test_yield_non_event_fails_process(self):
        env = Environment()

        def bad():
            yield "not an event"

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_yield_bool_fails_process(self):
        # bool is an int subclass, but ``yield True`` is a bug, not a timer
        env = Environment()

        def bad():
            yield True

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_run_until_event_never_fires(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            env.run(until=ev)


class TestFlatTimers:
    """``yield <number>`` — the allocation-free form of ``yield env.timeout(n)``."""

    def test_numeric_yield_advances_clock(self):
        env = Environment()
        log = []

        def proc():
            yield 5
            log.append(env.now)
            yield 2.5
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [5.0, 7.5]

    def test_zero_delay_numeric_yield(self):
        env = Environment()
        done = []

        def proc():
            yield 0
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [0.0]

    def test_negative_numeric_yield_fails_process(self):
        env = Environment()

        def bad():
            yield -1

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_numeric_yield_interleaves_like_timeout(self):
        # A flat timer and an equal-delay Timeout created at the same moment
        # keep their creation order at the common firing time.
        env = Environment()
        order = []

        def flat(tag):
            yield 1
            order.append(tag)

        def classic(tag):
            yield env.timeout(1)
            order.append(tag)

        env.process(flat("f1"))
        env.process(classic("c1"))
        env.process(flat("f2"))
        env.run()
        assert order == ["f1", "c1", "f2"]

    def test_numeric_yield_in_loop_reuses_tick(self):
        env = Environment()
        fired = []

        def ticker():
            while env.now < 50:
                yield 10
                fired.append(env.now)

        env.process(ticker())
        env.run()
        assert fired == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_process_return_after_numeric_yield(self):
        env = Environment()

        def proc():
            yield 3
            return "done"

        p = env.process(proc())
        assert env.run(until=p) == "done"


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()
        done = []

        def proc():
            t1 = env.timeout(2, value="a")
            t2 = env.timeout(5, value="b")
            results = yield env.all_of([t1, t2])
            done.append((env.now, sorted(results.values())))

        env.process(proc())
        env.run()
        assert done == [(5.0, ["a", "b"])]

    def test_first_of_fires_on_first(self):
        env = Environment()
        done = []

        def proc():
            slow = env.timeout(10, value="slow")
            fast = env.timeout(1, value="fast")
            won = yield env.first_of(slow, fast)
            done.append((env.now, won is fast, won.value))

        env.process(proc())
        env.run()
        assert done == [(1.0, True, "fast")]

    def test_all_of_empty_fires_immediately(self):
        env = Environment()
        done = []

        def proc():
            yield env.all_of([])
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [0.0]

    def test_first_of_empty_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.first_of()

    def test_all_of_with_already_processed_children(self):
        env = Environment()
        ev = env.event()
        ev.succeed("x")
        env.run()
        done = []

        def proc():
            results = yield env.all_of([ev, env.timeout(1, "y")])
            done.append(sorted(results.values()))

        env.process(proc())
        env.run()
        assert done == [["x", "y"]]


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get()
            got.append(item)

        store.put("m1")
        env.process(consumer())
        env.run()
        assert got == ["m1"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get()
            got.append((env.now, item))

        def producer():
            yield env.timeout(4)
            store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [(4.0, "late")]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer():
            while True:
                item = yield store.get()
                got.append(item)
                if item == "c":
                    return

        for x in "abc":
            store.put(x)
        env.process(consumer())
        env.run()
        assert got == ["a", "b", "c"]

    def test_multiple_getters_fifo(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(tag):
            item = yield store.get()
            got.append((tag, item))

        env.process(consumer("g1"))
        env.process(consumer("g2"))
        env.run()
        store.put("x")
        store.put("y")
        env.run()
        assert got == [("g1", "x"), ("g2", "y")]

    def test_len_and_waiting(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.waiting_getters == 0


# ---------------------------------------------------------------------------
# the function-served inbox: same queue positions as a listener process
# ---------------------------------------------------------------------------

#: A message is (kind, n): "plain" is only logged, "echo" puts a follow-up
#: into the same mailbox while it is handled, "spawn" starts a process that
#: logs at once and puts a follow-up after a flat timer.
_MSG_KINDS = ("plain", "echo", "spawn")
_TIMES = (0.0, 0.5, 1.0, 1.5, 2.0)


def _mailbox_run(use_inbox: bool, early: list, actions: list) -> list:
    """Drive one mailbox through a schedule; return every observation,
    with its time, in the order it happened.

    ``early`` is put before the mailbox starts being served; ``actions``
    are ``(time, what, arg)`` kernel calls: ``put`` a message, ``clear``
    the mailbox, or ``mark`` the log (an unrelated same-time item, so
    queue positions relative to other work show).
    """
    env = Environment()
    log = []
    box = Inbox(env) if use_inbox else Store(env)

    def child(n):
        log.append((env.now, "child", n))
        yield 0.5
        box.put(("plain", n + 2000))

    def handler(msg):
        log.append((env.now, "handle", msg))
        kind, n = msg
        if kind == "echo":
            box.put(("plain", n + 1000))
        elif kind == "spawn":
            env.process(child(n))

    def act(what, arg):
        if what == "put":
            box.put(arg)
        elif what == "clear":
            log.append((env.now, "clear", box.clear()))
        else:
            log.append((env.now, "mark", arg))

    for msg in early:
        box.put(msg)
    if use_inbox:
        box.serve(handler)
    else:

        def listener():
            while True:
                handler((yield box.get()))

        env.process(listener())
    for when, what, arg in actions:
        env.schedule_call(when, act, what, arg)
    env.run()
    log.append((env.now, "left", len(box)))
    return log


_messages = st.tuples(st.sampled_from(_MSG_KINDS), st.integers(0, 99))
_actions = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(_TIMES), st.just("put"), _messages),
        st.tuples(st.sampled_from(_TIMES), st.just("clear"), st.none()),
        st.tuples(st.sampled_from(_TIMES), st.just("mark"), st.integers(0, 9)),
    ),
    max_size=14,
)


class TestInbox:
    @settings(max_examples=example_budget(300), deadline=None)
    @given(early=st.lists(_messages, max_size=3), actions=_actions)
    def test_inbox_dispatches_like_a_listener_process(self, early, actions):
        """Puts at random times, puts during a handler, puts before the
        bootstrap, clears with an item in flight and a handler that spawns
        a process: the ``(time, message)`` sequence, and everything else
        that happens around it, is the same as a Store drained by one
        process looping ``handler((yield store.get()))``."""
        expected = _mailbox_run(False, early, actions)
        assert _mailbox_run(True, early, actions) == expected

    def test_items_put_before_serving_wait_for_the_bootstrap(self):
        env = Environment()
        box = Inbox(env)
        got = []
        box.put("early")
        env.run()
        assert got == [] and len(box) == 1  # nobody serves it yet
        box.serve(lambda msg: got.append((env.now, msg)))
        env.run()
        assert got == [(0.0, "early")] and len(box) == 0

    def test_served_once(self):
        box = Inbox(Environment())
        box.serve(print)
        with pytest.raises(SimulationError):
            box.serve(print)


# ---------------------------------------------------------------------------
# first_of: the queue positions of the any-of condition it replaced
# ---------------------------------------------------------------------------


class _AnyOfReference(Event):
    """The any-of condition ``first_of`` replaced, as it was: fires with
    the outcomes of the children processed so far when the first one is
    (a failing one fails it), triggered from that child's callback."""

    def __init__(self, env, events):
        super().__init__(env)
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf needs at least one event")
        for ev in self.events:
            if ev.processed:
                if not self.triggered:
                    self._consume(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _on_child(self, ev):
        if self.triggered:
            if not ev._ok:
                ev.defuse()
            return
        self._consume(ev)

    def _consume(self, ev):
        if not ev._ok:
            ev.defuse()
            self.fail(ev._value)
            return
        self.succeed({e: e._value for e in self.events if e.processed})


#: A child is (kind, delay): a timeout of ``delay``; an event triggered by
#: a kernel call ``delay`` after the condition is made, with a value or an
#: exception; one already processed (ok or failed) when it is made; one
#: that never fires.
_CHILD_KINDS = ("timeout", "succeed", "fail", "processed", "processed_fail", "never")
_MADE_AT = 1.0


def _first_of_run(use_reference: bool, children: list, marks: list, watched: list) -> list:
    """Wait on one condition over ``children``; return what the waiter saw
    and the kernel trace, every dispatched item named by its role."""
    env = Environment()
    log: list = []
    names: dict = {}
    keep: list = []  # named objects stay alive, so no id is reused

    def name(obj, label):
        names[id(obj)] = label
        keep.append(obj)
        return obj

    def describe(item):
        if item.__class__ is tuple:
            return "call"
        label = names.get(id(item))
        if label is not None:
            return label
        outcome = "ok" if item._ok else "fail"
        return f"{item.__class__.__name__}:{outcome}"

    env._tracer = lambda t, item: log.append((t, "item", describe(item)))

    made: dict = {}
    for i, (kind, delay) in enumerate(children):
        if kind == "timeout":
            continue
        ev = made[i] = name(env.event(), f"child{i}")
        if kind == "processed":
            ev.succeed(f"v{i}")
        elif kind == "processed_fail":
            ev.fail(RuntimeError(f"e{i}"))
            ev.defuse()
        elif kind == "succeed":
            env.schedule_call(_MADE_AT + delay, ev.succeed, f"v{i}")
        elif kind == "fail":
            env.schedule_call(_MADE_AT + delay, ev.fail, RuntimeError(f"e{i}"))
    for i in watched:
        if i in made:

            def watcher(ev=made[i], i=i):
                try:
                    yield ev
                    log.append((env.now, "watcher", i, "ok"))
                except RuntimeError:
                    log.append((env.now, "watcher", i, "failed"))

            proc = name(env.process(watcher()), f"watcher{i}")
            name(proc._tick, f"watcher{i}.tick")
    for delay, n in marks:
        env.schedule_call(_MADE_AT + delay, log.append, (_MADE_AT + delay, "mark", n))

    def waiter():
        yield _MADE_AT
        kids = []
        for i, (kind, delay) in enumerate(children):
            if kind == "timeout":
                kids.append(name(env.timeout(delay, f"v{i}"), f"child{i}"))
            else:
                kids.append(made[i])
        if use_reference:
            cond = _AnyOfReference(env, kids)
        else:
            cond = env.first_of(*kids)
        name(cond, "condition")
        try:
            got = yield cond
        except RuntimeError as exc:
            log.append((env.now, "failed", str(exc)))
            return
        if use_reference:
            # The one child a waiter read: the first, in argument order,
            # among the outcomes (the only one unless several children
            # were processed before the condition was made).
            won = next(i for i, kid in enumerate(kids) if kid in got)
        else:
            won = next(i for i, kid in enumerate(kids) if kid is got)
        log.append((env.now, "won", won, kids[won].value))

    proc = name(env.process(waiter()), "waiter")
    name(proc._tick, "waiter.tick")
    env.run()
    return log


_children = st.lists(
    st.tuples(st.sampled_from(_CHILD_KINDS), st.sampled_from(_TIMES)),
    min_size=1,
    max_size=3,
)


class TestFirstOf:
    @settings(max_examples=example_budget(300), deadline=None)
    @given(
        children=_children,
        marks=st.lists(st.tuples(st.sampled_from(_TIMES), st.integers(0, 9)), max_size=4),
        watched=st.lists(st.integers(0, 2), max_size=2, unique=True),
    )
    def test_first_of_dispatches_like_any_of(self, children, marks, watched):
        """Children firing at random times with same-time ties, already
        processed ones, failing ones (winning, or failing after the
        decision), other work at the same times and other processes
        waiting on the same children: the waiter sees the same child win
        (or the same failure) at the same time, and every queue item is
        dispatched at the same position, as with the any-of condition."""
        expected = _first_of_run(True, children, marks, watched)
        assert _first_of_run(False, children, marks, watched) == expected

    def test_two_children_settle_in_processing_order(self):
        env = Environment()
        done = []

        def proc():
            late = env.timeout(2, "late")
            tied_first = env.timeout(1, "a")
            tied_second = env.timeout(1, "b")
            won = yield env.first_of(late, tied_first, tied_second)
            done.append((env.now, won.value))

        env.process(proc())
        env.run()
        assert done == [(1.0, "a")]

    def test_a_loser_that_fails_later_is_defused(self):
        env = Environment()
        loser = env.event()
        env.schedule_call(3, loser.fail, RuntimeError("late"))
        done = []

        def proc():
            won = yield env.first_of(env.timeout(1, "fast"), loser)
            done.append(won.value)

        env.process(proc())
        env.run()  # the late failure does not crash the run
        assert done == ["fast"] and loser.processed

    def test_a_processed_child_decides_at_once(self):
        env = Environment()
        ready = env.event()
        ready.succeed("ready")
        env.run()
        done = []

        def proc():
            won = yield env.first_of(env.timeout(1), ready)
            done.append((env.now, won is ready))

        env.process(proc())
        env.run()
        assert done == [(0.0, True)]
