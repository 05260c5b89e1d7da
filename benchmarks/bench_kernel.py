"""Event-kernel micro-benchmarks: dispatch and queue churn.

Conventional pytest-benchmark timings of the hot-path substrates:
Timeout-object dispatch vs the flat numeric-yield timer, and
:class:`~repro.sim.queues.SchedulerQueue` schedule/cancel/pop churn.
"""

from repro.sim.environment import Environment
from repro.sim.queues import SchedulerQueue

N_EVENTS = 20_000
N_CHURN = 20_000


def _run_lanes(ticker_factory) -> Environment:
    env = Environment()
    for _ in range(4):
        env.process(ticker_factory(env, N_EVENTS // 4))
    env.run()
    return env


def test_bench_event_dispatch_timeout_objects(benchmark):
    """The classic path: one Timeout event allocated per timer step."""

    def ticker(env, n):
        def gen():
            for _ in range(n):
                yield env.timeout(0.01)
        return gen()

    env = benchmark(_run_lanes, ticker)
    assert env.now > 0


def test_bench_event_dispatch_flat_timers(benchmark):
    """The flat path: ``yield 0.01`` reuses one tick event per process."""

    def ticker(env, n):
        def gen():
            for _ in range(n):
                yield 0.01
        return gen()

    env = benchmark(_run_lanes, ticker)
    assert env.now > 0


def test_bench_scheduler_queue_churn(benchmark):
    """Timer-wheel usage: schedule bursts with retractions and pops."""

    def churn():
        q = SchedulerQueue()
        handles = []
        for i in range(N_CHURN):
            handles.append(q.schedule(float(i % 97), i))
            if i % 3 == 2:
                q.cancel(handles[i - 2])
            if i % 7 == 6:
                q.pop()
        drained = 0
        while len(q):
            q.pop()
            drained += 1
        return drained

    drained = benchmark(churn)
    assert drained > 0

