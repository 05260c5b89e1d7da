"""Differential schedule equivalence: bucket kernel vs classic heap kernel.

The production :class:`~repro.sim.environment.Environment` dispatches from an
indexed bucket queue; :class:`~repro.verify.ReferenceEnvironment` is the
textbook ``(time, seq)`` heap it claims to be equivalent to. Each test here
runs the *same* seeded DTX workload once on each kernel with a
:class:`~repro.verify.TraceRecorder` attached and asserts the two dispatch
traces are equal **event by event** — time and structural identity of every
single queue item — plus equality of the final serialized replica states and
client outcomes.

An attached tracer drives the production kernel through its step-wise driver
(same dispatch order as the fast ``_drain`` loops, one item per
:meth:`step`); the untraced fast path is covered separately by the BENCH
state digests, which must stay byte-identical across kernel changes.

Workloads cover the four schedule shapes the kernel optimisations touch:
lock-contended writers (wake-up ordering), high write load (group-commit
batching and same-tick message delivery), crash/failover (mid-run fault
injection via ``schedule_call``), and quorum reads/writes (multi-phase
drivers with horizon runs).
"""

from __future__ import annotations

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.sim.environment import Environment
from repro.update import ChangeOp, InsertOp
from repro.verify import ReferenceEnvironment, TraceRecorder, trace_digest
from repro.xml import E, doc, serialize_document

from .conftest import replicated_cluster
from .test_faults import FT

KERNELS = (Environment, ReferenceEnvironment)


def _assert_same_trace(fast, ref):
    """Event-by-event comparison with a useful first-divergence message."""
    for i, (f, r) in enumerate(zip(fast, ref)):
        assert f == r, (
            f"dispatch traces diverge at item #{i}:\n"
            f"  bucket kernel: {f!r}\n"
            f"  classic heap:  {r!r}"
        )
    assert len(fast) == len(ref), (
        f"trace lengths differ: bucket kernel dispatched {len(fast)} items, "
        f"classic heap dispatched {len(ref)}"
    )
    assert trace_digest(fast) == trace_digest(ref)


def _run_on_both(workload):
    """Run ``workload(env)`` on both kernels; return their (trace, state)."""
    outcomes = []
    for env_cls in KERNELS:
        env = env_cls()
        recorder = TraceRecorder().attach(env)
        state = workload(env)
        outcomes.append((recorder.entries, state))
    (fast_trace, fast_state), (ref_trace, ref_state) = outcomes
    _assert_same_trace(fast_trace, ref_trace)
    assert fast_state == ref_state, "final states differ between kernels"
    assert len(fast_trace) > 100, "workload too small to exercise the kernel"


# ---------------------------------------------------------------------------
# workloads (small contended / high-write / quorum shapes and a fault scenario)
# ---------------------------------------------------------------------------


def _contended_workload(env):
    """Disjoint writer groups on one hot document, remote coordinator."""
    cfg = SystemConfig().with_(client_think_ms=0.0)
    cluster = DTXCluster(protocol="xdgl", config=cfg, env=env)
    hot = doc("hot", E("hot", *[E(f"v{i}", text="0") for i in range(3)]))
    cluster.add_site("s1", [hot])
    cluster.add_site("s2", [hot])
    cluster.add_site("s3", [])
    n = 0
    for g in range(3):
        for c in range(2):
            txs = [
                Transaction(
                    [Operation.update("hot", ChangeOp(f"/hot/v{g}", "x")) for _ in range(2)],
                    label=f"g{g}c{c}t{t}",
                )
                for t in range(2)
            ]
            cluster.add_client(f"c{n}", "s3", txs)
            n += 1
    result = cluster.run()
    return {
        "committed": len(result.committed),
        "aborted": len(result.aborted),
        "docs": [serialize_document(cluster.document_at(s, "hot")) for s in ("s1", "s2")],
    }


def _high_write_workload(env):
    """Non-conflicting inserts on a replicated document (sync batching)."""
    cfg = SystemConfig().with_(
        client_think_ms=0.0,
        replica_write_policy="primary",
        replica_read_policy="nearest",
    )
    hot = doc("hot", E("hot", *[E(f"c{i}") for i in range(4)]))
    cluster = replicated_cluster(cfg, 3, document=hot, env=env)
    for i in range(4):
        txs = [
            Transaction(
                [Operation.update("hot", InsertOp(f"<e><t>{t}</t></e>", f"/hot/c{i}"))],
                label=f"c{i}t{t}",
            )
            for t in range(2)
        ]
        cluster.add_client(f"cl{i}", "s1", txs)
    result = cluster.run()
    return {
        "committed": len(result.committed),
        "docs": [serialize_document(cluster.document_at(s, "hot")) for s in cluster.sites],
    }


def _crash_failover_workload(env):
    """Primary crash + recovery mid-workload (schedule_call fault path)."""
    cluster = replicated_cluster(FT, env=env)
    for i, site in enumerate(("s2", "s3", "s4")):
        txs = [
            Transaction(
                [
                    Operation.update(
                        "d1",
                        InsertOp(f"<person><id>{100 + 10 * i + k}</id></person>", "/people"),
                    )
                ],
                label=f"w{i}.{k}",
            )
            for k in range(2)
        ]
        cluster.add_client(f"c{i}", site, txs)
    cluster.schedule_crash("s1", at_ms=1.2, recover_at_ms=12.0)
    result = cluster.run(drain_ms=120.0)
    return {
        "committed": len(result.committed),
        "failed": len(result.failed),
        "crashes": result.site_crashes,
        "recoveries": result.site_recoveries,
        "promotions": result.promotions,
        "primary": cluster.catalog.replica_set("d1").primary,
        "docs": [serialize_document(cluster.document_at(s, "d1")) for s in ("s2", "s3")],
    }


def _quorum_workload(env):
    """Quorum writes with a refusing secondary, then quorum reads + repair."""
    cfg = SystemConfig().with_(
        client_think_ms=0.0,
        replication_factor=3,
        replica_read_policy="quorum",
        replica_write_policy="quorum",
        read_quorum_r=3,
        write_quorum_w=2,
    )
    hot = doc("hot", E("hot", *[E(f"c{i}") for i in range(2)]))
    cluster = replicated_cluster(cfg, 3, document=hot, env=env)
    cluster.start()
    outcomes: list = []
    cluster.sites["s3"].refuse_sync.add("*")
    for i in range(2):
        for t in range(2):
            tx = Transaction(
                [Operation.update("hot", InsertOp(f"<e><t>{t}</t></e>", f"/hot/c{i}"))],
                label=f"w{i}.{t}",
            )
            cluster.sites["s1"].submit(tx, outcomes.append)
    cluster.env.run(until=cluster.env.now + 30.0)
    cluster.sites["s3"].refuse_sync.discard("*")
    for r in range(3):
        tx = Transaction([Operation.query("hot", f"/hot/c{r % 2}")], label=f"r{r}")
        cluster.sites["s2"].submit(tx, outcomes.append)
    cluster.env.run(until=cluster.env.now + 60.0)
    return {
        "committed": sum(1 for o in outcomes if o.committed),
        "docs": [serialize_document(cluster.document_at(s, "hot")) for s in cluster.sites],
    }


# ---------------------------------------------------------------------------
# the differential assertions
# ---------------------------------------------------------------------------


class TestScheduleEquivalence:
    def test_contended_writers(self):
        _run_on_both(_contended_workload)

    def test_high_write_load(self):
        _run_on_both(_high_write_workload)

    def test_crash_failover(self):
        _run_on_both(_crash_failover_workload)

    def test_quorum_reads_writes(self):
        _run_on_both(_quorum_workload)


class TestReferenceEnvironmentIsAKernel:
    """The oracle must itself be a complete kernel (else the diff is vacuous)."""

    def test_flat_timers_and_events(self):
        env = ReferenceEnvironment()
        log = []

        def proc(tag, delay):
            yield delay
            log.append((tag, env.now))
            yield env.timeout(delay)
            log.append((tag, env.now))
            return tag

        p1 = env.process(proc("a", 1.0))
        p2 = env.process(proc("b", 0.5))
        done = env.all_of([p1, p2])
        env.run(until=done)
        assert log == [("b", 0.5), ("a", 1.0), ("b", 1.0), ("a", 2.0)]
        assert p1.value == "a" and p2.value == "b"

    def test_fifo_tie_break_matches_schedule_order(self):
        env = ReferenceEnvironment()
        order = []
        for tag in ("x", "y", "z"):
            env.schedule_call(1.0, order.append, tag)
        env.run()
        assert order == ["x", "y", "z"]

    def test_run_until_horizon_sets_now(self):
        env = ReferenceEnvironment()
        env.schedule_call(5.0, lambda: None)
        env.run(until=3.0)
        assert env.now == 3.0
        assert env.peek() == 5.0
