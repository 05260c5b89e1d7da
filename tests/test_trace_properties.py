"""Property tests: tracing is schedule-transparent and span forests are
well-formed under randomized crash, partition and quorum schedules.

Two invariants, checked over random fault schedules:

* **Transparency** — running the same cluster with ``tracing=True`` and
  ``tracing=False`` yields byte-identical transaction records, message
  counts and simulated duration. Tracing is wall-clock-only: no
  messages, no RNG draws, no timeouts.
* **Forest integrity** — the recorded spans form a well-formed forest
  (parents resolve, no cycles, ``end >= start``), and every *committed*
  transaction's tree is singly rooted with the commit-carrying root
  ending at or after all of its descendants, even when crashes and
  partitions unwind coordinators mid-flight.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import DTXCluster, SystemConfig
from repro.obs import span_forest_errors, transaction_trees
from repro.workload import DTXTester, WorkloadSpec

from .conftest import example_budget, make_people_doc, make_products_doc

SITES = ("s1", "s2", "s3", "s4")


@st.composite
def scenarios(draw):
    """Cluster config + workload + a random fault schedule.

    Partitions are only drawn in lease-detector mode: with the perfect
    detector a cut silently drops in-flight requests and the coordinator
    (correctly) waits forever — the simulator idiom for partition
    tolerance is lease-based suspicion, as in TestPartitionProperties.
    """
    replicated = draw(st.booleans())
    config = dict(
        client_think_ms=0.0,
        lock_wait_timeout_ms=100.0,
        max_restarts=2,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    lease = False
    if replicated:
        lease = draw(st.booleans())
        config.update(
            replication_factor=3,
            replica_read_policy=draw(st.sampled_from(["nearest", "quorum"])),
            replica_write_policy=draw(st.sampled_from(["primary", "quorum"])),
        )
        if lease:
            config.update(
                failure_detector="lease",
                lease_timeout_ms=draw(st.sampled_from([3.0, 5.0, 8.0])),
            )
    workload = WorkloadSpec(
        n_clients=draw(st.integers(min_value=2, max_value=5)),
        tx_per_client=draw(st.integers(min_value=1, max_value=3)),
        ops_per_tx=draw(st.integers(min_value=1, max_value=4)),
        update_tx_ratio=draw(st.sampled_from([0.3, 0.6, 1.0])),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    crashes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(SITES),
                st.floats(min_value=0.5, max_value=20.0),
                st.floats(min_value=5.0, max_value=25.0),
            ),
            max_size=2,
        )
    )
    partition = None
    if lease and draw(st.booleans()):
        cut = draw(st.integers(min_value=1, max_value=3))
        partition = (
            [list(SITES[:cut]), list(SITES[cut:])],
            draw(st.floats(min_value=0.5, max_value=15.0)),
            draw(st.sampled_from([6.0, 20.0, 45.0])),
        )
    return replicated, config, workload, (crashes, partition)


def _run(replicated, config, workload, faults, tracing):
    cluster = DTXCluster(
        protocol="xdgl",
        config=SystemConfig().with_(tracing=tracing, **config),
    )
    for s in SITES:
        cluster.add_site(s)
    docs = [make_people_doc(), make_products_doc()]
    if replicated:
        cluster.replicate_document(docs[0], SITES[:3])
        cluster.replicate_document(docs[1], SITES[1:])
    else:
        cluster.host_document("s1", docs[0])
        cluster.host_document("s3", docs[1])
    crashes, partition = faults
    busy = {}
    for site, at, outage in crashes:
        # A site cannot be re-crashed while still down from an earlier
        # window; push overlapping windows past the previous recovery.
        at = max(at, busy.get(site, 0.0))
        cluster.schedule_crash(site, at_ms=at, recover_at_ms=at + outage)
        busy[site] = at + outage + 0.5
    if partition is not None:
        groups, at, heal = partition
        cluster.schedule_partition(groups, at_ms=at, heal_at_ms=at + heal)
    tester = DTXTester(workload, docs)
    for c, site in tester.assign_clients_to_sites(list(SITES)).items():
        cluster.add_client(f"c{c}", site, tester.transactions_for_client(c))
    return cluster.run(drain_ms=300.0)


def _digest(result):
    records = sorted(
        (
            r.client_id,
            r.label,
            r.status,
            r.reason,
            r.response_ms,
            r.finished_ts,
            r.restarts,
        )
        for r in result.records
    )
    return (
        records,
        result.network_messages,
        result.network_bytes,
        result.duration_ms,
    )


class TestTraceProperties:
    @given(scenarios())
    @settings(
        max_examples=example_budget(15),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_tracing_never_perturbs_the_schedule(self, scenario):
        replicated, config, workload, faults = scenario
        off = _run(replicated, config, workload, faults, tracing=False)
        on = _run(replicated, config, workload, faults, tracing=True)
        assert off.spans == []
        assert on.spans, "traced run recorded no spans"
        assert _digest(off) == _digest(on)

    @given(scenarios())
    @settings(
        max_examples=example_budget(15),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_span_forest_well_formed_under_faults(self, scenario):
        replicated, config, workload, faults = scenario
        result = _run(replicated, config, workload, faults, tracing=True)
        errors = span_forest_errors(result.spans)
        assert errors == [], "\n".join(errors[:10])
        # Every committed client transaction owns exactly one tx root.
        trees = transaction_trees(result.spans)
        by_id = {s.sid: s for s in result.spans}
        committed_roots = [
            rid for rid in trees if by_id[rid].label("status") == "committed"
        ]
        assert len(committed_roots) == len(result.committed)
        for rid in committed_roots:
            root = by_id[rid]
            assert root.parent == 0 and root.cat == "tx"
            assert root.end is not None
            for member in trees[rid]:
                assert member.end is not None
                assert member.end <= root.end + 1e-9
