"""Materialized XPath views: subsumption laws, registration validation,
read routing (zero locks / zero 2PC), staleness and epoch fencing, crash
fallback + recovery re-hydration, the bounded parse-cache LRU, and a
Hypothesis suite asserting every view serve is an exact committed-log
prefix under random write/fault schedules."""

import hashlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.config import CostConfig
from repro.errors import ConfigError
from repro.update import ChangeOp, InsertOp
from repro.update.applier import apply_update
from repro.xpath.parser import clear_parse_cache, parse_cache_stats
from repro import views
from repro.views import ViewDefinition, subsumes
from repro.xml import parse_document, serialize_document
from repro.xpath import EvalStats, evaluate, parse_xpath
from repro.xpath.parser import _Parser

from .conftest import example_budget, make_people_doc, make_unnormalised_people_doc

VIEWS = SystemConfig().with_(
    client_think_ms=0.0,
    replication_factor=2,
    replica_read_policy="primary",
    replica_write_policy="primary",
    view_staleness_ms=50.0,
    view_refresh_ms=2.0,
    lock_wait_timeout_ms=200.0,
    max_restarts=2,
)


def views_cluster(config=VIEWS, pattern="//person", document=None):
    """d1 replicated at s1 (primary) + s2; the view hosted at s3."""
    cluster = DTXCluster(protocol="xdgl", config=config)
    for s in ("s1", "s2", "s3"):
        cluster.add_site(s)
    cluster.replicate_document(document or make_people_doc(), ["s1", "s2"])
    cluster.register_view("v-people", pattern, ["d1"], host="s3")
    return cluster


def insert_tx(marker, label=""):
    return Transaction(
        [Operation.update("d1", InsertOp(f"<person><id>{marker}</id></person>", "/people"))],
        label=label or f"w{marker}",
    )


def read_tx(label="r"):
    return Transaction([Operation.query("d1", "/people/person")], label=label)


def doc_at(cluster, site):
    return serialize_document(cluster.document_at(site, "d1"))


def lock_ops(cluster):
    return {s: site.lock_manager.table.lock_ops for s, site in cluster.sites.items()}


def commit_requests(cluster):
    return cluster.network.stats.by_kind.get("CommitRequest", 0)


# ---------------------------------------------------------------------------
# units: pattern subsumption and view definition / registration validation
# ---------------------------------------------------------------------------


class TestSubsumption:
    @pytest.mark.parametrize(
        "view,query,expect",
        [
            ("//person", "/people/person", True),
            ("//*", "/a/b", True),
            ("/a//b", "/a/c/b", True),
            ("/a//b", "/a/b", True),
            ("/a/b", "/a//b", False),  # child step fixes one level
            ("//b", "/a/b/c", False),  # query selects below the pattern
            ("/people/person", "/people/person[id=4]", True),  # weaker preds
            ("/people/person[id=4]", "/people/person", False),
            ("/people/person[id=4]", "/people/person[id=4]", True),
            ("/people/*", "/people/person", True),
            ("/people/person", "/people/*", False),
            ("/a/b/text()", "/a/b/text()", True),
            ("/a/b", "/a/b/text()", False),  # different node kind depth
            ("/a/@id", "/a/@id", True),
            ("/a/@id", "/a/@name", False),
        ],
    )
    def test_table(self, view, query, expect):
        assert subsumes(parse_xpath(view), parse_xpath(query)) is expect

    def test_relative_paths_never_subsume(self):
        assert not subsumes(parse_xpath("a/b"), parse_xpath("/a/b"))
        assert not subsumes(parse_xpath("/a/b"), parse_xpath("a/b"))


class TestViewDefinition:
    def test_define_rejects_relative_pattern(self):
        with pytest.raises(ConfigError, match="absolute"):
            ViewDefinition.define("v", "people/person", ["d1"], host="s1")

    def test_define_rejects_empty_doc_list(self):
        with pytest.raises(ConfigError, match="document"):
            ViewDefinition.define("v", "/people", [], host="s1")

    def test_covers_checks_doc_membership(self):
        view = ViewDefinition.define("v", "//person", ["d1"], host="s1")
        q = parse_xpath("/people/person")
        assert view.covers("d1", q)
        assert not view.covers("d2", q)

    def test_covers_keeps_one_answer_per_pattern(self):
        """The answer kept on a query path is per pattern: two views
        asking about one path in turn each get their own, every time."""
        q = parse_xpath("/people/person")
        wide = ViewDefinition.define("w", "//person", ["d1"], host="s1")
        narrow = ViewDefinition.define("n", "/people/person[id=4]", ["d1"], host="s1")
        for _ in range(2):
            assert wide.covers("d1", q) and not narrow.covers("d1", q)


class TestRegistration:
    def test_unknown_host_rejected(self):
        cluster = DTXCluster(protocol="xdgl", config=VIEWS)
        cluster.add_site("s1")
        cluster.add_site("s2")
        cluster.replicate_document(make_people_doc(), ["s1", "s2"])
        with pytest.raises(ConfigError, match="not a site"):
            cluster.register_view("v", "//person", ["d1"], host="nope")

    def test_write_all_regime_rejected(self):
        cfg = SystemConfig().with_(replication_factor=2, replica_write_policy="all")
        cluster = DTXCluster(protocol="xdgl", config=cfg)
        for s in ("s1", "s2", "s3"):
            cluster.add_site(s)
        cluster.replicate_document(make_people_doc(), ["s1", "s2"])
        with pytest.raises(ConfigError, match="primary-copy"):
            cluster.register_view("v", "//person", ["d1"], host="s3")

    def test_unreplicated_document_rejected(self):
        cluster = DTXCluster(protocol="xdgl", config=VIEWS)
        for s in ("s1", "s2"):
            cluster.add_site(s)
        cluster.replicate_document(make_people_doc(), ["s1"])
        with pytest.raises(ConfigError, match="unreplicated"):
            cluster.register_view("v", "//person", ["d1"], host="s2")

    def test_unplaced_document_rejected(self):
        cluster = DTXCluster(protocol="xdgl", config=VIEWS)
        for s in ("s1", "s2"):
            cluster.add_site(s)
        with pytest.raises(ConfigError, match="unplaced"):
            cluster.register_view("v", "//person", ["ghost"], host="s2")


# ---------------------------------------------------------------------------
# integration: routing, maintenance, fencing and fallback on a live cluster
# ---------------------------------------------------------------------------


class TestRouting:
    def test_view_read_takes_no_locks_and_joins_no_2pc(self):
        cluster = views_cluster()
        cluster.start()
        cluster.env.run(until=10.0)
        host = cluster.sites["s3"]
        assert host.stats.view_hydrations == 1
        locks_before = lock_ops(cluster)
        commits_before = commit_requests(cluster)
        outcomes = []
        tx = read_tx()
        cluster.sites["s1"].submit(tx, outcomes.append)
        cluster.env.run(until=40.0)
        assert [o.status for o in outcomes] == ["committed"]
        assert tx.sites_involved == set()
        assert lock_ops(cluster) == locks_before
        assert commit_requests(cluster) == commits_before
        assert host.stats.view_reads_served == 1
        assert cluster.sites["s1"].stats.view_reads_routed == 1

    def test_routing_off_by_default(self):
        cluster = views_cluster(VIEWS.with_(view_staleness_ms=0.0))
        cluster.start()
        cluster.env.run(until=10.0)
        outcomes = []
        cluster.sites["s1"].submit(read_tx(), outcomes.append)
        cluster.env.run(until=40.0)
        assert [o.status for o in outcomes] == ["committed"]
        assert cluster.sites["s1"].stats.view_reads_routed == 0
        assert cluster.sites["s3"].stats.view_reads_served == 0

    def test_update_transactions_never_view_routed(self):
        cluster = views_cluster()
        cluster.start()
        cluster.env.run(until=10.0)
        outcomes = []
        tx = Transaction(
            [
                Operation.query("d1", "/people/person"),
                Operation.update("d1", ChangeOp("/people/person[id=4]/name", "Ana")),
            ],
            label="rw",
        )
        cluster.sites["s1"].submit(tx, outcomes.append)
        cluster.env.run(until=60.0)
        assert [o.status for o in outcomes] == ["committed"]
        assert cluster.sites["s1"].stats.view_reads_routed == 0

    def test_uncovered_query_falls_back(self):
        # The view materializes //person; a query over another subtree is
        # not subsumed and takes the locked path.
        cluster = views_cluster(pattern="/people/person/name")
        cluster.start()
        cluster.env.run(until=10.0)
        outcomes = []
        cluster.sites["s1"].submit(read_tx(), outcomes.append)
        cluster.env.run(until=40.0)
        assert [o.status for o in outcomes] == ["committed"]
        assert cluster.sites["s3"].stats.view_reads_served == 0
        assert cluster.sites["s1"].stats.view_read_fallbacks == 1


class TestMaintenance:
    def test_deltas_keep_shadow_identical_to_primary(self):
        clear_parse_cache()
        cluster = views_cluster()
        cluster.start()
        cluster.env.run(until=10.0)
        outcomes = []
        for marker in (21, 22, 23):
            cluster.sites["s1"].submit(insert_tx(marker), outcomes.append)
            cluster.env.run(until=cluster.env.now + 5.0)
        cluster.env.run(until=80.0)
        assert [o.status for o in outcomes] == ["committed"] * 3
        host = cluster.sites["s3"]
        shadow = host.views.states["d1"].doc
        assert serialize_document(shadow) == doc_at(cluster, "s1")
        assert host.views.states["d1"].applied_lsn == 3
        assert host.stats.view_deltas_applied == 3
        # Parse-cache counters surface through SiteStats: collecting the
        # results snapshots this run's process-wide memo counters at every
        # site.
        counts = parse_cache_stats()
        assert counts[0] > 0 and counts[1] > 0
        result = cluster.collect_results()
        assert all(
            (s.parse_cache_hits, s.parse_cache_misses) == counts
            for s in result.site_stats.values()
        )

    def test_hydrated_view_is_byte_identical_to_the_primary(self):
        """The host adopts a clone of the primary's committed tree as it is.
        Rendered and parsed back, Carlos would lose his padding and the
        empty note would come back as ``<note/>``. (Crash recovery still
        reloads through the parser and so still normalises: that is the
        storage format's business, not the handover's.)"""
        cluster = views_cluster(document=make_unnormalised_people_doc())
        cluster.start()
        cluster.env.run(until=10.0)
        host = cluster.sites["s3"]
        assert host.stats.view_hydrations == 1
        primary = doc_at(cluster, "s1")
        assert "<name>  Carlos  </name>" in primary and "<note></note>" in primary
        assert serialize_document(host.views.states["d1"].doc) == primary

    def test_stale_view_falls_back_to_locked_path(self):
        # Refresh far apart: by read time the shadow's last proof of
        # freshness exceeds the 0.5 ms bound and the host refuses.
        cluster = views_cluster(
            VIEWS.with_(view_staleness_ms=0.5, view_refresh_ms=500.0)
        )
        cluster.start()
        cluster.env.run(until=30.0)
        outcomes = []
        cluster.sites["s1"].submit(read_tx(), outcomes.append)
        cluster.env.run(until=80.0)
        assert [o.status for o in outcomes] == ["committed"]
        host = cluster.sites["s3"]
        assert host.stats.view_stale_refusals >= 1
        assert host.stats.view_reads_served == 0
        assert cluster.sites["s1"].stats.view_read_fallbacks == 1

    def test_epoch_mismatch_refuses_serve(self):
        cluster = views_cluster()
        cluster.start()
        cluster.env.run(until=10.0)
        mgr = cluster.sites["s3"].views
        op = Operation.query("d1", "/people/person")
        ok, reason, *_ = mgr.serve(
            op, epoch=cluster.catalog.epoch("d1") + 1, bound_ms=50.0
        )
        assert not ok and reason == "epoch-fenced"
        assert cluster.sites["s3"].stats.view_epoch_refusals == 1

    def test_primary_change_fences_then_rehydrates(self):
        cluster = views_cluster(VIEWS.with_(view_refresh_ms=20.0))
        cluster.start()
        cluster.env.run(until=10.0)
        host = cluster.sites["s3"]
        assert host.stats.view_hydrations == 1
        # Promotion bumps the epoch: the shadow was materialized under the
        # old epoch, so the next routed read is fenced and falls back...
        cluster.catalog.set_primary("d1", "s2")
        outcomes = []
        cluster.sites["s1"].submit(read_tx("r1"), outcomes.append)
        cluster.env.run(until=25.0)
        assert [o.status for o in outcomes] == ["committed"]
        assert host.stats.view_epoch_refusals >= 1
        assert cluster.sites["s1"].stats.view_read_fallbacks >= 1
        # ...until the new primary's push loop re-points the shadow and the
        # host re-hydrates under the new epoch.
        cluster.env.run(until=90.0)
        assert host.stats.view_hydrations == 2
        cluster.sites["s1"].submit(read_tx("r2"), outcomes.append)
        cluster.env.run(until=130.0)
        assert [o.status for o in outcomes] == ["committed"] * 2
        assert host.stats.view_reads_served >= 1


class TestSlowFallback:
    def test_a_site_that_ran_a_timed_out_attempt_is_settled(self):
        """Lease mode bounds an op round by ``_round_timeout_ms`` (12 ms
        here). The first query finds the view not hydrated yet and falls
        back to s1, the coordinator's own copy, whose participant takes
        about 20 ms: it takes its locks, but the round settles without it.
        The retry and the second query are served by the now hydrated
        view. So every operation was view-served, yet s1 executed one
        attempt: the commit must still settle s1, or s1 keeps the
        transaction's locks and context for good."""
        config = VIEWS.with_(
            failure_detector="lease",
            max_restarts=0,
            costs=CostConfig(node_visit_ms=1.0),
        )
        cluster = views_cluster(config)
        tx = Transaction(
            [Operation.query("d1", "//person"), Operation.query("d1", "//person")],
            label="r",
        )
        cluster.add_client("c0", "s1", [tx])
        result = cluster.run()
        assert [r.status for r in result.records] == ["committed"]
        s1 = cluster.sites["s1"]
        assert s1.stats.view_read_fallbacks == 1
        assert s1.stats.view_reads_routed == 2
        assert tx.sites_involved == {"s1"}
        for site in cluster.sites.values():
            assert site.lock_manager.table.lock_count() == 0, site.site_id
            assert not site.tx_contexts, site.site_id


class TestCrashFallback:
    def test_host_crash_falls_back_then_recovery_rehydrates(self):
        cluster = views_cluster()
        cluster.start()
        cluster.env.run(until=10.0)
        cluster.crash_site("s3")
        outcomes = []
        cluster.sites["s1"].submit(read_tx("r1"), outcomes.append)
        cluster.env.run(until=60.0)
        assert [o.status for o in outcomes] == ["committed"]
        assert cluster.sites["s1"].stats.view_read_fallbacks >= 1
        assert cluster.sites["s3"].stats.view_reads_served == 0
        cluster.recover_site("s3")
        cluster.env.run(until=160.0)
        assert cluster.sites["s3"].stats.view_hydrations >= 2
        cluster.sites["s1"].submit(read_tx("r2"), outcomes.append)
        cluster.env.run(until=200.0)
        assert [o.status for o in outcomes] == ["committed"] * 2
        assert cluster.sites["s3"].stats.view_reads_served >= 1


# ---------------------------------------------------------------------------
# the parse-cache LRU (satellite: bounded memoization)
# ---------------------------------------------------------------------------


class TestParseCacheLRU:
    def test_bounded_with_lru_eviction(self):
        import repro.xpath.parser as xp

        old_max = xp._PARSE_CACHE_MAX
        xp.clear_parse_cache()
        xp._PARSE_CACHE_MAX = 3
        try:
            for p in ("/a", "/b", "/c"):
                xp.parse_xpath(p)
            xp.parse_xpath("/a")  # touch: /a becomes most recent
            xp.parse_xpath("/d")  # at capacity: evicts /b, the least recent
            assert list(xp._PARSE_CACHE) == ["/c", "/a", "/d"]
            assert xp.parse_cache_stats() == (1, 4)
            xp.parse_xpath("/b")  # evicted, so this is a fresh miss
            assert xp.parse_cache_stats() == (1, 5)
            assert len(xp._PARSE_CACHE) == 3
        finally:
            xp._PARSE_CACHE_MAX = old_max
            xp.clear_parse_cache()

    def test_hit_returns_same_object(self):
        import repro.xpath.parser as xp

        xp.clear_parse_cache()
        try:
            first = xp.parse_xpath("/people/person")
            again = xp.parse_xpath("/people/person")
            assert first is again
        finally:
            xp.clear_parse_cache()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_SOUNDNESS_DOC = parse_document(
    """
    <site>
      <regions>
        <europe>
          <item><name>Sword</name><price>10.0</price></item>
          <item><name>Shield</name><price>20.0</price></item>
        </europe>
        <asia><item><name>Bow</name><price>15.0</price></item></asia>
      </regions>
      <people>
        <person><name>Ana</name></person>
        <person><name>Bruno</name></person>
      </people>
    </site>
    """,
    name="c",
)

_SEGMENT = st.tuples(
    st.sampled_from(["/", "//"]),
    st.sampled_from(
        ["site", "regions", "europe", "asia", "item", "name", "price", "people", "person", "*"]
    ),
)
_PATHS = st.lists(_SEGMENT, min_size=1, max_size=4).map(
    lambda segs: "".join(axis + name for axis, name in segs)
)


@settings(max_examples=example_budget(80), deadline=None)
@given(vp=_PATHS, qp=_PATHS)
def test_subsumption_is_sound(vp, qp):
    """If the pattern subsumes the query, every query result is a view node."""
    view, query = parse_xpath(vp), parse_xpath(qp)
    if not subsumes(view, query):
        return
    vres = {id(n) for n in evaluate(view, _SOUNDNESS_DOC, EvalStats())}
    qres = {id(n) for n in evaluate(query, _SOUNDNESS_DOC, EvalStats())}
    assert qres <= vres


def _fresh_parse(text):
    """A parse of its own (the memo would hand back the same objects), so
    equal predicates are equal by value, not by identity."""
    return _Parser(text).parse_path()


def _str_set_step_subsumes(v, q):
    """The step rule as it was: predicate sets compared by their ``str``."""
    return views._test_subsumes(v.test, q.test) and (
        {str(p) for p in v.predicates} <= {str(p) for p in q.predicates}
    )


_PREDICATES = [
    "id=4", "id=4.0", '@id="4"', "name", "2", "id=4 and name", "price>1.5",
    '@id="x" or name', 'name="Ana"',
]
_STEPS = st.tuples(
    st.sampled_from(["/", "//"]),
    st.sampled_from(["people", "person", "name", "*"]),
    st.lists(st.sampled_from(_PREDICATES), max_size=2),
)


def _render(steps):
    return "".join(axis + name + "".join(f"[{p}]" for p in preds) for axis, name, preds in steps)


@settings(max_examples=example_budget(150), deadline=None)
@given(data=st.data())
def test_coverage_by_predicate_equality_matches_the_string_sets(data):
    """Views cover a query step when their predicates are among its own;
    comparing the frozen predicates by value gives the verdict comparing
    their ``str`` gave. A query is drawn on its own or as the view with
    predicates added to its steps."""
    view = data.draw(st.lists(_STEPS, min_size=1, max_size=3), label="view")
    if data.draw(st.booleans(), label="derived"):
        query = [
            (axis, name, preds + data.draw(st.lists(st.sampled_from(_PREDICATES), max_size=2)))
            for axis, name, preds in view
        ]
    else:
        query = data.draw(st.lists(_STEPS, min_size=1, max_size=3), label="query")
    v, q = _fresh_parse(_render(view)), _fresh_parse(_render(query))
    verdict = subsumes(v, q)
    with mock.patch.object(views, "_step_subsumes", _str_set_step_subsumes):
        assert verdict is subsumes(v, q)


def _replay_digest(initial_text, log, lsn):
    """Sha256 of the initial document with log entries 1..lsn applied."""
    docm = parse_document(initial_text, name="d1")
    for n in range(1, lsn + 1):
        for op in log.entries[n].ops:
            apply_update(op.payload, docm, EvalStats())
    return hashlib.sha256(serialize_document(docm).encode()).hexdigest()


@settings(
    max_examples=example_budget(10),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_view_serves_are_committed_log_prefixes(data):
    """Under random write schedules and view-host/secondary faults, every
    answer a view host ever served is byte-identical to the primary's
    committed state at some log prefix, within the staleness bound and
    under the current epoch — never torn, fenced or over-stale."""
    bound = data.draw(st.sampled_from([10.0, 30.0, 80.0]), label="bound_ms")
    n_writes = data.draw(st.integers(min_value=1, max_value=5), label="n_writes")
    fault = data.draw(
        st.sampled_from(["none", "crash-host", "crash-secondary", "partition"]),
        label="fault",
    )
    fault_at = data.draw(
        st.floats(min_value=12.0, max_value=45.0), label="fault_at"
    )
    read_times = data.draw(
        st.lists(
            st.floats(min_value=12.0, max_value=90.0),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        label="read_times",
    )

    initial_text = serialize_document(make_people_doc())
    cluster = views_cluster(VIEWS.with_(view_staleness_ms=bound))
    trace = []
    cluster.sites["s3"].views.trace = trace
    outcomes = []

    events = []
    for i in range(n_writes):
        t = 11.0 + i * 7.0
        events.append(
            (t, lambda i=i: cluster.sites["s1"].submit(
                insert_tx(100 + i) if i % 2 == 0 else Transaction(
                    [Operation.update(
                        "d1", ChangeOp("/people/person[id=4]/name", f"n{i}")
                    )],
                    label=f"c{i}",
                ),
                outcomes.append,
            ))
        )
    for i, t in enumerate(read_times):
        events.append(
            (t, lambda i=i: cluster.sites["s1"].submit(read_tx(f"r{i}"), outcomes.append))
        )
    if fault == "crash-host":
        events.append((fault_at, lambda: cluster.crash_site("s3")))
        events.append((fault_at + 15.0, lambda: cluster.recover_site("s3")))
    elif fault == "crash-secondary":
        events.append((fault_at, lambda: cluster.crash_site("s2")))
        events.append((fault_at + 15.0, lambda: cluster.recover_site("s2")))
    elif fault == "partition":
        events.append(
            (fault_at, lambda: cluster.partition_network(["s1", "s2"], ["s3"]))
        )
        events.append((fault_at + 15.0, lambda: cluster.heal_network()))

    cluster.start()
    for t, action in sorted(events, key=lambda e: e[0]):
        if t > cluster.env.now:
            cluster.env.run(until=t)
        action()
    cluster.env.run(until=150.0)
    # One final read with everything healed so most schedules end with at
    # least one actual serve on record.
    cluster.sites["s1"].submit(read_tx("final"), outcomes.append)
    cluster.env.run(until=220.0)

    assert all(o.status in ("committed", "aborted", "failed") for o in outcomes)
    log = cluster.sites["s1"].log_for("d1")
    epoch_now = cluster.catalog.epoch("d1")
    for rec in trace:
        assert rec["staleness_ms"] <= bound + 1e-9
        assert rec["epoch"] == epoch_now  # the primary was never deposed
        assert 0 <= rec["lsn"] <= log.applied_lsn  # prefix of committed log
        assert rec["digest"] == _replay_digest(initial_text, log, rec["lsn"])
