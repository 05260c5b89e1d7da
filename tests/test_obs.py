"""Observability stack: tracer, span-forest checks, site-stats aggregation,
critical-path analyzer, Chrome-trace export, and the ``trace`` CLI."""

import io
import json

import pytest

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.core.site import SNAPSHOT_STAT_FIELDS, SiteStats, aggregate_site_stats
from repro.obs import (
    Span,
    Tracer,
    chrome_trace,
    critical_path_report,
    diff_reports,
    render_diff,
    render_report,
    span_forest_errors,
    spans_from_chrome,
    transaction_trees,
    tx_breakdown,
)
from repro.obs.cli import run_traced_workload, trace_main
from repro.update import InsertOp
from repro.workload import DTXTester, WorkloadSpec
from repro.obs.critical_path import PHASES
from repro.xml.builder import E, doc

from .conftest import make_people_doc, replicated_cluster


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_begin_end_and_labels(self):
        tr = Tracer()
        sid = tr.begin("tx", "tx", "s1", 0, 1.0, {"site": "s1"})
        assert sid == 1
        tr.set_label(sid, "status", "committed")
        tr.end(sid, 3.5)
        span = tr.get(sid)
        assert span.start == 1.0 and span.end == 3.5
        assert span.duration == 2.5
        assert span.label("status") == "committed"
        assert span.label("missing") is None

    def test_end_is_idempotent_first_close_wins(self):
        tr = Tracer()
        sid = tr.begin("op", "op", "s1", 0, 0.0)
        tr.end(sid, 2.0)
        tr.end(sid, 9.0)  # a crash-unwound finally closing late
        assert tr.get(sid).end == 2.0

    def test_end_and_set_label_ignore_zero_sid(self):
        tr = Tracer()
        tr.end(0, 1.0)
        tr.set_label(0, "k", "v")
        assert tr.spans == []

    def test_add_records_complete_span(self):
        tr = Tracer()
        sid = tr.add("send", "net", "s1", 0, 1.0, 1.4, {"dst": "s2"})
        assert tr.get(sid).end == 1.4

    def test_finish_clips_open_spans(self):
        tr = Tracer()
        a = tr.begin("tx", "tx", "s1", 0, 0.0)
        b = tr.add("send", "net", "s1", a, 0.0, 1.0)
        tr.finish(5.0)
        assert tr.get(a).end == 5.0
        assert tr.get(b).end == 1.0  # already closed spans untouched

    def test_flight_clipped_when_root_closes_first(self):
        tr = Tracer()
        root = tr.begin("tx", "tx", "s1", 0, 0.0)
        op = tr.begin("op", "op", "s1", root, 0.0)
        flight = tr.add_flight("send", "net", "s1", op, 1.0, 9.0)
        tr.end(op, 2.0)
        tr.end(root, 3.0)
        # Future-ended flight is clipped to the root end, preserving the
        # committed-root-outlives-descendants invariant by construction.
        assert tr.get(flight).end == 3.0

    def test_flight_under_global_parent_is_not_registered(self):
        tr = Tracer()
        batch = tr.begin("batch_round", "sync", "s1", 0, 0.0)
        flight = tr.add_flight("send", "net", "s1", batch, 0.0, 7.0)
        tr.end(batch, 1.0)  # not a tx root: no clipping
        assert tr.get(flight).end == 7.0

    def test_live_parent_demotes_closed_spans(self):
        tr = Tracer()
        op = tr.begin("op", "op", "s1", 0, 0.0)
        assert tr.live_parent(op) == op
        tr.end(op, 1.0)
        assert tr.live_parent(op) == 0  # stale work becomes a global span
        assert tr.live_parent(0) == 0


class TestSpanForestErrors:
    def _root(self, sid, start, end, status="committed"):
        return Span(sid, 0, "tx", "tx", "s1", start, end, {"status": status})

    def test_well_formed_forest_is_clean(self):
        spans = [
            self._root(1, 0.0, 5.0),
            Span(2, 1, "op", "op", "s1", 0.0, 4.0, None),
            Span(3, 2, "exec", "exec", "s2", 1.0, 2.0, None),
            Span(4, 0, "detector_sweep", "deadlock", "s1", 0.0, 9.0, None),
        ]
        assert span_forest_errors(spans) == []

    def test_dangling_parent_detected(self):
        spans = [Span(1, 99, "op", "op", "s1", 0.0, 1.0, None)]
        assert any("dangling parent" in e for e in span_forest_errors(spans))

    def test_parent_cycle_detected(self):
        spans = [
            Span(1, 2, "a", "op", "s1", 0.0, 1.0, None),
            Span(2, 1, "b", "op", "s1", 0.0, 1.0, None),
        ]
        assert any("cycle" in e for e in span_forest_errors(spans))

    def test_end_before_start_detected(self):
        spans = [Span(1, 0, "op", "op", "s1", 2.0, 1.0, None)]
        assert any("before it starts" in e for e in span_forest_errors(spans))

    def test_committed_root_with_late_descendant_flagged(self):
        spans = [
            self._root(1, 0.0, 3.0),
            Span(2, 1, "send", "net", "s1", 2.0, 4.0, None),
        ]
        assert any("after the" in e for e in span_forest_errors(spans))

    def test_aborted_root_with_late_descendant_allowed(self):
        spans = [
            self._root(1, 0.0, 3.0, status="aborted"),
            Span(2, 1, "send", "net", "s1", 2.0, 4.0, None),
        ]
        assert span_forest_errors(spans) == []

    def test_accepts_exported_dicts(self):
        spans = [self._root(1, 0.0, 3.0).to_dict()]
        assert span_forest_errors(spans) == []

    def test_transaction_trees_exclude_global_spans(self):
        spans = [
            self._root(1, 0.0, 5.0),
            Span(2, 1, "op", "op", "s1", 0.0, 4.0, None),
            Span(3, 0, "election", "election", "s1", 0.0, 1.0, None),
        ]
        trees = transaction_trees(spans)
        assert set(trees) == {1}
        assert sorted(s.sid for s in trees[1]) == [1, 2]


# ---------------------------------------------------------------------------
# site-stats aggregation
# ---------------------------------------------------------------------------


class TestAggregateSiteStats:
    def test_sum_and_snapshot_max(self):
        a = SiteStats(commits=2, parse_cache_hits=10, peak_lock_count=5)
        b = SiteStats(commits=3, parse_cache_hits=7, peak_lock_count=9)
        totals = aggregate_site_stats([a, b])
        assert totals["commits"] == 5  # counters sum
        assert totals["parse_cache_hits"] == 10  # global-counter snapshots take the max
        assert totals["peak_lock_count"] == 9
        assert SNAPSHOT_STAT_FIELDS <= set(totals)

    def test_empty_input(self):
        totals = aggregate_site_stats([])
        assert totals["commits"] == 0
        assert totals["parse_cache_hits"] == 0


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------


def _tree():
    root = Span(1, 0, "tx", "tx", "s1", 0.0, 10.0, {"status": "committed", "tx": "7"})
    members = [
        root,
        Span(2, 1, "op", "op", "s1", 0.0, 8.0, None),
        Span(3, 2, "lock_wait", "lock_wait", "s1", 1.0, 4.0, None),
        Span(4, 2, "send", "net", "s1", 5.0, 6.0, None),
        Span(5, 1, "commit", "2pc", "s1", 8.0, 10.0, None),
    ]
    return members, root


class TestCriticalPath:
    def test_breakdown_shares_sum_to_one(self):
        members, root = _tree()
        b = tx_breakdown(members, root)
        assert b["tid"] == "7"
        assert sum(b["shares"].values()) == pytest.approx(1.0)
        assert b["phases_ms"]["lock_wait"] == pytest.approx(3.0)
        assert b["phases_ms"]["network"] == pytest.approx(1.0)
        assert b["phases_ms"]["2pc"] == pytest.approx(2.0)
        # op covers [0,8] minus its children; tx covers the rest
        assert b["phases_ms"]["coord"] == pytest.approx(4.0)
        assert b["phases_ms"]["other"] == pytest.approx(0.0)

    def test_zero_duration_root(self):
        root = Span(1, 0, "tx", "tx", "s1", 2.0, 2.0, {"status": "committed"})
        b = tx_breakdown([root], root)
        assert b["duration_ms"] == 0.0
        assert all(v == 0.0 for v in b["shares"].values())

    def test_report_and_render(self):
        members, _ = _tree()
        report = critical_path_report(members)
        assert report["transactions"] == 1 and report["committed"] == 1
        assert sum(report["phase_share"].values()) == pytest.approx(1.0)
        assert len(report["per_tx"]) == 1
        lines = render_report(report)
        assert any("transactions: 1" in line for line in lines)

    def test_per_tx_limit_zero(self):
        members, _ = _tree()
        report = critical_path_report(members, per_tx_limit=0)
        assert report["per_tx"] == []
        assert report["committed"] == 1

    def test_diff_reports(self):
        members, _ = _tree()
        a = critical_path_report(members)
        b = json.loads(json.dumps(a))  # round-trip like a loaded file
        b["phase_share"]["lock_wait"] -= 0.1
        b["phase_share"]["coord"] += 0.1
        diff = diff_reports(a, b)
        assert set(diff["phases"]) == set(PHASES)
        assert diff["phases"]["lock_wait"]["delta"] == pytest.approx(-0.1)
        lines = render_diff(diff, label_a="x", label_b="y")
        assert "x -> y" in lines[0]


class TestChromeTrace:
    def test_export_shape_and_roundtrip(self):
        members, _ = _tree()
        report = critical_path_report(members)
        data = chrome_trace(members, meta={"seed": 1}, report=report)
        assert data["displayTimeUnit"] == "ms"
        assert data["meta"] == {"seed": 1}
        assert data["criticalPath"] == report
        xs = [e for e in data["traceEvents"] if e["ph"] == "X"]
        ms = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert len(xs) == len(members) and len(ms) == 1
        root_ev = next(e for e in xs if e["args"]["sid"] == 1)
        assert root_ev["ts"] == 0.0 and root_ev["dur"] == 10_000.0  # ms -> µs
        assert json.dumps(data)
        back = spans_from_chrome(json.loads(json.dumps(data)))
        assert [s.sid for s in back] == [s.sid for s in members]
        assert span_forest_errors(back) == []


# ---------------------------------------------------------------------------
# end-to-end: tracing a real cluster run
# ---------------------------------------------------------------------------


def _run(tracing):
    cluster = DTXCluster(
        protocol="xdgl",
        config=SystemConfig().with_(client_think_ms=0.0, tracing=tracing),
    )
    for s in ("s1", "s2"):
        cluster.add_site(s)
    d1 = make_people_doc()
    cluster.host_document("s1", d1)
    spec = WorkloadSpec(
        n_clients=4, tx_per_client=3, ops_per_tx=3, update_tx_ratio=0.5, seed=11
    )
    tester = DTXTester(spec, [d1])
    for c, site in tester.assign_clients_to_sites(["s1", "s2"]).items():
        cluster.add_client(f"c{c}", site, tester.transactions_for_client(c))
    return cluster.run()


def _digest(result):
    keyed = sorted(
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
    return (keyed, result.network_messages, result.network_bytes, result.duration_ms)


class TestTracedRun:
    def test_tracing_off_records_no_spans(self):
        result = _run(tracing=False)
        assert result.spans == []

    def test_tracing_is_schedule_transparent(self):
        off = _run(tracing=False)
        on = _run(tracing=True)
        assert _digest(off) == _digest(on)
        assert on.spans
        assert span_forest_errors(on.spans) == []

    def test_committed_shares_sum_to_one(self):
        result = _run(tracing=True)
        report = critical_path_report(result.spans)
        assert report["committed"] >= 1
        for b in report["per_tx"]:
            assert sum(b["shares"].values()) == pytest.approx(1.0)


def _batch_round_parents(window_ms):
    """Traced eager run, four non-conflicting writers coordinated off the
    primary: (entries label, parent span name or None) per batch round."""
    cfg = SystemConfig().with_(
        client_think_ms=0.0, tracing=True, group_commit_window_ms=window_ms,
        replica_write_policy="primary", replica_read_policy="nearest",
    )
    hot = doc("hot", E("hot", *[E(f"c{i}") for i in range(4)]))
    cluster = replicated_cluster(cfg, 3, document=hot)
    for i in range(4):
        tx = Transaction([Operation.update("hot", InsertOp("<e/>", f"/hot/c{i}"))])
        cluster.add_client(f"cl{i}", "s2", [tx])
    result = cluster.run()
    assert len(result.committed) == 4
    assert span_forest_errors(result.spans) == []
    by_sid = {sp.sid: sp for sp in result.spans}
    rounds = [sp for sp in result.spans if sp.name == "batch_round"]
    flights = [sp for sp in result.spans if sp.name == "send" and sp.parent in by_sid
               and by_sid[sp.parent].name == "batch_round"]
    assert len(flights) >= len(rounds)  # the sends nest under their round
    return [
        (sp.labels["entries"], by_sid[sp.parent].name if sp.parent else None)
        for sp in rounds
    ]


class TestSyncRoundAttribution:
    def test_a_batch_of_one_belongs_to_its_transaction(self):
        # Window 0, staggered commits: every round carries one entry and
        # nests (with its flights) under that transaction's replica_sync.
        rounds = _batch_round_parents(0.0)
        assert rounds and all(r == ("1", "replica_sync") for r in rounds)

    def test_a_shared_round_stays_global(self):
        rounds = _batch_round_parents(5.0)
        shared = [parent for entries, parent in rounds if entries != "1"]
        assert shared and all(parent is None for parent in shared)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestTraceCLI:
    def test_run_traced_workload_forces_tracing(self):
        result, spans = run_traced_workload(sites=2, clients=2, tx_per_client=2)
        assert spans and spans is result.spans
        assert span_forest_errors(spans) == []

    def test_trace_main_smoke_and_diff(self, tmp_path):
        out_a = tmp_path / "a.json"
        buf = io.StringIO()
        rc = trace_main(
            ["--sites", "2", "--clients", "2", "--tx-per-client", "2",
             "--out", str(out_a)],
            out=buf,
        )
        assert rc == 0
        data = json.loads(out_a.read_text())
        assert {"traceEvents", "spans", "criticalPath", "meta"} <= set(data)
        assert span_forest_errors(spans_from_chrome(data)) == []
        captured = buf.getvalue()
        assert "traced" in captured and "critical path" in captured

        buf = io.StringIO()
        rc = trace_main(["--diff", str(out_a), str(out_a)], out=buf)
        assert rc == 0
        assert "critical-path diff" in buf.getvalue()

    def test_trace_main_diff_rejects_plain_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        buf = io.StringIO()
        rc = trace_main(["--diff", str(bad), str(bad)], out=buf)
        assert rc == 1
        assert "no criticalPath" in buf.getvalue()

    def test_module_cli_dispatch(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "t.json"
        rc = main(["trace", "--sites", "2", "--clients", "2",
                   "--tx-per-client", "1", "--out", str(out)], out=io.StringIO())
        assert rc == 0
        assert out.exists()
