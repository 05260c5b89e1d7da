"""Tests for the experiment runner, metrics and small-scale figure checks."""

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.experiments import (
    ExperimentConfig,
    FigureParams,
    build_cluster,
    fig8,
    run_experiment,
)
from repro.workload import FigureData, WorkloadSpec, point_from_run, render_comparison

FAST_SYS = SystemConfig().with_(client_think_ms=0.5)


def small_cfg(**kw):
    defaults = dict(
        protocol="xdgl",
        n_sites=2,
        replication="partial",
        db_bytes=20_000,
        workload=WorkloadSpec(n_clients=4, tx_per_client=2, ops_per_tx=3),
        system=FAST_SYS,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunner:
    def test_build_cluster_partial(self):
        cluster, tester = build_cluster(small_cfg())
        assert len(cluster.sites) == 2
        assert cluster.site("s1").documents_hosted() == ["xmark#0"]
        assert cluster.site("s2").documents_hosted() == ["xmark#1"]
        assert len(cluster.clients) == 4

    def test_build_cluster_total(self):
        cluster, _ = build_cluster(small_cfg(replication="total"))
        for sid in ("s1", "s2"):
            assert cluster.site(sid).documents_hosted() == ["xmark"]
        assert cluster.catalog.replication_degree("xmark") == 2

    def test_run_experiment_completes_all_transactions(self):
        res = run_experiment(small_cfg())
        assert len(res.records) == 4 * 2
        assert len(res.committed) >= 1
        assert res.duration_ms > 0

    def test_runs_are_deterministic(self):
        r1 = run_experiment(small_cfg())
        r2 = run_experiment(small_cfg())
        assert r1.duration_ms == r2.duration_ms
        assert [x.status for x in r1.records] == [x.status for x in r2.records]
        assert r1.network_messages == r2.network_messages

    def test_protocols_see_identical_workload(self):
        _, t1 = build_cluster(small_cfg(protocol="xdgl"))
        _, t2 = build_cluster(small_cfg(protocol="node2pl"))
        a = [str(op) for tx in t1.transactions_for_client(0) for op in tx.operations]
        b = [str(op) for tx in t2.transactions_for_client(0) for op in tx.operations]
        assert a == b

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(replication="sharded").validate()
        with pytest.raises(ConfigError):
            small_cfg(n_sites=0).validate()

    def test_update_workload_keeps_replicas_consistent(self):
        from repro.xml import serialize_document

        cfg = small_cfg(
            replication="total",
            workload=WorkloadSpec(
                n_clients=3, tx_per_client=2, ops_per_tx=3, update_tx_ratio=0.8
            ),
        )
        cluster, _ = build_cluster(cfg)
        cluster.run()
        assert serialize_document(cluster.document_at("s1", "xmark")) == (
            serialize_document(cluster.document_at("s2", "xmark"))
        )


class TestFigureData:
    def make_fig(self):
        fig = FigureData("figX", "demo", "clients")
        run = run_experiment(small_cfg())
        fig.add(point_from_run("xdgl", 4, run))
        fig.add(point_from_run("xdgl", 8, run))
        fig.add(point_from_run("node2pl", 4, run))
        return fig

    def test_series_and_xs(self):
        fig = self.make_fig()
        assert fig.series_names() == ["xdgl", "node2pl"]
        assert fig.xs() == [4, 8]

    def test_value_lookup(self):
        fig = self.make_fig()
        assert fig.value("xdgl", 4) is not None
        assert fig.value("node2pl", 8) is None

    def test_render_contains_all_series(self):
        out = self.make_fig().render()
        assert "xdgl" in out and "node2pl" in out
        assert "figX" in out

    def test_render_comparison(self):
        run = run_experiment(small_cfg())
        out = render_comparison("cmp", {"a": run, "b": run})
        assert "mean response (ms)" in out
        assert "committed" in out


class TestFig8:
    def test_fig8_rows_cover_sites(self):
        result = fig8(db_bytes=30_000)
        site_counts = {n for n, _, _ in result.rows}
        assert site_counts == {2, 4, 8}

    def test_fig8_balance(self):
        result = fig8(db_bytes=30_000)
        for n, ratio in result.balance_ratios.items():
            assert ratio < 1.6, f"{n}-site fragmentation unbalanced: {ratio}"

    def test_fig8_render(self):
        out = fig8(db_bytes=30_000).render()
        assert "Fig. 8" in out
        assert "xmark#0" in out


class TestFigureParams:
    def test_quick_vs_paper(self):
        q, p = FigureParams.quick(), FigureParams.paper()
        assert len(p.client_counts) > len(q.client_counts)
        assert len(p.site_counts) > len(q.site_counts)
