"""Smoke tests for the figure experiments at miniature scale.

The real sweeps (and their shape assertions) run in ``benchmarks/``; these
tests only verify that every figure function executes end-to-end and
produces well-formed data, using a tiny database and few clients so the
whole module runs in seconds.
"""

import pytest

import repro.experiments.figures as figures
from repro.experiments import FigureParams, fig9, fig10, fig11a, fig11b, fig12


TINY = FigureParams(
    client_counts=(4,),
    update_ratios=(0.3,),
    db_scales=(1.0,),
    site_counts=(2,),
    fig9_clients_cap=4,
    tx_per_client=2,
    ops_per_tx=3,
)


@pytest.fixture(autouse=True)
def small_base(monkeypatch):
    monkeypatch.setattr(figures, "BASE_DB_BYTES", 25_000)


class TestFigureSmoke:
    def test_fig9_structure(self):
        fig = fig9(TINY)
        assert set(fig.series_names()) == {
            "xdgl/partial",
            "xdgl/total",
            "node2pl/partial",
            "node2pl/total",
        }
        assert fig.xs() == [4]
        for series in fig.series_names():
            assert fig.value(series, 4) is not None
            assert fig.value(series, 4) > 0

    def test_fig10_structure(self):
        fig = fig10(TINY)
        assert set(fig.series_names()) == {"xdgl", "node2pl"}
        assert fig.xs() == [30]
        assert fig.value("xdgl", 30, "committed") > 0

    def test_fig11a_structure(self):
        fig = fig11a(TINY)
        assert fig.xs() == [40]  # 1.0 x the 40 MB-scaled base
        assert fig.value("xdgl", 40) is not None

    def test_fig11b_structure(self):
        fig = fig11b(TINY)
        assert fig.xs() == [2]
        assert fig.value("node2pl", 2) is not None

    def test_fig12_structure(self):
        result = fig12(TINY, n_buckets=5)
        assert set(result.runs) == {"xdgl", "node2pl"}
        for proto in result.runs:
            assert result.completed(proto) >= 0
            assert len(result.throughput[proto]) >= 1
            assert len(result.concurrency[proto]) >= 1
        assert "Fig. 12" in result.render()

    def test_quick_figures_are_deterministic(self):
        a = fig9(TINY)
        b = fig9(TINY)
        for series in a.series_names():
            assert a.value(series, 4) == b.value(series, 4)


class TestShapeCheckGate:
    """``python -m repro figures`` exits with the number of failed checks."""

    @staticmethod
    def _run(monkeypatch, check):
        import io

        from repro import cli

        monkeypatch.setitem(cli._FIGURES, "fig8", (lambda: object(), check, None))
        out = io.StringIO()
        return cli._run_figures(["fig8"], full=False, out=out), out.getvalue()

    def test_a_failing_check_makes_the_command_fail(self, monkeypatch):
        def bent(result):
            raise AssertionError("XDGL above Node2PL")

        failures, text = self._run(monkeypatch, bent)
        assert failures == 1
        assert "SHAPE CHECK FAILED: XDGL above Node2PL" in text

    def test_holding_checks_exit_zero(self, monkeypatch):
        failures, text = self._run(monkeypatch, lambda result: ["holds"])
        assert failures == 0 and "holds" in text
