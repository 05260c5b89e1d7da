"""The paper's evaluation: experiment runner, per-figure sweeps, checks,
and one grid runner for the experiments beyond the figures."""

from .figures import (
    BASE_DB_BYTES,
    SCALE,
    Fig8Result,
    Fig12Result,
    FigureParams,
    fig8,
    fig9,
    fig10,
    fig11a,
    fig11b,
    fig12,
)
from .report import (
    check_fig9,
    check_fig10,
    check_fig11a,
    check_fig11b,
    check_fig12,
    check_granularity,
    granularity,
)
from .runner import ExperimentConfig, build_cluster, run_experiment
from .sweeps import SWEEPS, Sweep, run_sweep

__all__ = [
    "BASE_DB_BYTES",
    "ExperimentConfig",
    "Fig12Result",
    "Fig8Result",
    "FigureParams",
    "SCALE",
    "SWEEPS",
    "Sweep",
    "build_cluster",
    "check_fig10",
    "check_fig11a",
    "check_fig11b",
    "check_fig12",
    "check_fig9",
    "check_granularity",
    "fig10",
    "fig11a",
    "fig11b",
    "fig12",
    "fig8",
    "fig9",
    "granularity",
    "run_experiment",
    "run_sweep",
]
