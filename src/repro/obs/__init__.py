"""Observability: causal tracing and critical-path analysis.

Everything here is wall-clock-only instrumentation over the simulator:
with ``SystemConfig.tracing`` off (the default) nothing in this package
runs and schedules stay byte-identical; with it on, spans are recorded
without adding messages, RNG draws or simulated delays, so the schedule
is still the same — only the lens changes.
"""

from .critical_path import (
    PHASES,
    chrome_trace,
    critical_path_report,
    diff_reports,
    render_diff,
    render_report,
    spans_from_chrome,
    tx_breakdown,
)
from .tracer import Span, Tracer, span_forest_errors, transaction_trees

__all__ = [
    "PHASES",
    "Span",
    "Tracer",
    "chrome_trace",
    "critical_path_report",
    "diff_reports",
    "render_diff",
    "render_report",
    "span_forest_errors",
    "spans_from_chrome",
    "transaction_trees",
    "tx_breakdown",
]
