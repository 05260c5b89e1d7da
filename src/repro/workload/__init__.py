"""Workloads: XMark generator, query/update templates, DTXTester, metrics."""

from .generator import DTXTester, WorkloadSpec
from .metrics import ExperimentPoint, FigureData, point_from_run, render_comparison
from .queries import QUERY_TEMPLATES, UPDATE_TEMPLATES
from .xmark import REGIONS, XMarkStats, deal_xmark, generate_xmark, xmark_fragments, xmark_tree

__all__ = [
    "DTXTester",
    "ExperimentPoint",
    "FigureData",
    "QUERY_TEMPLATES",
    "REGIONS",
    "UPDATE_TEMPLATES",
    "WorkloadSpec",
    "XMarkStats",
    "deal_xmark",
    "generate_xmark",
    "point_from_run",
    "render_comparison",
    "xmark_fragments",
    "xmark_tree",
]
