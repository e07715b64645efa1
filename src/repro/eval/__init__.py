"""Evaluation harness: datasets, experiment drivers, reporting.

One driver per table/figure of the paper's evaluation (Section 11);
see README.md's "Tests and benchmarks".  The ``benchmarks/``
directory wraps these drivers in pytest-benchmark targets and prints
the same rows/series the paper reports.
"""

from repro.eval.datasets import (
    GraphDataset,
    brca1_like_graph,
    human_like_graph,
    immune_region_graph,
)
from repro.eval.metrics import MappingAccuracy, evaluate_linear_mappings
from repro.eval.report import format_table

__all__ = [
    "GraphDataset",
    "human_like_graph",
    "brca1_like_graph",
    "immune_region_graph",
    "MappingAccuracy",
    "evaluate_linear_mappings",
    "format_table",
]
