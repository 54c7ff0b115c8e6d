"""Benchmark harness: workloads, tables, ASCII figures, paper references.

Every table and figure of the paper's evaluation section has a bench
target under ``benchmarks/`` built from these pieces; results are
printed side-by-side with the paper's published numbers and written to
``benchmarks/results/``.
"""

from repro.bench.tables import TextTable
from repro.bench.ascii import bar_chart, line_chart
from repro.bench.workloads import Workload, get_workload, run_variant
from repro.bench.report import ResultWriter

__all__ = [
    "ResultWriter",
    "TextTable",
    "Workload",
    "bar_chart",
    "get_workload",
    "line_chart",
    "run_variant",
]
