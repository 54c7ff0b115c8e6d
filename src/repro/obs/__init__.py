"""Unified observability layer: spans, metrics, exporters, reports.

* :mod:`repro.obs.trace` — hierarchical span tracer, the one record of
  a run (``ExecutionContext.region`` opens its spans);
* :mod:`repro.obs.metrics` — process-wide counters / gauges / histograms
  under the stable ``repro.*`` namespace;
* :mod:`repro.obs.export` — JSONL trace + JSON metrics files;
* :mod:`repro.obs.report` — ASCII breakdown table and flamegraph;
* :mod:`repro.obs.logging` — structured ``key=value`` logging setup.

Only the light ``trace``/``metrics`` symbols are re-exported here — the
exporters and reports import the bench layer and are pulled in by path
(``from repro.obs.export import ...``) to keep the core import-cycle
free (``parallel.context`` imports this package at interpreter
startup).
"""

from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    inc,
    observe,
    reset_metrics,
    set_gauge,
    set_gauge_max,
    use_registry,
)
from repro.obs.trace import Span, Tracer, current_tracer, use_tracer

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "current_tracer",
    "get_registry",
    "inc",
    "observe",
    "reset_metrics",
    "set_gauge",
    "set_gauge_max",
    "use_registry",
    "use_tracer",
]
