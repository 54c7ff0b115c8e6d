"""Metrics export surface: the Prometheus text renderer.

:func:`render_prometheus` renders a
:class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
exposition format (``# TYPE`` lines, cumulative ``_bucket{le=...}``
series for fixed-boundary histograms, ``quantile`` series for
summary-only ones), for pull-based scraping by the serving frontend's
``metrics`` op and for ``--prom-out``. The one-shot JSON snapshot is
``--metrics-out``.
"""

from __future__ import annotations

import re

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """Dotted ``repro.*`` metric name → Prometheus-legal name."""
    return _PROM_INVALID.sub("_", name)


def _fmt(v: float) -> str:
    return repr(float(v)) if isinstance(v, float) and not v.is_integer() else str(int(v))


def _render_histogram(pname: str, hist: Histogram, lines: list[str]) -> None:
    value = hist.as_value()
    if hist.boundaries is not None:
        lines.append(f"# TYPE {pname} histogram")
        cum = 0
        for le, c in zip(hist.boundaries, hist.bucket_counts):
            cum += c
            lines.append(f'{pname}_bucket{{le="{_fmt(le)}"}} {cum}')
        lines.append(f'{pname}_bucket{{le="+Inf"}} {hist.count}')
        # pre-estimated quantiles as companion gauges, so a scrape (or a
        # bare curl of the serving frontend's `metrics` op) reads p50/p99
        # without a PromQL histogram_quantile evaluation
        for q in (50, 95, 99):
            p = value.get(f"p{q}")
            if p is not None:
                lines.append(f"# TYPE {pname}_p{q} gauge")
                lines.append(f"{pname}_p{q} {_fmt(p)}")
    else:
        lines.append(f"# TYPE {pname} summary")
        for q in (50, 95, 99):
            p = value.get(f"p{q}")
            if p is not None:
                lines.append(f'{pname}{{quantile="{q / 100}"}} {_fmt(p)}')
    lines.append(f"{pname}_sum {_fmt(hist.total)}")
    lines.append(f"{pname}_count {hist.count}")


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """The registry's instruments in Prometheus text exposition format.

    Defaults to the active registry. Counter and gauge types are
    declared via ``# TYPE``; fixed-boundary histograms render as
    cumulative ``_bucket`` series, summary-only histograms as
    ``quantile`` series — either way with ``_sum`` and ``_count``.
    """
    registry = registry if registry is not None else get_registry()
    lines: list[str] = []
    for inst in registry.instruments():
        pname = prometheus_name(inst.name)
        if isinstance(inst, Counter):
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {_fmt(inst.value)}")
        elif isinstance(inst, Gauge):
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_fmt(inst.value)}")
        else:
            _render_histogram(pname, inst, lines)
    return "\n".join(lines) + "\n" if lines else ""
