"""Metrics registry: counters, gauges, and histograms.

Metric names are stable, dotted, and namespaced under ``repro.*``
(``repro.triangles.enumerated``, ``repro.truss.peel_rounds``, ...); the
full catalogue lives in the Observability section of
``docs/architecture.md``. Algorithms report through the module-level
helpers (:func:`inc`, :func:`set_gauge`, :func:`observe`) which target
the *active* registry — the process-wide default, unless a test or a
driver installs its own with :func:`use_registry`.

All mutation goes through a per-registry lock so the serving
frontend's threads can report concurrently.

Histograms come in two flavors: summary-only (count/sum/min/max/mean
plus p50/p95/p99 from the retained sample prefix) and **fixed-boundary**
(``registry.histogram(name, boundaries=...)``), which additionally
maintains Prometheus-style bucket counts so percentiles stay available
after raw samples are dropped and snapshots merge exactly across
processes (see :mod:`repro.obs.worker`).
"""

from __future__ import annotations

import re
import threading
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import InvalidParameterError
from repro.obs.histogram import (
    SUMMARY_QUANTILES,
    bucket_index,
    bucket_percentile,
    check_boundaries,
    percentile,
)

#: Schema version stamped into exported metric files. v2 added the
#: p50/p95/p99 summary quantiles and optional bucket export to
#: histogram values.
METRICS_SCHEMA_VERSION = 2

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise InvalidParameterError(
            f"metric name must be dotted lower_snake (e.g. 'repro.truss.kmax'), "
            f"got {name!r}"
        )
    return name


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise InvalidParameterError(f"counter {self.name} increment < 0: {n}")
        self.value += n

    def as_value(self):
        return self.value


@dataclass
class Gauge:
    """Last-written (or maximum) instantaneous value."""

    name: str
    value: float = 0

    def set(self, v: float) -> None:
        self.value = v

    def set_max(self, v: float) -> None:
        """Keep the running maximum (peak frontier size, high-water marks)."""
        self.value = max(self.value, v)

    def as_value(self):
        return self.value


@dataclass
class Histogram:
    """Streaming distribution summary with optional fixed buckets.

    Keeps the first ``keep`` raw observations for tests and reports;
    beyond that only the running summary (and, when ``boundaries`` are
    configured, the bucket counts) is updated. Percentiles are exact
    (NumPy ``linear`` method) while every observation is retained, then
    estimated by bucket interpolation — or, with no buckets, from the
    retained prefix — once observations have been dropped.
    """

    name: str
    keep: int = 1024
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    samples: list = field(default_factory=list)
    boundaries: tuple[float, ...] | None = None
    bucket_counts: list[int] = field(default_factory=list)

    def with_boundaries(self, boundaries: Sequence[float]) -> "Histogram":
        """Configure fixed bucket upper bounds (first call wins).

        Re-configuring with the *same* boundaries is a no-op; different
        boundaries raise. Configuring after observations were dropped
        (``count > len(samples)``) raises too — the bucket counts could
        not be backfilled honestly.
        """
        bounds = check_boundaries(boundaries)
        if self.boundaries is not None:
            if self.boundaries != bounds:
                raise InvalidParameterError(
                    f"histogram {self.name!r} already has boundaries "
                    f"{self.boundaries}, cannot change to {bounds}"
                )
            return self
        if self.count > len(self.samples):
            raise InvalidParameterError(
                f"histogram {self.name!r} dropped raw observations; bucket "
                f"boundaries must be configured before the first observe()"
            )
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        for v in self.samples:
            self.bucket_counts[bucket_index(bounds, v)] += 1
        return self

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        self.min = min(self.min, v)
        self.max = max(self.max, v)
        if len(self.samples) < self.keep:
            self.samples.append(v)
        if self.boundaries is not None:
            self.bucket_counts[bucket_index(self.boundaries, v)] += 1

    def percentile(self, q: float) -> float | None:
        """The ``q``-th percentile, or ``None`` when empty."""
        if self.count == 0:
            return None
        if self.count <= len(self.samples) or self.boundaries is None:
            return percentile(sorted(self.samples), q)
        return bucket_percentile(
            self.boundaries, self.bucket_counts, q, self.min, self.max
        )

    def merge(self, state: dict) -> None:
        """Fold a serialized histogram state (``dump_state`` shape) in.

        Counts, sums, and bucket counts add exactly; min/max combine;
        the other state's retained samples extend this one's up to
        ``keep``. Mismatched boundaries raise.
        """
        other_count = int(state.get("count", 0))
        if other_count == 0:
            return
        other_bounds = state.get("boundaries")
        if other_bounds is not None:
            self.with_boundaries(other_bounds)
        elif self.boundaries is not None:
            raise InvalidParameterError(
                f"histogram {self.name!r} has boundaries but the merged "
                f"state does not"
            )
        self.count += other_count
        self.total += float(state.get("sum", 0.0))
        self.min = min(self.min, float(state["min"]))
        self.max = max(self.max, float(state["max"]))
        for v in state.get("samples", ()):
            if len(self.samples) >= self.keep:
                break
            self.samples.append(v)
        if self.boundaries is not None:
            for i, c in enumerate(state.get("bucket_counts", ())):
                self.bucket_counts[i] += int(c)

    def as_value(self) -> dict:
        if self.count == 0:
            out: dict = {"count": 0, "sum": 0, "min": None, "max": None, "mean": None}
            out.update({f"p{q}": None for q in SUMMARY_QUANTILES})
        else:
            out = {
                "count": self.count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.total / self.count,
            }
            out.update({f"p{q}": self.percentile(q) for q in SUMMARY_QUANTILES})
        if self.boundaries is not None:
            out["buckets"] = {
                "le": list(self.boundaries),
                "counts": list(self.bucket_counts),
            }
        return out

    def dump_state(self) -> dict:
        """Full picklable/JSON-able state for cross-process merging."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "samples": list(self.samples),
            "boundaries": list(self.boundaries) if self.boundaries else None,
            "bucket_counts": list(self.bucket_counts) if self.boundaries else None,
        }


class MetricsRegistry:
    """Name → instrument table with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        _check_name(name)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is None:
                existing = self._metrics[name] = cls(name=name)
            elif not isinstance(existing, cls):
                raise InvalidParameterError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, boundaries: Sequence[float] | None = None
    ) -> Histogram:
        hist = self._get(name, Histogram)
        if boundaries is not None:
            hist.with_boundaries(boundaries)
        return hist

    def names(self) -> list[str]:
        with self._lock:
            return list(self._metrics)

    def instruments(self) -> list[Counter | Gauge | Histogram]:
        """Snapshot of the registered instruments (for exporters)."""
        with self._lock:
            return list(self._metrics.values())

    def as_dict(self) -> dict:
        """Flat JSON-able snapshot: name → value (or histogram summary)."""
        with self._lock:
            return {name: m.as_value() for name, m in self._metrics.items()}

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    # Cross-process state transfer (the worker telemetry envelope)
    # ------------------------------------------------------------------
    def dump_state(self) -> dict:
        """Typed, picklable snapshot: the worker side of the envelope."""
        with self._lock:
            items = list(self._metrics.items())
        state: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, inst in items:
            if isinstance(inst, Counter):
                state["counters"][name] = inst.value
            elif isinstance(inst, Gauge):
                state["gauges"][name] = inst.value
            else:
                state["histograms"][name] = inst.dump_state()
        return state

    def merge_state(self, state: dict) -> None:
        """Fold a :meth:`dump_state` snapshot into this registry.

        Counters add (so per-worker totals reduce exactly to the serial
        totals), gauges combine by maximum (they report peaks), and
        histograms merge count/sum/bucket-exactly.
        """
        for name, v in (state.get("counters") or {}).items():
            self.counter(name).inc(v)
        for name, v in (state.get("gauges") or {}).items():
            self.gauge(name).set_max(v)
        for name, h in (state.get("histograms") or {}).items():
            self.histogram(name).merge(h)


# ----------------------------------------------------------------------
# Active registry + reporting helpers
# ----------------------------------------------------------------------

_DEFAULT = MetricsRegistry()
_ACTIVE: MetricsRegistry = _DEFAULT


def get_registry() -> MetricsRegistry:
    """The registry reporting helpers currently target."""
    return _ACTIVE


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route :func:`inc`/:func:`set_gauge`/:func:`observe` to ``registry``."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = prev


def reset_metrics() -> None:
    """Clear the active registry (start of a CLI run / test)."""
    _ACTIVE.reset()


def inc(name: str, n: float = 1) -> None:
    _ACTIVE.counter(name).inc(n)


def set_gauge(name: str, v: float) -> None:
    _ACTIVE.gauge(name).set(v)


def set_gauge_max(name: str, v: float) -> None:
    _ACTIVE.gauge(name).set_max(v)


def observe(name: str, v: float, boundaries: Sequence[float] | None = None) -> None:
    _ACTIVE.histogram(name, boundaries=boundaries).observe(v)
