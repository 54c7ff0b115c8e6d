"""Machine model: predicted strong-scaling from instrumented region traces.

This environment has one physical core, so the paper's 1–128-thread
curves (Figs. 6–9) cannot be measured directly. Instead, algorithms run
single-threaded (vectorized) under instrumentation and the model below
converts the measured trace into predicted T(p). It reads only the
region spans of a :class:`~repro.obs.trace.Tracer` (those opened by
:meth:`~repro.parallel.context.ExecutionContext.region`, see
:func:`~repro.parallel.context.region_spans`).

Model
-----
For a parallel region with measured single-thread seconds ``t``, barrier
rounds ``r``, and arithmetic-intensity class ``i``::

    T_region(p) = t * ((1 - beta_i) / p  +  beta_i / min(p, s))
                  + r * barrier * ceil(log2(p))

* ``beta_i`` is the memory-bandwidth-bound fraction of the region; that
  part stops scaling once ``p`` exceeds the bandwidth-saturation point
  ``s`` (on an EPYC-7763 node the streams saturate well before 128
  threads). Compute-bound regions (hash-map probing in *Baseline*) have
  small beta and keep scaling, which is why the paper's least-optimized
  variant shows the *largest* speedup (§4.3) — the model reproduces that
  inversion naturally.
* Barriers cost ``barrier * log2(p)`` each (tree barrier).
* Serial regions contribute their measured seconds unchanged.

All parameters live in :class:`MachineProfile`; the default profile is
shaped after the paper's Perlmutter CPU node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import InvalidParameterError
from repro.obs.trace import Span, Tracer
from repro.parallel.context import region_spans

#: Valid arithmetic-intensity classes of a region.
INTENSITIES = ("compute", "mixed", "memory")


@dataclass(frozen=True)
class MachineProfile:
    """Scaling parameters of the modeled shared-memory node."""

    name: str = "perlmutter-cpu"
    max_threads: int = 128
    #: barrier cost in seconds per log2(p) stage
    barrier_seconds: float = 2.0e-6
    #: bandwidth saturation point: threads beyond this do not help the
    #: memory-bound fraction of a region
    bandwidth_saturation: int = 24
    #: memory-bound fraction per intensity class
    bandwidth_fraction: dict[str, float] = field(
        default_factory=lambda: {"compute": 0.25, "mixed": 0.55, "memory": 0.72}
    )

    def __post_init__(self) -> None:
        if self.max_threads < 1:
            raise InvalidParameterError("max_threads must be >= 1")
        if self.bandwidth_saturation < 1:
            raise InvalidParameterError("bandwidth_saturation must be >= 1")
        for key in INTENSITIES:
            if key not in self.bandwidth_fraction:
                raise InvalidParameterError(f"bandwidth_fraction missing {key!r}")
            frac = self.bandwidth_fraction[key]
            if not 0.0 <= frac <= 1.0:
                raise InvalidParameterError("bandwidth fractions must be in [0, 1]")


#: Default thread counts matching the paper's x-axes.
PAPER_THREAD_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass
class ScalingCurve:
    """Predicted strong-scaling results for one instrumented run."""

    threads: list[int]
    seconds: list[float]

    @property
    def t1(self) -> float:
        return self.seconds[self.threads.index(1)] if 1 in self.threads else self.seconds[0]

    def speedups(self) -> list[float]:
        t1 = self.t1
        return [t1 / t for t in self.seconds]

    def efficiencies(self) -> list[float]:
        """Parallel efficiency ε = T_seq / (p · T(p)), in percent."""
        t1 = self.t1
        return [100.0 * t1 / (p * t) for p, t in zip(self.threads, self.seconds)]


class SimulatedMachine:
    """Converts instrumented traces into predicted scaling curves."""

    def __init__(self, profile: MachineProfile | None = None) -> None:
        self.profile = profile or MachineProfile()

    def predicted_time(self, tracer: Tracer, threads: int) -> float:
        """Predicted wall-clock seconds of the traced run on ``threads``."""
        return self._predict(_regions(tracer), threads)

    def _predict(self, regions: list[Span], threads: int) -> float:
        if threads < 1:
            raise InvalidParameterError("threads must be >= 1")
        prof = self.profile
        total = 0.0
        log_p = math.ceil(math.log2(threads)) if threads > 1 else 0
        for region in regions:
            attrs = region.attrs
            if not attrs["parallel"] or threads == 1:
                total += region.seconds
                continue
            beta = prof.bandwidth_fraction[attrs["intensity"]]
            scal = (1.0 - beta) / threads + beta / min(threads, prof.bandwidth_saturation)
            total += region.seconds * scal
            total += attrs["rounds"] * prof.barrier_seconds * log_p
        return total

    def scaling_curve(
        self,
        tracer: Tracer,
        threads: tuple[int, ...] = PAPER_THREAD_COUNTS,
    ) -> ScalingCurve:
        """Predicted T(p) across a thread sweep."""
        return self._curve(_regions(tracer), threads)

    def _curve(self, regions: list[Span], threads: tuple[int, ...]) -> ScalingCurve:
        counts = [t for t in threads if t <= self.profile.max_threads]
        return ScalingCurve(
            threads=counts,
            seconds=[self._predict(regions, t) for t in counts],
        )

    def kernel_curves(
        self,
        tracer: Tracer,
        threads: tuple[int, ...] = PAPER_THREAD_COUNTS,
    ) -> dict[str, ScalingCurve]:
        """Per-kernel scaling curves (regions grouped by name)."""
        groups: dict[str, list[Span]] = {}
        for region in _regions(tracer):
            groups.setdefault(region.name, []).append(region)
        return {name: self._curve(sub, threads) for name, sub in groups.items()}


def _regions(tracer: Tracer) -> list[Span]:
    """The region spans of ``tracer``, with their intensity and rounds checked."""
    regions = region_spans(tracer)
    for region in regions:
        intensity = region.attrs["intensity"]
        if intensity not in INTENSITIES:
            raise InvalidParameterError(
                f"region {region.name!r}: intensity must be one of "
                f"{INTENSITIES}, got {intensity!r}"
            )
        if region.attrs["rounds"] < 1:
            raise InvalidParameterError(f"region {region.name!r}: rounds must be >= 1")
    return regions
