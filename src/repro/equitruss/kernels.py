"""Kernel naming and per-kernel timing breakdowns.

The paper decomposes index construction into the kernels reported in
Figures 2, 4, and 8. We use the same names so benchmark output lines up
with the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import Tracer
from repro.parallel.context import region_spans

#: Kernel names in the paper's Figure 4 order.
SUPPORT = "Support"
TRUSS_DECOMP = "TrussDecomp"
INIT = "Init"
SP_NODE = "SpNode"
SP_EDGE = "SpEdge"
SM_GRAPH = "SmGraph"
SP_NODE_REMAP = "SpNodeRemap"

#: Index-construction kernels (Fig. 4); TrussDecomp is a pipeline
#: prerequisite reported separately (Fig. 2).
KERNELS = (SUPPORT, INIT, SP_NODE, SP_EDGE, SM_GRAPH, SP_NODE_REMAP)


@dataclass
class KernelBreakdown:
    """Seconds per kernel extracted from a run's region spans."""

    seconds: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_trace(cls, tracer: Tracer) -> "KernelBreakdown":
        """Seconds of the region spans summed per name, in the order regions closed."""
        seconds: dict[str, float] = {}
        for sp in region_spans(tracer):
            seconds[sp.name] = seconds.get(sp.name, 0.0) + sp.seconds
        return cls(seconds=seconds)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def percentage(self, kernel: str) -> float:
        total = self.total
        return 100.0 * self.seconds.get(kernel, 0.0) / total if total else 0.0

    def index_construction_seconds(self) -> float:
        """Combined SpNode + SpEdge + SmGraph time (the paper's Table 4
        "major computational phases")."""
        return sum(self.seconds.get(k, 0.0) for k in (SP_NODE, SP_EDGE, SM_GRAPH))

    def rows(self) -> list[tuple[str, float, float]]:
        """(kernel, seconds, percent) rows in first-seen order."""
        return [
            (name, secs, self.percentage(name))
            for name, secs in self.seconds.items()
        ]
