"""Label-propagation connected components.

The diameter-bound alternative the paper mentions (§3.1): each round
every vertex adopts the minimum label in its closed neighborhood.
Work-efficient per round but needs O(diameter) rounds — included for the
comparative CC benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.parallel.context import ExecutionContext


def label_propagation(
    graph: CSRGraph,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """Component label per vertex (minimum vertex id in its component)."""
    ctx = ExecutionContext.ensure(ctx)
    n = graph.num_vertices
    comp = np.arange(n, dtype=np.int64)
    u, v = graph.edges.u, graph.edges.v
    with ctx.region("LabelProp", work=0, rounds=0, intensity="memory"):
        while True:
            ctx.add_round(2 * u.size)
            new = comp.copy()
            np.minimum.at(new, u, comp[v])
            np.minimum.at(new, v, comp[u])
            if np.array_equal(new, comp):
                break
            comp = new
    return comp
