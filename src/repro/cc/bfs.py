"""BFS-based connected components.

Level-synchronous frontier expansion per component. Parallelism shrinks
as component counts grow (the limitation the paper cites for BFS-based
CC [6, 40]); included as the third comparator.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.parallel.context import ExecutionContext


def bfs_components(
    graph: CSRGraph,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """Component label per vertex (minimum vertex id in its component)."""
    ctx = ExecutionContext.ensure(ctx)
    n = graph.num_vertices
    comp = np.full(n, -1, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    with ctx.region("BFS-CC", work=0, rounds=0, intensity="memory"):
        for seed in range(n):
            if comp[seed] != -1:
                continue
            comp[seed] = seed
            frontier = np.array([seed], dtype=np.int64)
            while frontier.size:
                ctx.add_round(int(frontier.size))
                counts = indptr[frontier + 1] - indptr[frontier]
                total = int(counts.sum())
                if total == 0:
                    break
                cum = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
                local = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], counts)
                nbrs = indices[np.repeat(indptr[frontier], counts) + local]
                nbrs = np.unique(nbrs)
                fresh = nbrs[comp[nbrs] == -1]
                comp[fresh] = seed
                frontier = fresh
    return comp
