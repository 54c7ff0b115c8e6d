"""Per-edge support (Definition 2) — the input to truss decomposition.

This is the paper's ``Support`` kernel (Figs. 2 and 4). The counts are
three ``bincount``s over the triangle columns, taken on the coordinator
on every backend: under the process backend the region's parallel work
is the triangle enumeration it wraps.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.obs import metrics
from repro.parallel.context import ExecutionContext
from repro.triangles.enumerate import TriangleSet, enumerate_triangles


def compute_support(
    graph: CSRGraph,
    triangles: TriangleSet | None = None,
    ctx: ExecutionContext | None = None,
    *,
    dtype=None,
) -> np.ndarray:
    """Support (triangle count) of every edge, indexed by edge id.

    Reuses a precomputed :class:`TriangleSet` when given; otherwise
    enumerates. The enumeration cost is recorded as the ``Support``
    region of the context's trace. ``dtype`` overrides the accumulator
    dtype; by default the context's :class:`DtypePolicy` picks it (int32
    under ``auto`` whenever it fits — half the resident bytes), always
    with identical counts.
    """
    ctx = ExecutionContext.ensure(ctx)
    if dtype is None:
        dtype = ctx.index_dtype(graph.num_vertices, graph.num_edges)
    with ctx.region(
        "Support", work=graph.num_edges, intensity="mixed"
    ) as sp:
        if triangles is None:
            triangles = enumerate_triangles(graph, ctx=ctx)
        sp.set(work=max(triangles.count, graph.num_edges))
        metrics.inc("repro.triangles.support_updates", 3 * triangles.count)
        support = triangles.support(dtype=dtype)
        if support.size:
            metrics.set_gauge_max("repro.triangles.support_max", int(support.max()))
        return support


def support_histogram(support: np.ndarray) -> np.ndarray:
    """``hist[s]`` = number of edges with support ``s``."""
    if support.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(support)
