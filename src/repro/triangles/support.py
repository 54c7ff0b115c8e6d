"""Per-edge support (Definition 2) — the input to truss decomposition.

This is the paper's ``Support`` kernel (Figs. 2 and 4). Under the
process backend the triple arrays are shared once and each worker
accumulates a *privatized* ``bincount`` row over its triangle range into
a shared partial matrix; the coordinator reduces the rows with one sum —
the PKT privatize-and-reduce shape, no cross-process atomics.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.obs import metrics
from repro.parallel.context import ExecutionContext
from repro.triangles.enumerate import TriangleSet, enumerate_triangles


def _w_support_partial(uv_h, uw_h, vw_h, lo: int, hi: int, m: int, out_h, row: int):
    """Process-pool worker: privatized support counts for one triangle range."""
    from repro.parallel.shm import attach

    acc = attach(out_h)[row]
    acc[:] = 0
    for h in (uv_h, uw_h, vw_h):
        arr = attach(h)
        acc += np.bincount(arr[lo:hi], minlength=m)
    # worker-attributed partial: summed across tasks this equals the
    # serial path's 3 * triangles.count exactly
    metrics.inc("repro.triangles.support_updates", 3 * (hi - lo))
    return hi - lo


def parallel_support(
    triangles: TriangleSet, ctx: ExecutionContext | None = None, dtype=None
) -> np.ndarray:
    """Support array via partition → privatize → reduce when the process
    backend is active; the vectorized serial accumulation otherwise.

    Bit-identical to :meth:`TriangleSet.support` — integer partial sums
    reduce exactly regardless of the partitioning. Items are whole
    triangles (three ``bincount`` updates each, a uniform per-item
    cost), so :meth:`ExecutionContext.partition_ranges` splits them by
    count.
    """
    from repro.parallel.shm import active_process_backend

    backend = active_process_backend(ctx, triangles.count)
    if backend is None:
        metrics.inc("repro.triangles.support_updates", 3 * triangles.count)
        return triangles.support(dtype=dtype)
    m = triangles.num_edges
    pool = backend.pool
    uv_h = pool.share("sup.uv", triangles.e_uv)[1]
    uw_h = pool.share("sup.uw", triangles.e_uw)[1]
    vw_h = pool.share("sup.vw", triangles.e_vw)[1]
    ranges = ctx.partition_ranges(triangles.count)
    partials, out_h = pool.take("sup.partials", (len(ranges), m), np.int64)
    tasks = [
        (uv_h, uw_h, vw_h, lo, hi, m, out_h, row)
        for row, (lo, hi) in enumerate(ranges)
    ]
    backend.map_tasks(
        _w_support_partial,
        tasks,
        ctx=ctx,
        work=[hi - lo for lo, hi in ranges],
        kernel="Support",
    )
    reduced = partials.sum(axis=0)
    return reduced.astype(dtype, copy=False) if dtype is not None else reduced


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
        support = parallel_support(triangles, ctx, dtype=dtype)
        if support.size:
            metrics.set_gauge_max("repro.triangles.support_max", int(support.max()))
        return support


def support_histogram(support: np.ndarray) -> np.ndarray:
    """``hist[s]`` = number of edges with support ``s``."""
    if support.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(support)
