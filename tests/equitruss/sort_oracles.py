"""The build's group-bys written with NumPy's own sorts, as references.

``repro.utils.sorting`` replaced ``np.argsort(kind="stable")`` and plain
``np.unique`` on the index-build path. These are the edge–triangle
incidence, the level tables and the Afforest adjacency exactly as they
were built with those calls, so tests can require equal arrays.
"""

from __future__ import annotations

import numpy as np

from repro.equitruss.levels import LevelStructures, _triangle_columns
from repro.parallel.context import ExecutionContext
from repro.triangles.incidence import EdgeTriangleIncidence


class ArgsortIncidence(EdgeTriangleIncidence):
    """:class:`EdgeTriangleIncidence` grouped by one stable argsort."""

    def __init__(self, triangles, ctx=None) -> None:
        m = triangles.num_edges
        t = triangles.count
        if ctx is not None:
            dt = ExecutionContext.ensure(ctx).dtype.resolve(max(3 * t, 1))
        else:
            dt = np.dtype(np.int64)
        eids = np.concatenate([triangles.e_uv, triangles.e_uw, triangles.e_vw])
        tids = np.concatenate([np.arange(t, dtype=dt)] * 3)
        order = np.argsort(eids, kind="stable")
        eids, tids = eids[order], tids[order]
        counts = np.bincount(eids, minlength=m)
        indptr = np.zeros(m + 1, dtype=dt)
        np.cumsum(counts, out=indptr[1:])
        self.indptr = indptr
        self.tri_ids = tids
        self.num_edges = m
        self._tri = triangles


def pairs_to_csr_argsort(num_nodes, a, b, index_dtype=None):
    """:func:`repro.cc.core.pairs_to_csr` grouped by one stable argsort."""
    dt = np.dtype(index_dtype) if index_dtype is not None else np.dtype(np.int64)
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a]).astype(dt, copy=False)
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=dt)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst


def build_level_structures_argsort(
    triangles, trussness, with_adjacency=False, ctx=None
) -> LevelStructures:
    """:func:`repro.equitruss.levels.build_level_structures` with
    stable argsorts for both group-bys and ``np.unique`` for ``levels``."""
    ha, hb, hk, slo, shi, sk, _ = _triangle_columns(triangles, trussness)
    h_order = np.argsort(hk, kind="stable")
    ha, hb, hk = ha[h_order], hb[h_order], hk[h_order]
    s_order = np.argsort(sk, kind="stable")
    slo, shi, sk = slo[s_order], shi[s_order], sk[s_order]
    populated = np.unique(trussness)
    levels = np.unique(np.concatenate([hk, sk, populated[populated >= 3]]))
    if ctx is not None:
        edge_dt = ExecutionContext.ensure(ctx).edge_dtype(triangles.num_edges)
    else:
        edge_dt = np.dtype(np.int64)
    adj_indptr = adj_neighbors = None
    if with_adjacency:
        if ctx is not None:
            adj_dt = ExecutionContext.ensure(ctx).dtype.resolve(
                max(triangles.num_edges, 2 * int(ha.size), 1)
            )
        else:
            adj_dt = np.dtype(np.int64)
        adj_indptr, adj_neighbors = pairs_to_csr_argsort(
            triangles.num_edges, ha, hb, index_dtype=adj_dt
        )
    return LevelStructures(
        hook_a=np.ascontiguousarray(ha, dtype=edge_dt),
        hook_b=np.ascontiguousarray(hb, dtype=edge_dt),
        hook_k=np.ascontiguousarray(hk, dtype=trussness.dtype),
        se_lo=np.ascontiguousarray(slo, dtype=edge_dt),
        se_hi=np.ascontiguousarray(shi, dtype=edge_dt),
        se_k=np.ascontiguousarray(sk, dtype=trussness.dtype),
        levels=levels,
        adj_indptr=adj_indptr,
        adj_neighbors=adj_neighbors,
    )

