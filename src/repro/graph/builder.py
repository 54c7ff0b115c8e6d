"""Canonicalizing builders: raw endpoint arrays → EdgeList / CSRGraph.

The pipeline mirrors the GAP benchmark's builder: drop self loops,
canonicalize endpoint order, sort by scalar key, deduplicate. All steps
are vectorized.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.edgelist import EdgeList
from repro.utils.sorting import unique_sorted


def build_edgelist(
    src: np.ndarray | Iterable[int],
    dst: np.ndarray | Iterable[int],
    num_vertices: int | None = None,
) -> EdgeList:
    """Build a canonical :class:`EdgeList` from raw endpoint arrays.

    Self loops are removed, parallel edges collapsed, and endpoint order
    normalized to ``u < v``. ``num_vertices`` defaults to ``max(id) + 1``.
    """
    src = np.asarray(list(src) if not isinstance(src, np.ndarray) else src, dtype=np.int64)
    dst = np.asarray(list(dst) if not isinstance(dst, np.ndarray) else dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphConstructionError(
            f"src/dst must be equal-length 1-D arrays, got {src.shape} and {dst.shape}"
        )
    if src.size and (int(src.min()) < 0 or int(dst.min()) < 0):
        raise GraphConstructionError("negative vertex id in input")
    if num_vertices is None:
        num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1) if src.size else 0
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep])
    hi = np.maximum(src[keep], dst[keep])
    key = lo * np.int64(num_vertices) + hi
    key = unique_sorted(key)
    u = key // num_vertices if num_vertices else key
    v = key % num_vertices if num_vertices else key
    return EdgeList(u, v, num_vertices)


def build_graph(
    src: np.ndarray | Iterable[int],
    dst: np.ndarray | Iterable[int],
    num_vertices: int | None = None,
    ctx=None,
    index_dtype=None,
):
    """Build a :class:`repro.graph.csr.CSRGraph` from raw endpoint arrays.

    ``ctx`` (an :class:`~repro.parallel.context.ExecutionContext`) or an
    explicit ``index_dtype`` selects the CSR index dtype; the default
    stays int64.
    """
    from repro.graph.csr import CSRGraph

    return CSRGraph.from_edgelist(
        build_edgelist(src, dst, num_vertices), ctx=ctx, index_dtype=index_dtype
    )
