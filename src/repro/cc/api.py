"""Dispatch front-end for connected components."""

from __future__ import annotations

import numpy as np

from repro.cc.afforest import afforest
from repro.cc.bfs import bfs_components
from repro.cc.core import normalize_labels
from repro.cc.label_prop import label_propagation
from repro.cc.shiloach_vishkin import shiloach_vishkin
from repro.cc.union_find import UnionFind
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.parallel.context import ExecutionContext


def _union_find_cc(graph: CSRGraph, ctx: ExecutionContext | None = None) -> np.ndarray:
    uf = UnionFind(graph.num_vertices)
    for a, b in zip(graph.edges.u.tolist(), graph.edges.v.tolist()):
        uf.union(a, b)
    return uf.labels()


_METHODS = {
    "sv": shiloach_vishkin,
    "afforest": afforest,
    "label_prop": label_propagation,
    "bfs": bfs_components,
    "union_find": _union_find_cc,
}


def connected_components(
    graph: CSRGraph,
    method: str = "afforest",
    ctx: ExecutionContext | None = None,
    normalize: bool = True,
) -> np.ndarray:
    """Component labels for every vertex.

    ``method`` ∈ {sv, afforest, label_prop, bfs, union_find}. With
    ``normalize=True`` labels are densified to 0..C-1 so outputs of all
    methods compare equal directly.
    """
    try:
        fn = _METHODS[method]
    except KeyError:
        raise InvalidParameterError(
            f"unknown CC method {method!r}; available: {sorted(_METHODS)}"
        ) from None
    comp = fn(graph, ctx=ExecutionContext.ensure(ctx))
    return normalize_labels(comp) if normalize else comp
