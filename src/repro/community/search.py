"""Index-backed local community search (the EquiTruss query algorithm).

Given the summary graph, retrieving all k-truss communities of a query
vertex q is pure supergraph traversal — no trussness recomputation, no
edge-level BFS (the advantage over TCP-Index the paper highlights):

1. *Anchor*: supernodes with τ ≥ k containing an edge incident to q.
2. *Traverse*: BFS over superedges restricted to supernodes with τ ≥ k.
   Superedges certify triangle connectivity at the lower endpoint's
   trussness, and a κ-truss triangle path survives in every k ≤ κ truss,
   so each reachable set is one k-triangle-connected community.
3. *Materialize*: the community's edges are the union of member edges
   of its supernodes.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.community.model import Community, canonical_order
from repro.equitruss.index import EquiTrussIndex
from repro.errors import InvalidParameterError
from repro.parallel.context import ExecutionContext


def search_communities(
    index: EquiTrussIndex,
    query_vertex: int,
    k: int,
    ctx: ExecutionContext | None = None,
) -> list[Community]:
    """All k-truss communities containing ``query_vertex``.

    Returns communities in canonical order; empty list when the vertex
    touches no τ ≥ k edge. ``k`` must be ≥ 3 (Definition 7). With a
    ``ctx`` the traversal is recorded as a ``Query`` region (supernodes
    visited = work) in the context trace.
    """
    if k < 3:
        raise InvalidParameterError(f"k must be >= 3 for k-truss communities, got {k}")
    ctx = ExecutionContext.ensure(ctx)
    anchors = index.supernodes_of_vertex(query_vertex, k_min=k)
    if anchors.size == 0:
        return []
    indptr, nbrs = index.supernode_adjacency()
    sn_k = index.supernode_trussness
    visited = np.zeros(index.num_supernodes, dtype=bool)
    communities: list[Community] = []
    with ctx.region("Query", work=0, parallel=False) as sp:
        for anchor in anchors.tolist():
            if visited[anchor]:
                continue
            group: list[int] = []
            visited[anchor] = True
            queue: deque[int] = deque([anchor])
            while queue:
                sn = queue.popleft()
                group.append(sn)
                for other in nbrs[indptr[sn] : indptr[sn + 1]].tolist():
                    if not visited[other] and sn_k[other] >= k:
                        visited[other] = True
                        queue.append(other)
            sp.attrs["work"] += len(group)
            edge_ids = np.sort(np.concatenate([index.edges_of(sn) for sn in group]))
            communities.append(Community(k=k, edge_ids=edge_ids, graph=index.graph))
    return canonical_order(communities)


def query_candidate_ks(index: EquiTrussIndex, query_vertex: int) -> np.ndarray:
    """Ascending k values for which the vertex has at least one community
    (the distinct trussness values on its incident edges)."""
    eids = index.graph.neighbor_edge_ids(query_vertex)
    ks = np.unique(index.trussness[eids])
    return ks[ks >= 3]
