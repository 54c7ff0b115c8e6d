"""Serial EquiTruss index construction — Algorithm 1 of the paper.

A faithful transcription of the BFS-queue pseudocode (originally Akbas &
Zhao's EquiTruss): supernodes are grown one at a time by breadth-first
traversal over k-triangle connectivity; each edge keeps a list of
lower-trussness supernode ids that touched it, from which superedges are
emitted when the edge is dequeued in its own supernode.

Two lookup modes:

* ``lookup="array"`` — edge-id resolution through the CSR keyed-search
  (vectorized per dequeued edge); the fast serial reference.
* ``lookup="dict"`` — trussness and adjacency through Python hash maps,
  playing the role of the original Java implementation in Table 4
  (per-element hash probing, no contiguous buffers).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.equitruss.index import EquiTrussIndex
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.parallel.context import ExecutionContext
from repro.truss.decompose import TrussDecomposition, truss_decomposition


def equitruss_serial(
    graph: CSRGraph,
    decomp: TrussDecomposition | None = None,
    ctx: ExecutionContext | None = None,
    lookup: str = "array",
) -> EquiTrussIndex:
    """Build the EquiTruss index with the serial Algorithm 1.

    Records ``Support``/``TrussDecomp`` regions when the decomposition is
    computed here, and a single serial ``EquiTruss`` region for the index
    construction itself (the paper's Figure 2 breakdown).
    """
    if lookup not in ("array", "dict"):
        raise InvalidParameterError(f"lookup must be 'array' or 'dict', got {lookup!r}")
    ctx = ExecutionContext.ensure(ctx)
    if decomp is None:
        from repro.triangles.enumerate import enumerate_triangles

        with ctx.region("Support", work=graph.num_edges, intensity="mixed"):
            triangles = enumerate_triangles(graph, ctx=ctx)
        decomp = truss_decomposition(graph, triangles=triangles, ctx=ctx)
    tau = decomp.trussness

    with ctx.region("EquiTruss", work=graph.num_edges, parallel=False):
        parents, raw_superedges = _algorithm1(graph, tau, lookup)
    return EquiTrussIndex.from_parents(graph, tau, parents, raw_superedges)


def _algorithm1(
    graph: CSRGraph, tau: np.ndarray, lookup: str
) -> tuple[np.ndarray, np.ndarray]:
    m = graph.num_edges
    eu, ev = graph.edges.u, graph.edges.v
    processed = np.zeros(m, dtype=bool)
    elist: dict[int, set[int]] = {}
    # supernode id -> list of member edges; superedges as (lower id, this id)
    members: list[list[int]] = []
    superedges: set[tuple[int, int]] = set()

    if lookup == "dict":
        tau_map = {
            (int(a), int(b)): int(t)
            for a, b, t in zip(eu.tolist(), ev.tolist(), tau.tolist())
        }
        eid_map = {
            (int(a), int(b)): i for i, (a, b) in enumerate(zip(eu.tolist(), ev.tolist()))
        }
        adj: dict[int, set[int]] = {v: set() for v in range(graph.num_vertices)}
        for a, b in zip(eu.tolist(), ev.tolist()):
            adj[a].add(b)
            adj[b].add(a)

    ks = np.unique(tau)
    ks = ks[ks >= 3]
    for k in ks.tolist():
        phi = np.flatnonzero((tau == k) & ~processed)
        for seed in phi.tolist():
            if processed[seed]:
                continue
            processed[seed] = True
            sp_id = len(members)
            members.append([])
            queue: deque[int] = deque([seed])
            while queue:
                e = queue.popleft()
                members[sp_id].append(e)
                for lower_id in elist.pop(e, ()):  # noqa: B909 - single reader
                    superedges.add((lower_id, sp_id))
                u, v = int(eu[e]), int(ev[e])
                if lookup == "array":
                    w_all = np.intersect1d(
                        graph.neighbors(u), graph.neighbors(v), assume_unique=True
                    )
                    if w_all.size == 0:
                        continue
                    e1s = graph.edge_ids[
                        graph.locate_slots(np.full(w_all.size, u, np.int64), w_all)
                    ]
                    e2s = graph.edge_ids[
                        graph.locate_slots(np.full(w_all.size, v, np.int64), w_all)
                    ]
                    t1s, t2s = tau[e1s], tau[e2s]
                    valid = (t1s >= k) & (t2s >= k)
                    it = zip(
                        e1s[valid].tolist(),
                        e2s[valid].tolist(),
                        t1s[valid].tolist(),
                        t2s[valid].tolist(),
                    )
                else:
                    rows = []
                    for w in adj[u] & adj[v]:
                        key1 = (min(u, w), max(u, w))
                        key2 = (min(v, w), max(v, w))
                        t1, t2 = tau_map[key1], tau_map[key2]
                        if t1 >= k and t2 >= k:
                            rows.append((eid_map[key1], eid_map[key2], t1, t2))
                    it = iter(rows)
                for e1, e2, t1, t2 in it:
                    _process_edge(e1, t1, k, sp_id, processed, queue, elist)
                    _process_edge(e2, t2, k, sp_id, processed, queue, elist)

    parents = np.arange(m, dtype=np.int64)
    roots = [min(group) for group in members]
    for sp_id, group in enumerate(members):
        parents[group] = roots[sp_id]
    raw = np.array(
        [[roots[a], roots[b]] for a, b in sorted(superedges)], dtype=np.int64
    ).reshape(-1, 2)
    return parents, raw


def _process_edge(
    eid: int,
    t: int,
    k: int,
    sp_id: int,
    processed: np.ndarray,
    queue: deque,
    elist: dict[int, set[int]],
) -> None:
    """ProcessEdge of Algorithm 1 (lines 25–32)."""
    if t == k:
        if not processed[eid]:
            processed[eid] = True
            queue.append(eid)
    else:  # t > k: remember this supernode for a future superedge
        elist.setdefault(eid, set()).add(sp_id)
