"""Afforest connected components [Sutton, Ben-Nun & Barak, IPDPS'18].

Afforest improves on SV by (1) linking only a few sampled neighbors of
every vertex first, (2) detecting the giant component that emerges from
the samples, and (3) finishing only the vertices *outside* that
component on their full neighbor lists — skipping most of the edge
processing of the largest component. The paper adapts this as its
fastest EquiTruss variant; the generic core here is reused by the
edge-induced version.
"""

from __future__ import annotations

import numpy as np

from repro.cc.core import compress, link_once, minlabel_hook_rounds
from repro.graph.csr import CSRGraph
from repro.obs import metrics
from repro.parallel.context import ExecutionContext
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_nonnegative


def afforest_on_csr(
    comp: np.ndarray,
    indptr: np.ndarray,
    neighbors: np.ndarray,
    nodes: np.ndarray,
    neighbor_rounds: int = 2,
    sample_size: int = 1024,
    seed: int | np.random.Generator | None = 0,
    ctx: ExecutionContext | None = None,
) -> int:
    """Run Afforest over the subgraph induced by ``nodes``.

    ``comp`` is the global parent array (modified in place); ``indptr``/
    ``neighbors`` describe adjacency for *all* node ids, but only
    ``nodes`` are processed — this is the shape the per-Φ_k edge-graph
    needs. Returns total hooking rounds.
    """
    check_nonnegative("neighbor_rounds", neighbor_rounds)
    if nodes.size == 0:
        return 0
    ctx = ExecutionContext.ensure(ctx)
    rng = resolve_rng(seed)
    deg = indptr[nodes + 1] - indptr[nodes]
    total_rounds = 0

    # Phase 1: opportunistically link the first `neighbor_rounds`
    # neighbors of every node (single pass each — no convergence loop;
    # the finish phase repairs whatever sampling leaves disconnected).
    for r in range(neighbor_rounds):
        has = deg > r
        if not has.any():
            break
        srcs = nodes[has]
        dsts = neighbors[indptr[srcs] + r]
        link_once(comp, srcs, dsts, nodes, ctx=ctx)
        total_rounds += 1

    # Phase 2: identify the dominant component from a sample.
    sample = nodes if nodes.size <= sample_size else rng.choice(nodes, size=sample_size, replace=False)
    labels = comp[sample]
    vals, counts = np.unique(labels, return_counts=True)
    giant = vals[np.argmax(counts)]

    # Phase 3: finish remaining nodes on their full neighbor lists. The
    # link primitive is a no-op for endpoints that already share a root
    # (find is O(1) after compression), so already-settled pairs are
    # filtered immediately — only genuinely unfinished pairs iterate.
    rest = nodes[comp[nodes] != giant]
    if rest.size:
        counts_r = indptr[rest + 1] - indptr[rest]
        total = int(counts_r.sum())
        if total:
            ctx.add_round(total)
            cum = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts_r)])
            local = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], counts_r)
            pos = np.repeat(indptr[rest], counts_r) + local
            srcs = np.repeat(rest, counts_r)
            dsts = neighbors[pos]
            live = comp[srcs] != comp[dsts]
            total_rounds += 1
            if live.any():
                total_rounds += minlabel_hook_rounds(
                    comp, srcs[live], dsts[live], ctx=ctx
                )
    compress(comp, nodes, ctx=ctx)
    metrics.inc("repro.cc.afforest_rounds", total_rounds)
    metrics.inc("repro.cc.afforest_finish_nodes", int(rest.size))
    return total_rounds


def afforest(
    graph: CSRGraph,
    neighbor_rounds: int = 2,
    ctx: ExecutionContext | None = None,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Component label per vertex via Afforest.

    The sampling seed only affects which component is skipped in the
    finish phase, never the resulting partition.
    """
    ctx = ExecutionContext.ensure(ctx)
    comp = np.arange(graph.num_vertices, dtype=np.int64)
    nodes = np.arange(graph.num_vertices, dtype=np.int64)
    with ctx.region("Afforest", work=0, rounds=0, intensity="memory"):
        afforest_on_csr(
            comp,
            graph.indptr,
            graph.indices,
            nodes,
            neighbor_rounds=neighbor_rounds,
            seed=seed,
            ctx=ctx,
        )
    return comp
