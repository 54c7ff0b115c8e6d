"""The three SpNode kernels: Baseline, C-Optimal, Afforest.

All three compute the same fixpoint — the per-level connected components
of the edge-induced graph — but with the different work profiles the
paper describes in §3.3:

* **Baseline** recomputes, for every edge of Φ_k, its triangles from the
  raw CSR adjacency when the level is processed (Algorithm 2 lines
  10–14), resolving partner edge ids through keyed searches — the
  "dictionary over the whole edge set" probing the paper optimizes
  away — and runs SV hooking that rescans the complete pair list each
  round (no settled-pair skip).
* **C-Optimal** consumes the per-level hook tables built once during
  Init (CSR/contiguous-buffer storage), and *skips settled pairs*: a
  pair whose endpoints already share a component is dropped from
  subsequent rounds, so per-round work shrinks monotonically.
* **Afforest** traverses the edge-graph adjacency (also materialized in
  Init): per level it opportunistically links the first few sampled
  neighbors of every node (work ∝ nodes, not pairs), detects the
  dominant component, and finishes only the nodes outside it — the
  subgraph-sampling skip of [43].

Every kernel takes an :class:`~repro.parallel.context.ExecutionContext`
(``ctx``): rounds are reported via ``ctx.add_round`` and the per-round
component gathers reuse the context workspace across levels.
"""

from __future__ import annotations

import numpy as np

from repro.cc.afforest import afforest_on_csr
from repro.cc.core import compress
from repro.equitruss.levels import LevelStructures
from repro.graph.csr import CSRGraph
from repro.obs import metrics
from repro.parallel.context import ExecutionContext
from repro.utils.sorting import unique_sorted


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------

def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _level_tables_range(
    indptr: np.ndarray,
    indices: np.ndarray,
    slot_eids: np.ndarray,
    slot_keys: np.ndarray,
    deg: np.ndarray,
    eu: np.ndarray,
    ev: np.ndarray,
    trussness: np.ndarray,
    phi: np.ndarray,
    lo: int,
    hi: int,
    k: int,
    n: int,
    batch_edges: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Recompute level-``k`` tables for ``phi[lo:hi]``, batch by batch.

    Pure-array core shared by the serial loop and the process-pool
    workers — it replicates ``graph.locate_slots`` via a ``searchsorted``
    over the precomputed slot keys so only flat arrays cross the process
    boundary. Returns the concatenated parts plus the per-batch neighbor
    totals (replayed into ``ctx.add_round`` by the caller).
    """
    hook_parts_a: list[np.ndarray] = []
    hook_parts_b: list[np.ndarray] = []
    se_parts_lo: list[np.ndarray] = []
    se_parts_hi: list[np.ndarray] = []
    totals: list[int] = []
    kd = slot_keys.dtype
    for lo_ix in range(lo, hi, batch_edges):
        eids = phi[lo_ix : min(lo_ix + batch_edges, hi)]
        u, v = eu[eids], ev[eids]
        swap = deg[u] > deg[v]
        x = np.where(swap, v, u)       # expand the smaller endpoint
        y = np.where(swap, u, v)
        counts = deg[x]
        total = int(counts.sum())
        totals.append(total)
        if total == 0:
            continue
        cum = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
        local = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], counts)
        w_pos = np.repeat(indptr[x], counts) + local
        w = indices[w_pos]
        y_rep = np.repeat(y, counts)
        # the "dictionary" probe: graph.locate_slots on flat arrays
        q = y_rep.astype(kd, copy=False) * kd.type(max(n, 1)) + w.astype(
            kd, copy=False
        )
        pos = np.searchsorted(slot_keys, q)
        pos_c = np.minimum(pos, max(slot_keys.size - 1, 0))
        if slot_keys.size == 0:
            slots = np.full(q.shape, -1, dtype=np.int64)
        else:
            slots = np.where(slot_keys[pos_c] == q, pos_c, -1)
        found = slots >= 0
        if not found.any():
            continue
        e_rep = np.repeat(eids, counts)[found]
        e1 = slot_eids[w_pos[found]]           # (x, w)
        e2 = slot_eids[slots[found]]           # (y, w)
        # drop the degenerate "triangle" where w is the other endpoint
        real = (e1 != e_rep) & (e2 != e_rep)
        e_rep, e1, e2 = e_rep[real], e1[real], e2[real]
        t1, t2 = trussness[e1], trussness[e2]
        both_ok = (t1 >= k) & (t2 >= k)
        h1 = both_ok & (t1 == k)
        h2 = both_ok & (t2 == k)
        hook_parts_a.extend((e_rep[h1], e_rep[h2]))
        hook_parts_b.extend((e1[h1], e2[h2]))
        lowest = np.minimum(np.minimum(t1, t2), k)
        below = lowest < k
        s1 = below & (t1 == lowest)
        s2 = below & (t2 == lowest)
        se_parts_lo.extend((e1[s1], e2[s2]))
        se_parts_hi.extend((e_rep[s1], e_rep[s2]))
    return (
        _cat(hook_parts_a),
        _cat(hook_parts_b),
        _cat(se_parts_lo),
        _cat(se_parts_hi),
        totals,
    )


def _w_level_tables(
    indptr_h, indices_h, eids_h, keys_h, deg_h, eu_h, ev_h, tau_h, phi_h,
    lo: int, hi: int, k: int, n: int, batch_edges: int,
):
    """Process-pool worker: level tables for one batch-aligned phi range."""
    from repro.parallel.shm import attach, export_array

    ha, hb, sl, sh, totals = _level_tables_range(
        attach(indptr_h), attach(indices_h), attach(eids_h), attach(keys_h),
        attach(deg_h), attach(eu_h), attach(ev_h), attach(tau_h),
        attach(phi_h), lo, hi, k, n, batch_edges,
    )
    return (
        export_array(ha), export_array(hb), export_array(sl), export_array(sh),
        totals,
    )


def recompute_level_tables(
    graph: CSRGraph,
    trussness: np.ndarray,
    k: int,
    batch_edges: int = 1 << 16,
    ctx: ExecutionContext | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 2/3 per-level triangle recomputation.

    For every edge e(u, v) ∈ Φ_k, enumerate its triangles from the CSR
    adjacency (expanding the smaller endpoint's neighbor list, resolving
    the partner edges via keyed searches) and derive:

    * hook pairs ``(e, e')`` where τ(e') = k and the third side has
      τ ≥ k (k-triangle connectivity inside the maximal k-truss);
    * superedge candidates ``(lo, hi=e)`` where lo is a partner at the
      triangle minimum κ < k (Algorithm 3's downward rule).

    Returns ``(hook_a, hook_b, se_lo, se_hi)``. Duplicated hook pairs
    (a triangle seen from both its k-edges) are kept — SV is insensitive
    and the paper's per-edge loop produces them too.

    Under the process backend the Φ_k batches are split across workers
    at ``batch_edges``-aligned boundaries, so concatenating the worker
    parts in order reproduces the serial batch sequence exactly —
    bit-identical tables.
    """
    from repro.parallel.shm import active_process_backend, import_array

    ctx = ExecutionContext.ensure(ctx)
    phi = np.flatnonzero(trussness == k)
    deg = graph.degrees()
    indptr, indices, slot_eids = graph.indptr, graph.indices, graph.edge_ids
    eu, ev = graph.edges.u, graph.edges.v
    n = graph.num_vertices

    backend = active_process_backend(ctx, phi.size)
    if backend is None:
        ha, hb, sl, sh, totals = _level_tables_range(
            indptr, indices, slot_eids, graph.slot_keys, deg, eu, ev,
            trussness, phi, 0, phi.size, k, n, batch_edges,
        )
        for total in totals:
            ctx.add_round(max(total, 1))
        return ha, hb, sl, sh

    from repro.parallel.partition import block_ranges

    pool = backend.pool
    handles = (
        pool.share("lvl.indptr", indptr)[1],
        pool.share("lvl.indices", indices)[1],
        pool.share("lvl.eids", slot_eids)[1],
        pool.share("lvl.keys", graph.slot_keys)[1],
        pool.share("lvl.deg", deg)[1],
        pool.share("lvl.eu", eu)[1],
        pool.share("lvl.ev", ev)[1],
        pool.share("lvl.tau", trussness)[1],
        pool.share("lvl.phi", phi)[1],
    )
    num_batches = -(-phi.size // batch_edges)
    ranges = [
        (b_lo * batch_edges, min(b_hi * batch_edges, phi.size))
        for b_lo, b_hi in block_ranges(num_batches, ctx.num_workers)
        if b_hi > b_lo
    ]
    results = backend.map_tasks(
        _w_level_tables,
        [(*handles, lo, hi, k, n, batch_edges) for lo, hi in ranges],
        ctx=ctx,
        work=[hi - lo for lo, hi in ranges],
        kernel="LevelTables",
    )
    parts = [[], [], [], []]
    for ha_h, hb_h, sl_h, sh_h, totals in results:
        for dst, h in zip(parts, (ha_h, hb_h, sl_h, sh_h)):
            dst.append(import_array(h))
        for total in totals:
            ctx.add_round(max(total, 1))
    # drop empty worker parts: an idle worker's placeholder is int64 and
    # would otherwise promote the concatenated dtype
    return tuple(_cat([a for a in p if a.size]) for p in parts)


def sv_rounds_noskip(
    comp: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    ctx: ExecutionContext | None = None,
) -> int:
    """SV hooking/shortcut rounds that rescan the *complete* pair list
    every round (no settled-pair skip — the Baseline behavior)."""
    if a.size == 0:
        return 0
    ctx = ExecutionContext.ensure(ctx)
    ws = ctx.workspace
    touched = unique_sorted(np.concatenate([a, b]))
    rounds = 0
    while True:
        rounds += 1
        ctx.add_round(2 * a.size)
        ca = ws.gather("sp.ca", comp, a)
        cb = ws.gather("sp.cb", comp, b)
        hook_b = (ca < cb) & (comp[cb] == cb)
        hook_a = (cb < ca) & (comp[ca] == ca)
        changed = bool(hook_b.any() or hook_a.any())
        if hook_b.any():
            np.minimum.at(comp, cb[hook_b], ca[hook_b])
        if hook_a.any():
            np.minimum.at(comp, ca[hook_a], cb[hook_a])
        compress(comp, touched, ctx=ctx)
        if not changed:
            return rounds


def spnode_baseline(
    comp: np.ndarray,
    graph: CSRGraph,
    trussness: np.ndarray,
    k: int,
    ctx: ExecutionContext | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Baseline SpNode for level ``k``: recompute triangles, then
    unskipped SV. Returns the level's superedge candidates (recomputed
    here, consumed by the SpEdge kernel)."""
    ctx = ExecutionContext.ensure(ctx)
    hook_a, hook_b, se_lo, se_hi = recompute_level_tables(
        graph, trussness, k, ctx=ctx
    )
    metrics.inc("repro.equitruss.hook_pairs", int(hook_a.size))
    rounds = sv_rounds_noskip(comp, hook_a, hook_b, ctx=ctx)
    metrics.inc("repro.cc.sv_rounds", rounds)
    return se_lo, se_hi


# ----------------------------------------------------------------------
# C-Optimal
# ----------------------------------------------------------------------

def spnode_coptimal(
    comp: np.ndarray,
    levels: LevelStructures,
    k: int,
    ctx: ExecutionContext | None = None,
) -> int:
    """C-Optimal SV over level ``k``: prebuilt pairs + settled-pair skip.

    Like the paper's adaptation, every hooking round still scans the full
    pair list (SV has no per-pair memory between rounds); the §3.3
    optimization is the early-out — pairs whose endpoints already share a
    component do no further work within the round. Baseline's additional
    cost relative to this kernel is the per-level triangle recomputation.
    """
    a, b = levels.hook_pairs(k)
    if a.size == 0:
        return 0
    ctx = ExecutionContext.ensure(ctx)
    ws = ctx.workspace
    touched = unique_sorted(np.concatenate([a, b]))
    rounds = 0
    while True:
        rounds += 1
        metrics.inc("repro.cc.sv_rounds")
        ctx.add_round(2 * a.size)
        ca = ws.gather("sp.ca", comp, a)
        cb = ws.gather("sp.cb", comp, b)
        unsettled = ca != cb  # the Π(e) == Π(e1) early-out of §3.3
        if not unsettled.any():
            compress(comp, touched, ctx=ctx)
            return rounds
        ua, ub = ca[unsettled], cb[unsettled]
        hook_b = (ua < ub) & (comp[ub] == ub)
        hook_a = (ub < ua) & (comp[ua] == ua)
        changed = bool(hook_b.any() or hook_a.any())
        if hook_b.any():
            np.minimum.at(comp, ub[hook_b], ua[hook_b])
        if hook_a.any():
            np.minimum.at(comp, ua[hook_a], ub[hook_a])
        compress(comp, touched, ctx=ctx)
        if not changed:
            return rounds


# ----------------------------------------------------------------------
# Afforest
# ----------------------------------------------------------------------

def spnode_afforest(
    comp: np.ndarray,
    levels: LevelStructures,
    k: int,
    phi_nodes: np.ndarray,
    neighbor_rounds: int = 2,
    seed: int = 0,
    ctx: ExecutionContext | None = None,
) -> int:
    """Afforest over level ``k`` using the Init-built edge-graph CSR.

    ``phi_nodes`` are the edge ids of Φ_k (the level's nodes). Because
    hook pairs only ever join equal-trussness edges, the global
    adjacency restricted to these nodes is exactly the level's edge
    graph.
    """
    if phi_nodes.size == 0:
        return 0
    indptr, neighbors = levels.adjacency_arrays()
    return afforest_on_csr(
        comp,
        indptr,
        neighbors,
        phi_nodes,
        neighbor_rounds=neighbor_rounds,
        seed=seed,
        ctx=ctx,
    )
