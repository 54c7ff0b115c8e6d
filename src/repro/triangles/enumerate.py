"""Exact triangle enumeration via a degree-ordered DAG.

The *forward* algorithm [Schank & Wagner 2005, cited as [37] in the
paper]: orient every undirected edge from the endpoint of lower
(degree, id) rank to the higher one. Each triangle {u, v, w} then
appears exactly once as a pair of directed edges u→v, u→w plus the
closing edge v→w. The DAG is the graph's own CSR with the slots that
point down the rank order dropped, so its rows stay sorted and no key
is sorted. Enumeration is vectorized: for every directed edge (u, v)
the candidate third vertices are N⁺(v), and membership of w in N⁺(u) is
tested for the whole batch at once with one element lookup
``dag[u, w]`` on a ``scipy.sparse.csr_array`` (a compiled binary search
inside row u). The array stores each slot's edge id + 1, so the lookup
returns the closing edge's id as well, and 0 where there is none.

Work is O(Σ_(u,v) d⁺(v)) — the standard arboricity-bounded cost. Batches
cap peak memory for large graphs.

Under the process backend the slot selections are block-partitioned
across the persistent worker pool: the DAG arrays are shared once
(zero-copy ``multiprocessing.shared_memory``), each worker wraps them
in a ``csr_array``, expands its contiguous slot range with the same
batched kernel and appends its triple buffers to shared memory, and the
coordinator concatenates the per-worker parts *in worker order* —
producing bit-identical output to the serial batch loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.obs import metrics
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class TriangleSet:
    """All triangles of a graph, as edge-id triples.

    For triangle {u, v, w} with DAG orientation u→v, u→w, v→w:

    * ``e_uv`` — edge id of (u, v),
    * ``e_uw`` — edge id of (u, w),
    * ``e_vw`` — edge id of (v, w).

    Each triangle appears exactly once. ``num_edges`` is the edge count
    of the originating graph (needed to size support arrays).
    """

    e_uv: np.ndarray
    e_uw: np.ndarray
    e_vw: np.ndarray
    num_edges: int

    @property
    def count(self) -> int:
        return self.e_uv.size

    @property
    def nbytes(self) -> int:
        """Bytes held by the three edge-id columns."""
        return int(self.e_uv.nbytes + self.e_uw.nbytes + self.e_vw.nbytes)

    def as_matrix(self) -> np.ndarray:
        """``int64[T, 3]`` matrix of edge-id triples."""
        return np.stack([self.e_uv, self.e_uw, self.e_vw], axis=1)

    def support(self, dtype=None) -> np.ndarray:
        """Number of triangles per edge (Definition 2 of the paper).

        ``dtype`` narrows the accumulator (int32 under the auto dtype
        policy — halves the resident support array); the counts are
        identical to the default int64 accumulation since per-edge
        support is bounded by the edge count.
        """
        sup = np.zeros(self.num_edges, dtype=np.int64 if dtype is None else dtype)
        for arr in (self.e_uv, self.e_uw, self.e_vw):
            np.add(
                sup,
                np.bincount(arr, minlength=self.num_edges),
                out=sup,
                casting="unsafe",
            )
        return sup

    def canonical_sorted(self) -> np.ndarray:
        """Row-sorted triples in deterministic order (tests/comparisons)."""
        m = np.sort(self.as_matrix(), axis=1)
        order = np.lexsort((m[:, 2], m[:, 1], m[:, 0]))
        return m[order]


def _degree_ordered_dag(graph: CSRGraph):
    """Orient edges by (degree, id) rank; return DAG CSR arrays.

    Returns (indptr, heads, slot_eids, tails_per_slot) where rows are
    original vertex ids, columns sorted ascending, and ``slot_eids``
    carries the canonical undirected edge id of each directed slot. The
    graph's CSR rows are already sorted, so keeping each row's slots
    that point up the rank order gives the DAG rows in order.
    """
    n = graph.num_vertices
    deg = graph.degrees()
    # rank[u] < rank[v]  <=>  (deg[u], u) < (deg[v], v)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n, dtype=np.int64)
    tails = np.repeat(np.arange(n, dtype=graph.indices.dtype), deg)
    up = rank[tails] < rank[graph.indices]
    tails = tails[up]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return indptr, graph.indices[up], graph.edge_ids[up], tails


def _dag_array(indptr: np.ndarray, heads: np.ndarray, slot_data: np.ndarray):
    """The DAG as an n × n ``csr_array`` holding ``slot_data`` (edge id + 1)."""
    from scipy.sparse import csr_array

    n = indptr.size - 1
    return csr_array((slot_data, heads, indptr), shape=(n, n))


def _expand_selection(
    indptr: np.ndarray,
    heads: np.ndarray,
    slot_eids: np.ndarray,
    tails: np.ndarray,
    outdeg: np.ndarray,
    dag,
    slot_sel: np.ndarray,
    from_head: bool,
    batch_slots: int,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Expand a slot selection into (uv, uw, vw) triple parts.

    The shared batched kernel behind both the serial loop and the
    process-backend workers. Output parts concatenate in slot-selection
    order, so any contiguous partitioning of ``slot_sel`` reproduces the
    full run's triple order exactly. ``dag`` is :func:`_dag_array` of
    the same arrays.
    """
    parts_uv: list[np.ndarray] = []
    parts_uw: list[np.ndarray] = []
    parts_vw: list[np.ndarray] = []
    for lo in range(0, slot_sel.size, batch_slots):
        slots = slot_sel[lo : lo + batch_slots]
        b_heads = heads[slots]
        b_tails = tails[slots]
        expand = b_heads if from_head else b_tails
        other = b_tails if from_head else b_heads
        counts = outdeg[expand]
        ends = np.cumsum(counts, dtype=counts.dtype)
        total = int(ends[-1])
        if total == 0:
            continue
        # Grouped arange: the out-neighbor slots of every expanded endpoint.
        w_pos = np.repeat(indptr[expand] - (ends - counts), counts)
        w_pos += np.arange(total, dtype=w_pos.dtype)
        w = heads[w_pos]
        # Membership: is (other, w) a DAG edge?  One lookup, which
        # returns that edge's id + 1, or 0 where there is no edge.
        closing = dag[np.repeat(other, counts), w]
        # positions, not a mask: three gathers read it
        found = np.flatnonzero(closing)
        if found.size == 0:
            continue
        slot_rep = np.repeat(slots, counts)[found]
        e_pivot = slot_eids[slot_rep]           # edge (u, v)
        e_from_expand = slot_eids[w_pos[found]]  # edge (expand, w)
        e_from_other = closing[found] - 1       # edge (other, w)
        parts_uv.append(e_pivot)
        if from_head:
            # expanded from v: (v, w) is the closing edge, (u, w) = other side
            parts_uw.append(e_from_other)
            parts_vw.append(e_from_expand)
        else:
            parts_uw.append(e_from_expand)
            parts_vw.append(e_from_other)
    return parts_uv, parts_uw, parts_vw


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _w_enumerate_chunk(
    indptr_h,
    heads_h,
    eids_h,
    tails_h,
    outdeg_h,
    data_h,
    sel_h,
    lo: int,
    hi: int,
    from_head: bool,
    batch_slots: int,
):
    """Process-pool worker: expand slots ``sel[lo:hi]``, export triples."""
    from repro.parallel.shm import attach, export_array

    sel = attach(sel_h)[lo:hi]
    indptr, heads = attach(indptr_h), attach(heads_h)
    parts = _expand_selection(
        indptr,
        heads,
        attach(eids_h),
        attach(tails_h),
        attach(outdeg_h),
        _dag_array(indptr, heads, attach(data_h)),
        sel,
        from_head,
        batch_slots,
    )
    return tuple(export_array(_cat(p)) for p in parts)


def _enumerate_process(
    backend,
    ctx,
    indptr,
    heads,
    slot_eids,
    tails,
    outdeg,
    slot_data,
    selections,
    batch_slots,
):
    """Partition → privatize → reduce enumeration across the worker pool.

    Shares the DAG arrays once, fans each selection out as contiguous
    chunks, imports the per-worker append buffers, and concatenates them
    in worker order (bit-identical to the serial batch loop).

    Each selection is cut by its per-slot **wedge count** (the
    out-degree of the expanded endpoint — the work the expansion
    actually does) instead of the slot count, per the eager k-truss
    load-balancing study (arXiv:2009.07929). Results concatenate in
    range order, so the cut points never change the output — only the
    per-worker ``work`` attrs, which record the estimated wedge share
    each task carried.
    """
    from repro.parallel.partition import range_weights
    from repro.parallel.shm import import_array

    pool = backend.pool
    handles = [
        pool.share(kind, arr)[1]
        for kind, arr in (
            ("enum.indptr", indptr),
            ("enum.heads", heads),
            ("enum.eids", slot_eids),
            ("enum.tails", tails),
            ("enum.outdeg", outdeg),
            ("enum.data", slot_data),
        )
    ]
    parts_uv: list[np.ndarray] = []
    parts_uw: list[np.ndarray] = []
    parts_vw: list[np.ndarray] = []
    for si, (sel, from_head) in enumerate(selections):
        if sel.size == 0:
            continue
        _, sel_h = pool.share(f"enum.sel{si}", sel)
        # per-slot wedge estimate: expanding slot s scans the expanded
        # endpoint's out-neighborhood, so its cost is that out-degree
        wedges = outdeg[heads[sel] if from_head else tails[sel]]
        ranges = ctx.partition_ranges(sel.size, weights=wedges)
        tasks = [
            (*handles, sel_h, lo, hi, from_head, batch_slots)
            for lo, hi in ranges
        ]
        results = backend.map_tasks(
            _w_enumerate_chunk,
            tasks,
            ctx=ctx,
            label="Worker",
            work=range_weights(wedges, ranges),
            kernel="Enumerate",
        )
        for uv_h, uw_h, vw_h in results:
            parts_uv.append(import_array(uv_h))
            parts_uw.append(import_array(uw_h))
            parts_vw.append(import_array(vw_h))
    return parts_uv, parts_uw, parts_vw


def enumerate_triangles(
    graph: CSRGraph, batch_slots: int = 1 << 18, ctx=None
) -> TriangleSet:
    """Enumerate every triangle of ``graph`` exactly once.

    ``batch_slots`` bounds how many directed edges are expanded per
    vectorized batch (peak temporary memory ≈ batch wedge count). The
    edge-id triples are stored in the edge dtype of ``ctx``'s policy
    (the auto policy without a ``ctx``, as every other kernel) — they
    are the biggest derived arrays of the pipeline, so narrowing them
    matters most. The batch arithmetic runs in int32 whenever the ids
    and wedge offsets fit, whatever the policy; that never changes the
    output.

    When ``ctx`` runs the process backend with multiple workers (and the
    graph clears the backend's ``min_items`` floor), expansion fans out
    across the persistent worker pool; the result is bit-identical to
    the serial path.
    """
    check_positive("batch_slots", batch_slots)
    from repro.parallel.context import ExecutionContext, fits_int32

    ctx = ExecutionContext.ensure(ctx)
    out_dtype = ctx.edge_dtype(graph.num_edges)
    n = graph.num_vertices
    indptr, heads, slot_eids, tails = _degree_ordered_dag(graph)
    num_slots = heads.size
    outdeg = np.diff(indptr)
    # Per-batch index arithmetic runs in int32 when it holds every
    # vertex id, edge id + 1 and in-batch wedge offset.
    bound = max(n, num_slots + 1, batch_slots * int(outdeg.max(initial=0)))
    dt = np.dtype(np.int32 if fits_int32(bound) else np.int64)
    indptr, heads, slot_eids, tails, outdeg = (
        a.astype(dt, copy=False) for a in (indptr, heads, slot_eids, tails, outdeg)
    )
    slot_data = slot_eids + dt.type(1)  # 0 stays free for "no edge"

    # For each DAG edge (u, v) we may expand either N⁺(v) (testing w
    # against N⁺(u)) or N⁺(u) (testing against N⁺(v)); both find the same
    # triangle. Expanding the smaller list bounds the wedge blow-up at
    # high-degree hubs.
    expand_head = outdeg[heads] <= outdeg[tails]
    all_slots = np.arange(num_slots, dtype=dt)
    selections = [
        (all_slots[expand_head], True),
        (all_slots[~expand_head], False),
    ]

    from repro.parallel.shm import active_process_backend

    backend = active_process_backend(ctx, num_slots)
    if backend is not None:
        parts_uv, parts_uw, parts_vw = _enumerate_process(
            backend, ctx, indptr, heads, slot_eids, tails, outdeg,
            slot_data, selections, batch_slots,
        )
    else:
        dag = _dag_array(indptr, heads, slot_data)
        parts_uv, parts_uw, parts_vw = [], [], []
        for sel, from_head in selections:
            uv, uw, vw = _expand_selection(
                indptr, heads, slot_eids, tails, outdeg, dag,
                sel, from_head, batch_slots,
            )
            parts_uv.extend(uv)
            parts_uw.extend(uw)
            parts_vw.extend(vw)

    e_uv = _cat(parts_uv).astype(out_dtype, copy=False)
    e_uw = _cat(parts_uw).astype(out_dtype, copy=False)
    e_vw = _cat(parts_vw).astype(out_dtype, copy=False)
    if e_uv.size == 0:
        e_uv = e_uw = e_vw = np.empty(0, dtype=out_dtype)
    result = TriangleSet(e_uv=e_uv, e_uw=e_uw, e_vw=e_vw, num_edges=graph.num_edges)
    metrics.inc("repro.triangles.enumerated", result.count)
    metrics.inc("repro.triangles.enumerations")
    return result
