"""SpEdge and SmGraph kernels: superedge generation and merge.

``generate_superedges`` is Algorithm 3: for the level being processed,
each (lo, hi) candidate resolves to the component-root pair
(Π(lo), Π(hi)) and is appended to a worker-local subset (workers own
disjoint chunks, so no synchronization is needed — the paper's
``sp_edges[tid]`` vectors).

``merge_supergraph`` is Algorithm 4: every worker hashes its local
superedges to a destination partition, each partition is sorted and
deduplicated independently, and the partitions concatenate into the
final superedge list.

Pair keys (``lo · span + hi``) are always computed in int64 regardless
of the component array's dtype: with ``span ≈ m`` the product wraps an
int32 long before the ids themselves do (and NumPy's NEP 50 promotion
keeps ``int32_array * python_int`` at int32 — the cast must be
explicit).
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics
from repro.parallel.context import ExecutionContext
from repro.parallel.partition import block_ranges
from repro.utils.sorting import unique_sorted
from repro.utils.validation import check_positive


def _w_superedge_chunk(comp_h, lo_h, hi_h, lo: int, hi: int, span: int):
    """Process-pool worker: one worker's deduplicated root-pair chunk.

    ``span`` is the coordinator-chosen key stride (``comp.size``, an
    upper bound on every root id). The encode/decode round trip is
    span-invariant for any span greater than the largest root, so the
    decoded pairs match the serial path bit for bit even though the
    serial path uses the data-dependent ``max + 1``.
    """
    from repro.parallel.shm import attach, export_array

    comp = attach(comp_h)
    a = comp[attach(lo_h)[lo:hi]]
    b = comp[attach(hi_h)[lo:hi]]
    keys = np.minimum(a, b).astype(np.int64) * span + np.maximum(a, b)
    local = unique_sorted(keys)  # the thread-local set
    # worker-attributed partial: summed across tasks this equals the
    # serial path's se_lo.size exactly
    metrics.inc("repro.equitruss.superedge_candidates", hi - lo)
    return export_array(np.stack([local // span, local % span], axis=1))


def generate_superedges(
    comp: np.ndarray,
    se_lo: np.ndarray,
    se_hi: np.ndarray,
    num_workers: int = 1,
    worker_subsets: list[list[np.ndarray]] | None = None,
    ctx: ExecutionContext | None = None,
) -> list[list[np.ndarray]]:
    """Resolve candidates to root pairs, appended per worker (Algorithm 3).

    Each worker owns a contiguous chunk of the candidates and inserts
    into its local ``set`` — duplicates within a worker's chunk collapse
    at insertion time, exactly like the paper's
    ``vector<set<compID1, compID2>>``. Returns ``worker_subsets`` — one
    list of (n_i, 2) deduplicated arrays per worker — creating it on
    first call so per-level invocations accumulate.
    """
    check_positive("num_workers", num_workers)
    ctx = ExecutionContext.ensure(ctx)
    if worker_subsets is None:
        worker_subsets = [[] for _ in range(num_workers)]
    ctx.add_round(max(int(se_lo.size), 1))
    if se_lo.size == 0:
        return worker_subsets

    from repro.parallel.shm import active_process_backend, import_array

    backend = active_process_backend(ctx, se_lo.size)
    if backend is not None:
        pool = backend.pool
        comp_h = pool.share("se.comp", comp)[1]
        cand_lo_h = pool.share("se.cand_lo", se_lo)[1]
        cand_hi_h = pool.share("se.cand_hi", se_hi)[1]
        span = comp.size  # span-invariant stride, > every root id
        tids, tasks = [], []
        for tid, (lo, hi) in enumerate(block_ranges(se_lo.size, num_workers)):
            if hi > lo:
                tids.append(tid)
                tasks.append((comp_h, cand_lo_h, cand_hi_h, lo, hi, span))
        handles = backend.map_tasks(
            _w_superedge_chunk,
            tasks,
            ctx=ctx,
            work=[t[4] - t[3] for t in tasks],
            kernel="SpEdge",
        )
        for tid, h in zip(tids, handles):
            worker_subsets[tid].append(import_array(h))
        return worker_subsets

    metrics.inc("repro.equitruss.superedge_candidates", int(se_lo.size))
    ws = ctx.workspace
    a = ws.gather("se.a", comp, se_lo)
    b = ws.gather("se.b", comp, se_hi)
    lo_id = ws.take("se.lo", a.size, comp.dtype)
    hi_id = ws.take("se.hi", a.size, comp.dtype)
    np.minimum(a, b, out=lo_id)
    np.maximum(a, b, out=hi_id)
    span = int(hi_id.max()) + 1
    keys = lo_id.astype(np.int64) * span + hi_id
    for tid, (lo, hi) in enumerate(block_ranges(keys.size, num_workers)):
        if hi > lo:
            local = unique_sorted(keys[lo:hi])  # the thread-local set
            worker_subsets[tid].append(
                np.stack([local // span, local % span], axis=1)
            )
    return worker_subsets


def merge_supergraph(
    worker_subsets: list[list[np.ndarray]],
    num_workers: int | None = None,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """Hash-partitioned duplicate-free merge (Algorithm 4).

    Returns the final ``int64[SE, 2]`` root-pair array, sorted by the
    canonical (min, max) key.
    """
    num_workers = num_workers or max(len(worker_subsets), 1)
    ctx = ExecutionContext.ensure(ctx)
    locals_: list[np.ndarray] = []
    for subset in worker_subsets:
        if subset:
            locals_.append(np.concatenate(subset))
    if not locals_:
        return np.empty((0, 2), dtype=np.int64)
    all_pairs = np.concatenate(locals_)
    lo = np.minimum(all_pairs[:, 0], all_pairs[:, 1]).astype(np.int64)
    hi = np.maximum(all_pairs[:, 0], all_pairs[:, 1]).astype(np.int64)
    span = int(hi.max()) + 1 if hi.size else 1
    keys = lo * np.int64(span) + hi
    ctx.add_round(int(keys.size))
    # hash-partition by destination worker; each partition dedups locally
    dest = keys % num_workers
    merged_parts: list[np.ndarray] = []
    for t in range(num_workers):
        part = keys[dest == t]
        if part.size:
            merged_parts.append(unique_sorted(part))
    if not merged_parts:
        return np.empty((0, 2), dtype=np.int64)
    final_keys = np.sort(np.concatenate(merged_parts))
    return np.stack([final_keys // span, final_keys % span], axis=1)
