"""Generic vectorized cores shared by all CC algorithms.

The CRCW PRAM writes of Shiloach–Vishkin ("benign races" in the paper's
§3.1) are emulated deterministically: concurrent hooking attempts on the
same root become a single priority write via ``np.minimum.at``, which is
one legal serialization of the racy OpenMP execution — the fixpoint (the
partition into components) is identical.

All entry points accept an optional
:class:`~repro.parallel.context.ExecutionContext`: round accounting goes
through ``ctx.add_round`` (targeting whatever region the caller has
open) and the per-round component gathers reuse the context's
:class:`~repro.parallel.context.Workspace` instead of allocating fresh
arrays every hooking round.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.parallel.context import ExecutionContext
from repro.utils.sorting import group_by, unique_sorted


def _ensure(ctx) -> ExecutionContext:
    return ExecutionContext.ensure(ctx)


def minlabel_hook_rounds(
    comp: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    ctx: ExecutionContext | None = None,
) -> int:
    """Run SV hooking + shortcut rounds to convergence over pairs (a, b).

    ``comp`` is modified in place; entries not touched by any pair are
    left alone, so a caller may run disjoint node subsets (the Φ_k levels
    of EquiTruss) against one global parent array. Each iteration does
    one hooking pass over all pairs (both directions, min-priority
    writes onto roots) followed by full pointer-jumping — the structure
    of Algorithm 2's hooking/shortcut phases. Returns the number of
    hooking rounds; per-round work is reported through ``ctx``.
    """
    if a.shape != b.shape:
        raise InvalidParameterError("hook pair arrays must have equal shape")
    rounds = 0
    if a.size == 0:
        return rounds
    ctx = _ensure(ctx)
    ws = ctx.workspace
    touched = unique_sorted(np.concatenate([a, b]))
    while True:
        rounds += 1
        ctx.add_round(2 * a.size)
        ca = ws.gather("cc.ca", comp, a)
        cb = ws.gather("cc.cb", comp, b)
        hook_b = (ca < cb) & (comp[cb] == cb)
        hook_a = (cb < ca) & (comp[ca] == ca)
        changed = bool(hook_b.any() or hook_a.any())
        if hook_b.any():
            np.minimum.at(comp, cb[hook_b], ca[hook_b])
        if hook_a.any():
            np.minimum.at(comp, ca[hook_a], cb[hook_a])
        compress(comp, touched, ctx=ctx)
        if not changed:
            break
    return rounds


def link_once(
    comp: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    nodes: np.ndarray,
    ctx: ExecutionContext | None = None,
) -> None:
    """One opportunistic hooking pass + compress (Afforest's ``link``).

    Unlike :func:`minlabel_hook_rounds` this does *not* iterate to
    convergence — Afforest's sampling phase is best-effort; correctness
    is restored by the finish phase, which processes every node outside
    the dominant component on its full adjacency.
    """
    if a.size == 0:
        return
    ctx = _ensure(ctx)
    ctx.add_round(2 * a.size)
    ws = ctx.workspace
    ca = ws.gather("cc.ca", comp, a)
    cb = ws.gather("cc.cb", comp, b)
    hook_b = (ca < cb) & (comp[cb] == cb)
    hook_a = (cb < ca) & (comp[ca] == ca)
    if hook_b.any():
        np.minimum.at(comp, cb[hook_b], ca[hook_b])
    if hook_a.any():
        np.minimum.at(comp, ca[hook_a], cb[hook_a])
    compress(comp, nodes, ctx=ctx)


def compress(
    comp: np.ndarray,
    nodes: np.ndarray | None = None,
    ctx: ExecutionContext | None = None,
) -> int:
    """Full pointer jumping until every node points at its root.

    Returns the number of jump rounds (the shortcut depth). With a
    context, the per-round ``comp`` gathers reuse workspace buffers.
    """
    rounds = 0
    ws = ctx.workspace if isinstance(ctx, ExecutionContext) else None
    if nodes is None:
        while True:
            nxt = comp[comp]
            if np.array_equal(nxt, comp):
                return rounds
            comp[:] = nxt
            rounds += 1
    while True:
        if ws is not None:
            cur = ws.gather("cc.jump_cur", comp, nodes)
            nxt = ws.gather("cc.jump_nxt", comp, cur)
        else:
            cur = comp[nodes]
            nxt = comp[cur]
        if np.array_equal(nxt, cur):
            return rounds
        comp[nodes] = nxt
        rounds += 1


def pairs_to_csr(num_nodes: int, a: np.ndarray, b: np.ndarray, index_dtype=None):
    """Symmetric CSR adjacency of an undirected pair list.

    Used to give the derived (edge-induced) graphs the neighbor-list
    shape Afforest's sampling needs. Returns ``(indptr, neighbors)``;
    ``index_dtype`` narrows both arrays (it must fit ``2 · |pairs|``).
    The 2·|pairs| directed entries are grouped by source node with
    :func:`~repro.utils.sorting.group_by`, so each node's neighbors
    keep the order in which the node appears in ``a`` then ``b``.
    """
    if a.shape != b.shape:
        raise InvalidParameterError("pair arrays must have equal shape")
    dt = np.dtype(index_dtype) if index_dtype is not None else np.dtype(np.int64)
    order, indptr = group_by(np.concatenate([a, b]), num_nodes)
    dst = np.concatenate([b, a]).astype(dt, copy=False)
    return indptr.astype(dt, copy=False), dst[order]


def normalize_labels(comp: np.ndarray) -> np.ndarray:
    """Relabel arbitrary component ids to dense 0..C-1 (stable order)."""
    _, dense = np.unique(comp, return_inverse=True)
    return dense.astype(np.int64)
