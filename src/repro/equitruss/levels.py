"""Per-trussness-level structures derived from triangles + trussness.

The edge-induced graph of the paper's key observation is materialized
here. For a triangle with edge trussness values (τa, τb, τc) and
minimum κ = min(τa, τb, τc):

* every pair of member edges whose trussness both equal κ is a *hook
  pair* at level κ — the two edges are κ-triangle-connected inside the
  maximal κ-truss (the third edge has τ ≥ κ by construction), so the
  supernode CC must union them (Definition 8);
* every member edge with τ > κ contributes a *superedge candidate*
  (low = a κ edge of the triangle, high = the τ > κ edge), matching
  Algorithm 3's "create superedge downward" rule (Definition 9).

Pairs whose trussness values are equal but above the triangle minimum do
**not** hook: the triangle is absent from their maximal k-truss, exactly
the τ(u,w) ≥ k ∧ τ(v,w) ≥ k guard of Algorithm 1 line 21.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError
from repro.triangles.enumerate import TriangleSet
from repro.utils.sorting import group_by


@dataclass(frozen=True)
class LevelStructures:
    """Hook pairs and superedge candidates grouped by trussness level.

    ``hook_a/hook_b/hook_k`` are parallel arrays sorted by ``hook_k``
    (the triangle minimum κ). ``se_lo/se_hi/se_k`` hold superedge
    candidates: ``lo`` is an edge at the triangle minimum, ``hi`` the
    edge with larger trussness, and ``se_k = τ(hi)`` — the level at
    which Algorithm 3 emits the superedge (iterating e ∈ Φ_k and linking
    *downward*), by which time both endpoints' components are settled.
    ``levels`` holds the ascending distinct populated trussness values.
    """

    hook_a: np.ndarray
    hook_b: np.ndarray
    hook_k: np.ndarray
    se_lo: np.ndarray
    se_hi: np.ndarray
    se_k: np.ndarray
    levels: np.ndarray
    #: optional edge-graph CSR (indptr over all edge ids, neighbor edge
    #: ids) — since hook pairs join only equal-trussness edges, this is
    #: the disjoint union of every level's edge graph. Built when the
    #: Afforest variant asks for it.
    adj_indptr: np.ndarray | None = None
    adj_neighbors: np.ndarray | None = None

    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self.adj_indptr is None or self.adj_neighbors is None:
            raise InvalidParameterError(
                "level structures were built without adjacency "
                "(pass with_adjacency=True)"
            )
        return self.adj_indptr, self.adj_neighbors

    def hook_pairs(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = _bounds(self.hook_k, k)
        return self.hook_a[lo:hi], self.hook_b[lo:hi]

    def superedge_candidates(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = _bounds(self.se_k, k)
        return self.se_lo[lo:hi], self.se_hi[lo:hi]

    @property
    def num_hook_pairs(self) -> int:
        return self.hook_a.size

    @property
    def num_superedge_candidates(self) -> int:
        return self.se_lo.size

    @property
    def nbytes(self) -> int:
        """Bytes held by all level tables (and the adjacency, if built)."""
        from repro.parallel.context import array_nbytes

        return array_nbytes(
            self.hook_a,
            self.hook_b,
            self.hook_k,
            self.se_lo,
            self.se_hi,
            self.se_k,
            self.levels,
            self.adj_indptr,
            self.adj_neighbors,
        )


def _bounds(sorted_k: np.ndarray, k: int) -> tuple[int, int]:
    lo = int(np.searchsorted(sorted_k, k, side="left"))
    hi = int(np.searchsorted(sorted_k, k, side="right"))
    return lo, hi


def _cat(parts: list) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _triangle_columns(
    triangles: TriangleSet, trussness: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Columnar raw level tables: the fused Init's working layout.

    Returns ``(hook_a, hook_b, hook_k, se_lo, se_hi, se_k, kmin)`` as
    flat arrays: the edge-id columns in the triangles' dtype, the three
    trussness columns in the smallest unsigned dtype that holds kmax,
    the dtype the gathers, compares and compressions run in (callers
    widen what they publish). Same element sequences as the stacked
    :func:`triangle_tables` columns — part order and in-part order are
    identical — but built column-wise: the three ``τ == κ`` masks are
    computed once and reused (``τ > κ`` is their complement, since
    ``τ ≥ κ`` by construction), and no (N, 3) row-major intermediate is
    ever materialized, so the later per-level sort can take each column
    with a cheap 1-D gather instead of reordering packed rows.
    """
    if trussness.shape[0] != triangles.num_edges:
        raise InvalidParameterError("trussness length must equal num_edges")
    sides = (triangles.e_uv, triangles.e_uw, triangles.e_vw)
    kmax = int(trussness.max()) if trussness.size else 0
    narrow = trussness.astype(np.min_scalar_type(kmax))
    taus = tuple(narrow[s] for s in sides)
    kmin = np.minimum(np.minimum(taus[0], taus[1]), taus[2])
    at_min = tuple(t == kmin for t in taus)

    # each selection is taken as positions once: three gathers read it,
    # and an integer gather is cheaper than a boolean-mask one
    hook_a, hook_b, hook_k = [], [], []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        pos = np.flatnonzero(at_min[i] & at_min[j])
        if pos.size:
            hook_a.append(sides[i][pos])
            hook_b.append(sides[j][pos])
            hook_k.append(kmin[pos])

    se_lo, se_hi, se_k = [], [], []
    for hi_ix in range(3):
        above = ~at_min[hi_ix]
        if not above.any():
            continue
        # pick a representative κ-edge of the triangle as the low endpoint;
        # when two sides sit at κ both are emitted (they land in the same
        # supernode, so the superedge dedups — same as Algorithm 3).
        for lo_ix in range(3):
            if lo_ix == hi_ix:
                continue
            pos = np.flatnonzero(above & at_min[lo_ix])
            if pos.size:
                se_lo.append(sides[lo_ix][pos])
                se_hi.append(sides[hi_ix][pos])
                se_k.append(taus[hi_ix][pos])
    columns = []
    for parts in (hook_a, hook_b, hook_k, se_lo, se_hi, se_k):
        columns.append(_cat(parts))
        parts.clear()  # free a column's pieces once it is joined
    return (*columns, kmin)


def triangle_tables(
    triangles: TriangleSet, trussness: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (unsorted) hook pairs, superedge candidates, and triangle minima.

    Returns ``(hooks, ses, kmin)`` where ``hooks`` is ``int64[H, 3]``
    columns (a, b, κ), ``ses`` is ``int64[S, 3]`` columns
    (lo, hi, τ(hi)), and ``kmin`` the per-triangle minimum trussness.
    Exposed separately so the Baseline variant can re-derive pairs per
    round, as Algorithm 2 re-computes common neighbors inside its
    hooking loop. This is a stacking view over the columnar
    :func:`_triangle_columns` builder, which the build pipeline uses
    directly to avoid the (N, 3) packing.
    """
    ha, hb, hk, slo, shi, sk, kmin = _triangle_columns(triangles, trussness)
    wide = trussness.dtype
    hooks = np.stack([ha, hb, hk.astype(wide)], axis=1) if ha.size else np.empty(
        (0, 3), dtype=np.int64
    )
    ses = np.stack([slo, shi, sk.astype(wide)], axis=1) if slo.size else np.empty(
        (0, 3), dtype=np.int64
    )
    return hooks, ses, kmin.astype(wide)


def build_level_structures(
    triangles: TriangleSet,
    trussness: np.ndarray,
    with_adjacency: bool = False,
    ctx=None,
) -> LevelStructures:
    """Sort and group the raw tables by level (the C-Optimal layout).

    Hook pairs are grouped by ``hook_k`` and superedge candidates by
    ``se_k`` with :func:`~repro.utils.sorting.group_by`, a counting
    sort over the kmax + 1 trussness values that keeps the raw table
    order within a level. ``levels`` is read off one table of kmax + 1
    flags: the populated trussness values ≥ 3 and every hook or
    candidate level.

    ``with_adjacency=True`` additionally materializes the edge-graph CSR
    for Afforest's neighbor sampling. With a ``ctx`` whose dtype policy
    narrows, the edge-id columns (the dominant tables) are stored in the
    context's edge dtype; the ``k`` columns keep the trussness dtype
    (trussness values are tiny either way and compare against Python
    ints).
    """
    ha, hb, hk, slo, shi, sk = _triangle_columns(triangles, trussness)[:6]
    present = np.bincount(trussness, minlength=3) > 0
    present[:3] = False
    # a grouped k column is each level repeated by its count: no gather
    ks = np.arange(present.size, dtype=trussness.dtype)
    order, offsets = group_by(hk, present.size)
    ha, hb = ha[order], hb[order]
    counts = np.diff(offsets)
    hk = np.repeat(ks, counts)
    present |= counts > 0
    order, offsets = group_by(sk, present.size)
    slo, shi = slo[order], shi[order]
    counts = np.diff(offsets)
    sk = np.repeat(ks, counts)
    present |= counts > 0
    del order, offsets, counts
    levels = np.flatnonzero(present)
    if ctx is not None:
        from repro.parallel.context import ExecutionContext

        edge_dt = ExecutionContext.ensure(ctx).edge_dtype(triangles.num_edges)
    else:
        edge_dt = np.dtype(np.int64)
    adj_indptr = adj_neighbors = None
    if with_adjacency:
        from repro.cc.core import pairs_to_csr

        # indptr values reach 2·|hooks|; neighbors hold edge ids < m.
        if ctx is not None:
            from repro.parallel.context import ExecutionContext

            adj_dt = ExecutionContext.ensure(ctx).dtype.resolve(
                max(triangles.num_edges, 2 * int(ha.size), 1)
            )
        else:
            adj_dt = np.dtype(np.int64)
        adj_indptr, adj_neighbors = pairs_to_csr(
            triangles.num_edges, ha, hb, index_dtype=adj_dt
        )
    return LevelStructures(
        hook_a=np.ascontiguousarray(ha, dtype=edge_dt),
        hook_b=np.ascontiguousarray(hb, dtype=edge_dt),
        hook_k=np.ascontiguousarray(hk),
        se_lo=np.ascontiguousarray(slo, dtype=edge_dt),
        se_hi=np.ascontiguousarray(shi, dtype=edge_dt),
        se_k=np.ascontiguousarray(sk),
        levels=levels,
        adj_indptr=adj_indptr,
        adj_neighbors=adj_neighbors,
    )

