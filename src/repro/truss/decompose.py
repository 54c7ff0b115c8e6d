"""Truss decomposition by support peeling.

Both implementations compute, for every edge, the largest k such that
the edge belongs to a k-truss (trussness, τ). Peeling invariant: at
level k, repeatedly discard edges whose remaining support is below
k - 2; edges discarded at level k have τ = k - 1; edges never discarded
before the graph empties at level k have τ = k - 1 as well (assigned
when they are finally peeled).

``truss_decomposition`` is the vectorized level-synchronous variant
(each sub-round peels the whole frontier at once and cascades support
decrements through dying triangles — the PKT structure); ``*_serial``
is a pure-Python bucket-queue reference used for cross-validation.

Only the first scan of a level reads every edge: it finds the level's
initial frontier, and levels where it finds none are skipped in one
jump. After that the next frontier comes from the sub-round's own
decrements (PKT's curr/next frontier): the surviving sides of the dying
triangles are sorted once into distinct edge ids with counts, their
support drops by those counts, and the ids now below k - 2 are the next
frontier, already in ascending order. Under the process backend the
decrement counts fan out as privatized ``bincount`` rows (partition →
privatize → reduce), so ``trussness``, ``support`` and ``peel_rounds``
are bit-identical across backends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.obs import metrics
from repro.parallel.context import ExecutionContext
from repro.triangles.enumerate import TriangleSet, enumerate_triangles
from repro.triangles.incidence import EdgeTriangleIncidence
from repro.utils.sorting import unique_counts, unique_sorted

#: ``repro.truss.frontier_size`` histogram boundaries — frontier sizes
#: span "one straggler edge" to "most of the graph in one sub-round".
FRONTIER_SIZE_BOUNDARIES = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144)


@dataclass(frozen=True)
class TrussDecomposition:
    """Result of a truss decomposition.

    Attributes
    ----------
    trussness:
        ``int64[m]`` — τ(e) per edge id; 2 for triangle-free edges.
    support:
        ``int64[m]`` — initial (undamaged) support per edge.
    peel_rounds:
        Number of frontier sub-rounds the peeling took (the depth of the
        level-synchronous schedule).
    level_scans:
        Number of level-k full-edge frontier scans the outer loop
        performed (0 for the serial reference, which scans nothing).
    """

    trussness: np.ndarray
    support: np.ndarray
    peel_rounds: int
    level_scans: int = 0

    @property
    def num_edges(self) -> int:
        return self.trussness.size

    @property
    def kmax(self) -> int:
        """Largest trussness present (2 for triangle-free graphs)."""
        return int(self.trussness.max()) if self.trussness.size else 2

    def k_classes(self) -> np.ndarray:
        """Sorted distinct trussness values ≥ 3 (the Φ_k levels)."""
        ks = unique_sorted(self.trussness)
        return ks[ks >= 3]

    def phi(self, k: int) -> np.ndarray:
        """Edge ids of the Φ_k set (trussness exactly k)."""
        return np.flatnonzero(self.trussness == k)

    def truss_sizes(self) -> dict[int, int]:
        """Number of edges per trussness level ≥ 3."""
        return {int(k): int((self.trussness == k).sum()) for k in self.k_classes()}


def k_truss_edge_mask(decomp: TrussDecomposition, k: int) -> np.ndarray:
    """Boolean mask of edges in the maximal k-truss (τ(e) ≥ k)."""
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    return decomp.trussness >= k


def _w_decrement_partial(sides_h, lo: int, hi: int, m: int, out_h, row: int):
    """Process-pool worker: privatized decrement counts for one range."""
    from repro.parallel.shm import attach

    sides = attach(sides_h)
    out = attach(out_h)
    np.copyto(out[row], np.bincount(sides[lo:hi], minlength=m))
    # worker-attributed partial: summed across tasks this equals the
    # serial path's sides.size exactly
    metrics.inc("repro.truss.support_decrements", hi - lo)
    return hi - lo


def _fanout_counts(backend, ctx, sides: np.ndarray, ids: np.ndarray, m: int):
    """Decrement count of each id in ``ids`` (the distinct ``sides``),
    reduced from privatized per-worker ``bincount`` rows."""
    pool = backend.pool
    _, sides_h = pool.share("peel.sides", sides)
    ranges = ctx.partition_ranges(sides.size)
    partials, out_h = pool.take("peel.partials", (len(ranges), m), np.int64)
    backend.map_tasks(
        _w_decrement_partial,
        [(sides_h, lo, hi, m, out_h, row) for row, (lo, hi) in enumerate(ranges)],
        ctx=ctx,
        work=[hi - lo for lo, hi in ranges],
        kernel="SupportDecrement",
    )
    return partials[:, ids].sum(axis=0)


def truss_decomposition(
    graph: CSRGraph,
    triangles: TriangleSet | None = None,
    ctx: ExecutionContext | None = None,
) -> TrussDecomposition:
    """Vectorized level-synchronous truss decomposition.

    Each sub-round removes the entire current frontier (edges whose
    support dropped below k - 2), kills every triangle containing a
    removed edge, and decrements the support of the surviving member
    edges. The frontier rounds are the barrier-synchronized rounds
    recorded for the machine model.
    """
    from repro.parallel.shm import active_process_backend
    from repro.triangles.support import parallel_support

    ctx = ExecutionContext.ensure(ctx)
    if triangles is None:
        triangles = enumerate_triangles(graph, ctx=ctx)
    m = graph.num_edges
    with ctx.region("TrussDecomp", work=0, rounds=0, intensity="memory"):
        inc = EdgeTriangleIncidence(triangles, ctx=ctx)
        if active_process_backend(ctx, triangles.count) is None:  # serial
            metrics.inc("repro.triangles.support_updates", 3 * triangles.count)
            sup = inc.degree().astype(np.int64)  # row lengths = support
        else:
            sup = parallel_support(triangles, ctx, dtype=np.int64)
        support0 = sup.copy()
        tau = np.full(m, 2, dtype=np.int64)
        alive_e = np.ones(m, dtype=bool)
        alive_t = np.ones(triangles.count, dtype=bool)
        # the cascade gathers, sorts and filters edge ids every round:
        # run it in the narrowest edge-id dtype, whatever the triangles'
        edge_dt = ctx.edge_dtype(m)
        e_uv, e_uw, e_vw = (
            a.astype(edge_dt, copy=False)
            for a in (triangles.e_uv, triangles.e_uw, triangles.e_vw)
        )
        indptr, tri_ids = inc.indptr, inc.tri_ids

        backend = active_process_backend(ctx, m)

        def cascade(frontier: np.ndarray) -> np.ndarray:
            """Surviving member edges of triangles dying with ``frontier``.

            Triangles are touched with repetition when they lose 2–3
            edges at once; each dying triangle decrements each surviving
            member edge exactly once.
            """
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            # incidence slots of every frontier edge, one grouped arange
            # (offsets stay below 3t, so indptr's dtype holds them)
            ends = np.cumsum(counts, dtype=counts.dtype)
            pos = np.repeat(starts - (ends - counts), counts)
            pos += np.arange(pos.size, dtype=pos.dtype)
            touched = tri_ids[pos]
            dying = unique_sorted(touched[alive_t[touched]])
            alive_t[dying] = False
            sides = np.concatenate([e_uv[dying], e_uw[dying], e_vw[dying]])
            return sides[alive_e[sides]]

        def decrements(sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Sorted distinct ``sides`` and how often each occurs."""
            if backend is not None and sides.size >= backend.min_items:
                ids = unique_sorted(sides)
                return ids, _fanout_counts(backend, ctx, sides, ids, m)
            metrics.inc("repro.truss.support_decrements", sides.size)
            return unique_counts(sides)

        rounds = 0
        level_scans = 0
        k = 3
        remaining = m
        frontier_peak = 0
        while remaining > 0:
            level_scans += 1
            frontier = np.flatnonzero(alive_e & (sup < k - 2))
            if frontier.size == 0:
                # Skip empty levels: the next peel happens at the level
                # where the minimum surviving support s first satisfies
                # s < k - 2 — i.e. k = s + 3, assigning those edges
                # τ = s + 2. Incrementing k one level at a time here is
                # pure waste on graphs with large trussness gaps.
                s_min = int(sup[alive_e].min())
                k = max(k + 1, s_min + 3)
                continue
            while frontier.size:
                rounds += 1
                frontier_peak = max(frontier_peak, int(frontier.size))
                ctx.add_round(int(frontier.size))
                metrics.observe(
                    "repro.truss.frontier_size",
                    float(frontier.size),
                    boundaries=FRONTIER_SIZE_BOUNDARIES,
                )
                tau[frontier] = k - 1
                alive_e[frontier] = False
                remaining -= frontier.size
                sides = cascade(frontier)
                if not sides.size:
                    break  # no support changed: no new frontier edge
                ids, counts = decrements(sides)
                left = sup[ids] - counts
                sup[ids] = left
                # only an edge whose support just dropped can newly fall
                # below k - 2; ``ids`` is sorted, so this equals a rescan
                frontier = ids[left < k - 2]
            k += 1

    result = TrussDecomposition(
        trussness=tau, support=support0, peel_rounds=rounds, level_scans=level_scans
    )
    metrics.inc("repro.truss.peel_rounds", rounds)
    metrics.inc("repro.truss.level_scans", level_scans)
    metrics.set_gauge_max("repro.truss.frontier_peak", frontier_peak)
    metrics.set_gauge("repro.truss.kmax", result.kmax)
    return result


def truss_decomposition_serial(
    graph: CSRGraph, triangles: TriangleSet | None = None
) -> TrussDecomposition:
    """Pure-Python bucket-queue peeling (Cohen's algorithm), reference.

    Processes one minimum-support edge at a time; exact but slow — use
    only on small graphs and for cross-validation of the vectorized
    variant.
    """
    if triangles is None:
        triangles = enumerate_triangles(graph)
    m = graph.num_edges
    inc = EdgeTriangleIncidence(triangles)
    sup = triangles.support().astype(np.int64)
    support0 = sup.copy()
    tau = np.full(m, 2, dtype=np.int64)
    alive_e = np.ones(m, dtype=bool)
    alive_t = np.ones(triangles.count, dtype=bool)
    mat = triangles.as_matrix()

    max_sup = int(sup.max()) if m else 0
    buckets: list[list[int]] = [[] for _ in range(max_sup + 1)]
    for e in range(m):
        buckets[int(sup[e])].append(e)

    level = 0  # current peel level = k - 2
    processed = 0
    cursor = 0
    rounds = 0
    while processed < m:
        while cursor <= max_sup and not buckets[cursor]:
            cursor += 1
        e = buckets[cursor].pop()
        if not alive_e[e] or int(sup[e]) != cursor:
            continue  # stale bucket entry (support changed since insertion)
        rounds += 1
        level = max(level, cursor)
        tau[e] = level + 2
        alive_e[e] = False
        processed += 1
        for t in inc.triangles_of(e).tolist():
            if not alive_t[t]:
                continue
            alive_t[t] = False
            for other in mat[t].tolist():
                if other != e and alive_e[other]:
                    new_sup = int(sup[other]) - 1
                    sup[other] = new_sup
                    if new_sup >= 0:
                        buckets[new_sup].append(other)
                        if new_sup < cursor:
                            cursor = new_sup
    return TrussDecomposition(trussness=tau, support=support0, peel_rounds=rounds)
