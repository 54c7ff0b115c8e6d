"""End-to-end parallel EquiTruss pipeline (Algorithms 2 + 3 + 4).

``build_index`` runs the full kernel sequence with per-kernel
instrumentation::

    Support → TrussDecomp → Init → (SpNode → SpEdge) per level
            → SmGraph → SpNodeRemap

and returns the canonical :class:`EquiTrussIndex` plus the run's
tracer, whose region spans the benchmarks feed into the machine model.

Execution is configured by a single
:class:`~repro.parallel.context.ExecutionContext`: backend + workers,
the dtype policy that narrows every derived array to int32 when the
graph fits, and the scratch workspace the per-level loop reuses. After a
build the ``repro.mem.*`` gauges report the resident bytes of each major
structure plus the workspace high-water mark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.equitruss.index import EquiTrussIndex
from repro.equitruss.kernels import (
    INIT,
    KernelBreakdown,
    SM_GRAPH,
    SP_EDGE,
    SP_NODE,
    SP_NODE_REMAP,
    SUPPORT,
)
from repro.equitruss.levels import build_level_structures
from repro.equitruss.merge import generate_superedges, merge_supergraph
from repro.equitruss.variants import (
    spnode_afforest,
    spnode_baseline,
    spnode_coptimal,
)
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.obs import metrics
from repro.obs.trace import Tracer
from repro.parallel.context import ExecutionContext
from repro.triangles.enumerate import TriangleSet, enumerate_triangles
from repro.truss.decompose import TrussDecomposition, truss_decomposition
from repro.utils.sorting import group_by


@dataclass(frozen=True)
class VariantSpec:
    """Execution profile of one parallel EquiTruss variant."""

    name: str
    #: arithmetic-intensity class of the SpNode kernel for the machine
    #: model: Baseline's hash-probe-heavy rounds are compute-bound (they
    #: scale furthest — the paper's §4.3 observation), the optimized
    #: variants are progressively more bandwidth-bound.
    spnode_intensity: str
    description: str


VARIANTS: dict[str, VariantSpec] = {
    "baseline": VariantSpec(
        "baseline",
        "compute",
        "SV edge-CC, hash-map lookups, per-round triangle re-derivation",
    ),
    "coptimal": VariantSpec(
        "coptimal",
        "mixed",
        "SV edge-CC, contiguous buffers, prebuilt level tables, settled-pair skip",
    ),
    "afforest": VariantSpec(
        "afforest",
        "memory",
        "Afforest edge-CC with neighbor sampling and giant-component skip",
    ),
}


@dataclass
class BuildResult:
    """Index + span trace of one pipeline run."""

    index: EquiTrussIndex
    tracer: Tracer
    variant: str
    num_workers: int
    #: the context the build ran under (dtype policy, workspace, backend).
    ctx: ExecutionContext | None = None
    #: where the persistent store artifact landed (``store_path=`` runs).
    store_path: object | None = None

    @property
    def breakdown(self) -> KernelBreakdown:
        return KernelBreakdown.from_trace(self.tracer)

    @property
    def seconds(self) -> float:
        """Summed region seconds (the breakdown's total)."""
        return self.breakdown.total


def _publish_mem_gauges(
    graph: CSRGraph, triangles, levels, comp, ctx: ExecutionContext
) -> dict[str, int]:
    mem = {
        "repro.mem.graph_bytes": graph.nbytes,
        "repro.mem.triangles_bytes": triangles.nbytes if triangles is not None else 0,
        "repro.mem.levels_bytes": levels.nbytes if levels is not None else 0,
        "repro.mem.comp_bytes": int(comp.nbytes),
        "repro.mem.workspace_high_water": ctx.workspace.high_water,
    }
    shared_pool = ctx.shared_pool
    if shared_pool is not None:
        mem["repro.mem.shared_pool_high_water"] = shared_pool.high_water
    for name, value in mem.items():
        metrics.set_gauge(name, value)  # repro: allow(REP004) — keys above are literal
    return mem


def build_index(
    graph: CSRGraph,
    variant: str = "afforest",
    decomp: TrussDecomposition | None = None,
    triangles: TriangleSet | None = None,
    ctx: ExecutionContext | None = None,
    num_workers: int | None = None,
    neighbor_rounds: int = 2,
    seed: int = 0,
    *,
    store_path=None,
    store_generation: int = 1,
) -> BuildResult:
    """Construct the EquiTruss index with the chosen parallel variant.

    ``decomp``/``triangles`` may be passed to skip the prerequisite
    kernels (the paper's index-construction timings assume trussness is
    precomputed). All variants — and all dtype policies — return
    identical canonical indexes. ``num_workers`` defaults to the
    context's worker count.

    ``store_path`` additionally persists the result as a
    :mod:`repro.store` artifact (atomic swap; includes the precomputed
    serving component tables, so serving fleets attach in milliseconds
    instead of rebuilding). ``store_generation`` seeds the store's
    journal epoch — a rebuild swapping over a live store must pass a
    generation past every journal entry it absorbed.
    """
    if variant not in VARIANTS:
        raise InvalidParameterError(
            f"unknown variant {variant!r}; available: {sorted(VARIANTS)}"
        )
    spec = VARIANTS[variant]
    ctx = ExecutionContext.ensure(ctx)
    if num_workers is None:
        num_workers = ctx.num_workers
    edge_dt = ctx.edge_dtype(graph.num_edges)

    build_span = ctx.tracer.begin(
        "BuildIndex",
        variant=variant,
        num_workers=num_workers,
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        dtype=edge_dt.name,
    )
    levels = None
    try:
        # ----------------------------------------------------------- Support
        if triangles is None:
            with ctx.region(SUPPORT, work=graph.num_edges, intensity="mixed") as sp:
                triangles = enumerate_triangles(graph, ctx=ctx)
                sp.set(work=triangles.count)

        # ------------------------------------------------------- TrussDecomp
        if decomp is None:
            decomp = truss_decomposition(graph, triangles=triangles, ctx=ctx)
        tau = decomp.trussness

        # -------------------------------------------------------------- Init
        with ctx.region(INIT, work=graph.num_edges, intensity="memory") as sp:
            comp = np.arange(graph.num_edges, dtype=edge_dt)
            if variant == "baseline":
                # Baseline groups Φ_k sets only; triangle tables are
                # recomputed from the CSR when each level is processed.
                levels_arr = decomp.k_classes()
            else:
                levels = build_level_structures(
                    triangles, tau, with_adjacency=(variant == "afforest"), ctx=ctx
                )
                levels_arr = levels.levels
                sp.set(work=graph.num_edges + levels.num_hook_pairs)
                metrics.inc("repro.equitruss.hook_pairs", levels.num_hook_pairs)
        metrics.set_gauge("repro.equitruss.levels", int(levels_arr.size))

        # --------------------------------------------- per-level SpNode/SpEdge
        # edge ids grouped by trussness once: Φ_k is the ascending slice
        # by_tau[offsets[k]:offsets[k + 1]]
        by_tau, offsets = group_by(tau, decomp.kmax + 1)
        worker_subsets = None
        for k in levels_arr.tolist():
            phi_k = by_tau[offsets[k] : offsets[k + 1]]
            level_edges = int(phi_k.size)
            metrics.observe("repro.equitruss.level_edges", level_edges)
            with ctx.tracer.span("Level", k=int(k), edges=level_edges):
                ses_level: tuple[np.ndarray, np.ndarray] | None = None
                with ctx.region(
                    SP_NODE, work=0, rounds=0, intensity=spec.spnode_intensity
                ):
                    if variant == "baseline":
                        ses_level = spnode_baseline(comp, graph, tau, k, ctx=ctx)
                    elif variant == "coptimal":
                        spnode_coptimal(comp, levels, k, ctx=ctx)
                    else:
                        spnode_afforest(
                            comp,
                            levels,
                            k,
                            phi_nodes=phi_k,
                            neighbor_rounds=neighbor_rounds,
                            seed=seed,
                            ctx=ctx,
                        )
                with ctx.region(SP_EDGE, work=0, rounds=0, intensity="mixed"):
                    if ses_level is None:
                        ses_level = levels.superedge_candidates(k)
                    worker_subsets = generate_superedges(
                        comp, *ses_level, num_workers, worker_subsets, ctx=ctx
                    )
        # nothing below reads the level tables or the triangles: record
        # their sizes, then let them go (with the last level's views into
        # them) before SmGraph, SpNodeRemap and the store write
        mem = _publish_mem_gauges(graph, triangles, levels, comp, ctx)
        levels = triangles = ses_level = None

        # ----------------------------------------------------------- SmGraph
        with ctx.region(SM_GRAPH, work=0, rounds=0, intensity="memory"):
            raw_superedges = merge_supergraph(
                worker_subsets or [], num_workers, ctx=ctx
            )

        # ------------------------------------------------------- SpNodeRemap
        with ctx.region(SP_NODE_REMAP, work=graph.num_edges, intensity="memory"):
            index = EquiTrussIndex.from_parents(graph, tau, comp, raw_superedges)

        build_span.set(
            ws_peak=mem["repro.mem.workspace_high_water"],
            mem_bytes=sum(mem.values()),
        )
    finally:
        ctx.tracer.end(build_span)

    metrics.inc("repro.pipeline.builds")
    metrics.set_gauge("repro.equitruss.supernodes", index.num_supernodes)
    metrics.set_gauge("repro.equitruss.superedges", index.num_superedges)
    if store_path is not None:
        # persist with the serving tables precomputed: attach then skips
        # both the build *and* the component sweep
        from repro.serve.components import LevelComponents
        from repro.store.writer import write_store

        with ctx.region("StoreWrite", work=graph.num_edges, parallel=False):
            components = LevelComponents(index, ctx=ctx)
            store_path = write_store(
                index, store_path, components=components,
                generation=store_generation, ctx=ctx,
            )
    return BuildResult(
        index=index, tracer=ctx.tracer, variant=variant, num_workers=num_workers,
        ctx=ctx, store_path=store_path,
    )
