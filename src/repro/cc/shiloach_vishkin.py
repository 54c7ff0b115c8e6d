"""Shiloach–Vishkin connected components [39] on vertex graphs.

The prior state-of-the-art CC the paper's *Baseline* and *C-Optimal*
EquiTruss variants build on: alternating hooking and shortcut phases,
O(log n) rounds, work-efficient independently of graph diameter.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.obs import metrics
from repro.parallel.context import ExecutionContext
from repro.cc.core import minlabel_hook_rounds


def shiloach_vishkin(
    graph: CSRGraph,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """Component label per vertex (the minimum vertex id of its component).

    Records one ``SV`` region in the context trace; work = edges scanned
    per hooking round, rounds = hooking iterations.
    """
    ctx = ExecutionContext.ensure(ctx)
    comp = np.arange(graph.num_vertices, dtype=np.int64)
    with ctx.region("SV", work=0, rounds=0, intensity="memory"):
        rounds = minlabel_hook_rounds(comp, graph.edges.u, graph.edges.v, ctx=ctx)
    metrics.inc("repro.cc.sv_rounds", rounds)
    return comp
