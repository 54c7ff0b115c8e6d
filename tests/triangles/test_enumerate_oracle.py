"""``enumerate_triangles`` equals the keyed-``searchsorted`` expansion.

All three edge-id columns must match the oracle element for element,
order included, on the serial backend and fanned out over the process
pool, at the default batch size and at ``batch_slots=7`` (small batches
take scipy's per-row linear scan instead of its binary search).
"""

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.generators import complete_graph, erdos_renyi_gnm, rmat_graph, star_graph
from repro.parallel.context import ExecutionContext
from repro.parallel.shm import ProcessBackend, process_backend_available
from repro.triangles import enumerate as enum_mod
from repro.triangles.enumerate import enumerate_triangles

from tests.triangles.searchsorted_oracle import searchsorted_triangles

#: vertex count whose squared key space exceeds int32 (70000² ≈ 4.9e9)
WIDE_N = 70_000


def _wide_sparse() -> CSRGraph:
    """A sparse 70000-vertex graph with a clique at the top of the id range."""
    base = erdos_renyi_gnm(WIDE_N, 60_000, seed=4)
    clique = complete_graph(12)
    u = np.concatenate([base.u, clique.u + WIDE_N - 12])
    v = np.concatenate([base.v, clique.v + WIDE_N - 12])
    return CSRGraph.from_edgelist(EdgeList(u, v, num_vertices=WIDE_N))


GRAPHS = {
    "rmat": lambda: CSRGraph.from_edgelist(rmat_graph(9, 8, seed=5)),
    "wide_sparse": _wide_sparse,
    "star": lambda: CSRGraph.from_edgelist(star_graph(50)),
    "empty": lambda: CSRGraph.from_edgelist(EdgeList(np.empty(0), np.empty(0), num_vertices=0)),
}


def _check(graph, ctx, batch_slots):
    want = searchsorted_triangles(graph)
    tri = enumerate_triangles(graph, batch_slots=batch_slots, ctx=ctx)
    for got, ref in zip((tri.e_uv, tri.e_uw, tri.e_vw), want):
        assert np.array_equal(got, ref)
    return tri


@pytest.mark.parametrize("batch_slots", [1 << 18, 7])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_serial_matches_searchsorted_oracle(name, batch_slots):
    tri = _check(GRAPHS[name](), ExecutionContext(backend="serial"), batch_slots)
    if name in ("rmat", "wide_sparse"):
        assert tri.count > 0


@pytest.mark.process_backend
@pytest.mark.skipif(
    not process_backend_available(),
    reason="fork or POSIX shared memory unavailable",
)
@pytest.mark.parametrize("batch_slots", [1 << 18, 7])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_process_matches_searchsorted_oracle(name, batch_slots):
    ctx = ExecutionContext(backend=ProcessBackend(min_items=0), num_workers=3)
    try:
        _check(GRAPHS[name](), ctx, batch_slots)
    finally:
        ctx.close()


def test_wide_vertex_range_keeps_int32_arithmetic(monkeypatch):
    # n² > 2³¹ no longer forces int64: the lookup needs no u·n + v keys
    seen = []
    real = enum_mod._expand_selection

    def spy(indptr, heads, slot_eids, *args):
        seen.append((heads.dtype, slot_eids.dtype))
        return real(indptr, heads, slot_eids, *args)

    monkeypatch.setattr(enum_mod, "_expand_selection", spy)
    graph = _wide_sparse()
    assert graph.num_vertices ** 2 > np.iinfo(np.int32).max
    _check(graph, ExecutionContext(backend="serial"), 1 << 18)
    assert seen and all(dts == (np.dtype(np.int32),) * 2 for dts in seen)


def test_default_context_uses_auto_dtype_policy():
    graph = CSRGraph.from_edgelist(rmat_graph(8, 6, seed=3))
    assert graph.index_dtype == np.dtype(np.int64)
    tri = enumerate_triangles(graph)
    # as every other kernel: no ctx means ExecutionContext.ensure(None)
    assert tri.e_uv.dtype == ExecutionContext().edge_dtype(graph.num_edges)
    assert tri.e_uv.dtype == np.dtype(np.int32)
