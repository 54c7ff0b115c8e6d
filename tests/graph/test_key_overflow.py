"""Regression tests for the u·N + v key overflow past ~46341 vertices.

``u * num_vertices + v`` wraps an int32 once ``N² > 2³¹`` even when
every vertex id comfortably fits int32 — so an int32-indexed graph over
70000 vertices must still compute its keyed searchsorted lookups in
int64. These tests pin the fixed behavior of ``CSRGraph.edge_key_of`` /
``locate_slots`` at exactly such a vertex count.
"""

import numpy as np

from repro.graph import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.parallel import DtypePolicy, ExecutionContext
from tests.graph.keyed_oracle import keyed_csr

I32_MAX = np.iinfo(np.int32).max

#: vertex count whose squared key space exceeds int32 (70000² ≈ 4.9e9)
N = 70_000


def _high_id_graph(index_dtype=None, ctx=None) -> CSRGraph:
    """A tiny graph living at the top of a 70000-vertex id space.

    One triangle among the three highest ids plus a long chord from
    vertex 0 — every keyed lookup on the triangle computes products
    beyond int32 range.
    """
    a, b, c = N - 3, N - 2, N - 1
    u = np.array([0, a, a, b])
    v = np.array([a, b, c, c])
    edges = EdgeList(u, v, num_vertices=N)
    return CSRGraph.from_edgelist(edges, ctx=ctx, index_dtype=index_dtype)


def test_int32_graph_gets_int64_keys():
    g = _high_id_graph(index_dtype=np.int32)
    assert g.index_dtype == np.dtype(np.int32)  # ids fit
    assert g.key_dtype == np.dtype(np.int64)    # products do not
    assert g.slot_keys.dtype == np.dtype(np.int64)
    # the keys really are beyond int32 range — the overflow is latent,
    # not hypothetical
    assert int(g.slot_keys.max()) > I32_MAX


def test_edge_key_of_widens_before_multiplying():
    g = _high_id_graph(index_dtype=np.int32)
    a, b = N - 3, N - 2
    key = g.edge_key_of(np.array([a], dtype=np.int32), np.array([b], dtype=np.int32))
    assert key.dtype == np.dtype(np.int64)
    assert int(key[0]) == a * N + b  # exact, no wraparound


def test_locate_slots_correct_past_int32_key_range():
    g = _high_id_graph(index_dtype=np.int32)
    a, b, c = N - 3, N - 2, N - 1
    us = np.array([a, a, b, 0, a, b, 0])
    ws = np.array([b, c, c, a, 0, a, 1])
    present = g.has_edges(us, ws)
    assert present.tolist() == [True, True, True, True, True, True, False]
    slots = g.locate_slots(us[:4], ws[:4])
    assert np.all(slots >= 0)
    # slots resolve to the canonical edge ids: edges sorted by (u, v) are
    # (0,a)=0, (a,b)=1, (a,c)=2, (b,c)=3
    assert g.edge_ids[slots].tolist() == [1, 2, 3, 0]


def test_triangle_pipeline_exact_on_high_id_graph():
    from repro.equitruss import build_index, equitruss_serial
    from repro.triangles import enumerate_triangles

    for dtype_policy in ("auto", "int64"):
        ctx = ExecutionContext(dtype=dtype_policy)
        g = _high_id_graph(ctx=ctx)
        tri = enumerate_triangles(g, ctx=ctx)
        assert tri.count == 1  # exactly the {a, b, c} triangle
        idx = build_index(g, "coptimal", ctx=ctx).index
        assert idx == equitruss_serial(g)


def test_fused_build_matches_keyed_past_int32():
    """The fused single-pass Init and the legacy keyed build agree at a
    vertex count whose key space exceeds int32 (both int64-guarded)."""
    for dt in (np.int32, np.int64):
        g = _high_id_graph(index_dtype=dt)
        ref = keyed_csr(g.edges, index_dtype=dt)
        assert np.array_equal(np.asarray(g.indptr), np.asarray(ref.indptr))
        assert np.array_equal(np.asarray(g.indices), np.asarray(ref.indices))
        assert np.array_equal(np.asarray(g.edge_ids), np.asarray(ref.edge_ids))


def test_auto_policy_resolves_int32_indices_int64_keys():
    policy = DtypePolicy("auto")
    assert policy.resolve(N) == np.dtype(np.int32)
    assert policy.key_dtype(N) == np.dtype(np.int64)
    ctx = ExecutionContext(dtype="auto")
    g = _high_id_graph(ctx=ctx)
    assert g.index_dtype == np.dtype(np.int32)
    assert g.key_dtype == np.dtype(np.int64)
