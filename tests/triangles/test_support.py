"""Unit tests for support computation and the incidence structure."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, build_graph
from repro.graph.generators import complete_graph, erdos_renyi_gnm, paper_example_graph
from repro.parallel import ExecutionContext
from repro.parallel.context import region_spans
from repro.triangles import (
    EdgeTriangleIncidence,
    compute_support,
    enumerate_triangles,
    support_histogram,
)


def test_support_triangle_plus_tail():
    g = build_graph([0, 0, 1, 2], [1, 2, 2, 3])
    sup = compute_support(g)
    tail = g.edges.edge_id(2, 3)
    assert sup[tail] == 0
    for e in range(g.num_edges):
        if e != tail:
            assert sup[e] == 1


def test_support_complete_graph():
    g = CSRGraph.from_edgelist(complete_graph(6))
    sup = compute_support(g)
    assert np.all(sup == 4)  # each edge of K6 is in n-2 triangles


def test_support_records_trace_region():
    g = CSRGraph.from_edgelist(complete_graph(5))
    ctx = ExecutionContext()
    compute_support(g, ctx=ctx)
    names = [r.name for r in region_spans(ctx.tracer)]
    assert names == ["Support"]


def test_support_reuses_triangles():
    g = CSRGraph.from_edgelist(complete_graph(5))
    tri = enumerate_triangles(g)
    assert np.array_equal(compute_support(g, triangles=tri), tri.support())


def test_support_histogram():
    g = build_graph([0, 0, 1, 2], [1, 2, 2, 3])
    hist = support_histogram(compute_support(g))
    assert hist.tolist() == [1, 3]
    assert support_histogram(np.empty(0, dtype=np.int64)).tolist() == [0]


def test_incidence_matches_support():
    g = CSRGraph.from_edgelist(erdos_renyi_gnm(40, 180, seed=4))
    tri = enumerate_triangles(g)
    inc = EdgeTriangleIncidence(tri)
    assert np.array_equal(inc.degree(), tri.support())
    # each triangle appears exactly once in each member edge's list
    for e in range(g.num_edges):
        tids = inc.triangles_of(e)
        assert np.unique(tids).size == tids.size
        for t in tids.tolist():
            assert e in tri.as_matrix()[t]


def test_incidence_partners():
    g = CSRGraph.from_edgelist(complete_graph(4))
    tri = enumerate_triangles(g)
    inc = EdgeTriangleIncidence(tri)
    eids = np.concatenate([tri.e_uv, tri.e_uw, tri.e_vw])
    tids = np.concatenate([np.arange(tri.count)] * 3)
    p1, p2 = inc.partners(eids, tids)
    mat = tri.as_matrix()
    for i in range(eids.size):
        row = set(mat[tids[i]].tolist())
        assert {int(eids[i]), int(p1[i]), int(p2[i])} == row
        assert int(p1[i]) != int(eids[i]) and int(p2[i]) != int(eids[i])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_support_sums_to_3T(seed):
    g = CSRGraph.from_edgelist(erdos_renyi_gnm(20, 60, seed=seed))
    tri = enumerate_triangles(g)
    assert int(tri.support().sum()) == 3 * tri.count


def test_paper_example_support():
    g = CSRGraph.from_edgelist(paper_example_graph())
    sup = compute_support(g)
    # (0,4) closes only triangle (0,3,4)
    assert sup[g.edges.edge_id(0, 4)] == 1
    # (9,10) inside K5: 3 triangles
    assert sup[g.edges.edge_id(9, 10)] == 3


def test_support_optional_dtype_identical_counts():
    import numpy as np

    from repro.graph import CSRGraph
    from repro.graph.generators import erdos_renyi_gnm
    from repro.parallel.context import ExecutionContext
    from repro.triangles.enumerate import enumerate_triangles
    from repro.triangles.support import compute_support

    g = CSRGraph.from_edgelist(erdos_renyi_gnm(150, 900, seed=3))
    tris = enumerate_triangles(g)
    ref = tris.support()
    assert ref.dtype == np.int64
    narrow = tris.support(dtype=np.int32)
    assert narrow.dtype == np.int32
    assert np.array_equal(narrow, ref)
    # the auto dtype policy narrows compute_support on small graphs
    auto = compute_support(g, triangles=tris, ctx=ExecutionContext(dtype="auto"))
    assert auto.dtype == np.int32
    assert np.array_equal(auto, ref)
    wide = compute_support(g, triangles=tris, ctx=ExecutionContext(dtype="int64"))
    assert wide.dtype == np.int64
