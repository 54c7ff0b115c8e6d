"""Unit + property tests for truss decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, build_graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_gnm,
    paper_example_graph,
    path_graph,
    planted_community_graph,
    rmat_graph,
)
from repro.errors import InvalidParameterError
from repro.parallel import ExecutionContext
from repro.parallel.context import region_spans
from repro.truss import (
    k_truss_edge_mask,
    truss_decomposition,
    truss_decomposition_serial,
)
from repro.truss.verify import trussness_brute_force


def graph_of(edges):
    return CSRGraph.from_edgelist(edges)


def test_triangle_free_graphs_all_tau2():
    for edges in (path_graph(8), cycle_graph(8)):
        d = truss_decomposition(graph_of(edges))
        assert np.all(d.trussness == 2)
        assert d.kmax == 2
        assert d.k_classes().size == 0


def test_complete_graph_trussness():
    for n in (3, 4, 5, 6, 8):
        d = truss_decomposition(graph_of(complete_graph(n)))
        assert np.all(d.trussness == n)


def test_single_triangle_with_tail():
    g = build_graph([0, 0, 1, 2], [1, 2, 2, 3])
    d = truss_decomposition(g)
    tail = g.edges.edge_id(2, 3)
    assert d.trussness[tail] == 2
    for e in range(4):
        if e != tail:
            assert d.trussness[e] == 3


def test_paper_example_trussness():
    """Figure 3a publishes the trussness of all 27 edges."""
    from repro.graph.generators import PAPER_EXAMPLE_SUPERNODES

    g = graph_of(paper_example_graph())
    d = truss_decomposition(g)
    for _, (k, edge_set) in PAPER_EXAMPLE_SUPERNODES.items():
        for (a, b) in edge_set:
            assert d.trussness[g.edges.edge_id(a, b)] == k, (a, b, k)


def test_serial_matches_vectorized_random():
    for seed in range(5):
        g = graph_of(erdos_renyi_gnm(30, 140, seed=seed))
        a = truss_decomposition(g)
        b = truss_decomposition_serial(g)
        assert np.array_equal(a.trussness, b.trussness)
        assert np.array_equal(a.support, b.support)


def test_matches_brute_force_small():
    g = graph_of(erdos_renyi_gnm(14, 45, seed=1))
    d = truss_decomposition(g)
    assert np.array_equal(d.trussness, trussness_brute_force(g))


def test_matches_networkx_k_truss():
    nx = pytest.importorskip("networkx")
    g = graph_of(rmat_graph(7, 6, seed=9))
    d = truss_decomposition(g)
    nxg = g.to_networkx()
    for k in d.k_classes().tolist():
        expected = {tuple(sorted(e)) for e in nx.k_truss(nxg, k).edges()}
        mask = k_truss_edge_mask(d, k)
        got = set(g.edges.subset(mask).as_tuples())
        assert got == expected, k


def test_phi_partition():
    g = graph_of(erdos_renyi_gnm(40, 220, seed=3))
    d = truss_decomposition(g)
    seen = np.zeros(g.num_edges, dtype=int)
    for k in d.k_classes().tolist():
        seen[d.phi(k)] += 1
    # Φ_k sets partition the edges of trussness >= 3
    assert np.all(seen[d.trussness >= 3] == 1)
    assert np.all(seen[d.trussness == 2] == 0)
    assert d.truss_sizes() == {int(k): int(d.phi(k).size) for k in d.k_classes()}


def test_policy_trace_records_rounds():
    g = graph_of(complete_graph(6))
    ctx = ExecutionContext()
    d = truss_decomposition(g, ctx=ctx)
    (region,) = region_spans(ctx.tracer)
    assert region.name == "TrussDecomp"
    assert region.attrs["rounds"] == d.peel_rounds
    assert region.attrs["rounds"] >= 1


def test_planted_communities_have_high_trussness():
    edges, comms = planted_community_graph(3, 8, 8, p_intra=1.0, overlap=0, seed=0)
    d = truss_decomposition(graph_of(edges))
    # each planted clique of size 8 yields trussness-8 edges
    assert d.kmax == 8


def test_k_truss_edge_mask_validation():
    g = graph_of(complete_graph(4))
    d = truss_decomposition(g)
    with pytest.raises(InvalidParameterError):
        k_truss_edge_mask(d, 1)


def test_empty_graph():
    g = build_graph([], [])
    d = truss_decomposition(g)
    assert d.num_edges == 0
    assert d.kmax == 2


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=13),
    data=st.data(),
)
def test_property_vectorized_equals_brute_force(n, data):
    max_m = n * (n - 1) // 2
    m = data.draw(st.integers(min_value=0, max_value=max_m))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    g = graph_of(erdos_renyi_gnm(n, m, seed=seed))
    d = truss_decomposition(g)
    assert np.array_equal(d.trussness, trussness_brute_force(g))
    assert np.array_equal(d.trussness, truss_decomposition_serial(g).trussness)


def test_level_skip_jumps_over_trussness_gaps():
    """A K12 (τ=12) next to a triangle (τ=3) leaves levels 4..11 empty;
    the peeler must jump straight across the gap instead of scanning
    each empty level, with identical trussness."""
    from repro.graph import build_edgelist

    k12 = complete_graph(12)
    u = np.concatenate([k12.u, np.array([12, 12, 13])])
    v = np.concatenate([k12.v, np.array([13, 14, 14])])
    g = graph_of(build_edgelist(u, v, num_vertices=15))
    ref = truss_decomposition_serial(g).trussness
    d = truss_decomposition(g)
    assert np.array_equal(d.trussness, ref)
    assert d.kmax == 12
    # one-per-level scanning would cost at least kmax - 2 = 10 scans;
    # skipping pays ~2 per populated level (one empty probe, one peel)
    assert d.level_scans < d.kmax - 2
    assert d.level_scans <= 5


def test_level_skip_counts_on_dense_levels():
    # no gaps: level skipping must not change behavior on contiguous levels
    edges, _ = planted_community_graph(3, 6, 8, p_intra=0.9, overlap=1, seed=5)
    g = graph_of(edges)
    d = truss_decomposition(g)
    assert np.array_equal(d.trussness, truss_decomposition_serial(g).trussness)
    assert d.level_scans >= d.k_classes().size


def test_level_scans_counted_by_vectorized_not_serial():
    g = graph_of(complete_graph(5))
    assert truss_decomposition_serial(g).level_scans == 0
    assert truss_decomposition(g).level_scans > 0
