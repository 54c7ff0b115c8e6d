"""Unit tests for CSRGraph."""

import numpy as np
import pytest

from repro.graph import CSRGraph, build_edgelist, build_graph
from repro.graph.generators import complete_graph, erdos_renyi_gnm
from tests.graph.keyed_oracle import keyed_csr


@pytest.fixture
def triangle_plus_tail():
    # triangle 0-1-2 plus tail 2-3
    return build_graph([0, 0, 1, 2], [1, 2, 2, 3])


def test_shape_and_degrees(triangle_plus_tail):
    g = triangle_plus_tail
    assert g.num_vertices == 4
    assert g.num_edges == 4
    assert g.degrees().tolist() == [2, 2, 3, 1]
    assert g.degree(2) == 3


def test_neighbors_sorted(triangle_plus_tail):
    g = triangle_plus_tail
    assert g.neighbors(2).tolist() == [0, 1, 3]
    assert g.neighbors(3).tolist() == [2]


def test_neighbor_edge_ids_align(triangle_plus_tail):
    g = triangle_plus_tail
    for u in range(g.num_vertices):
        for w, eid in zip(g.neighbors(u), g.neighbor_edge_ids(u)):
            assert g.edges.edge_id(u, int(w)) == int(eid)


def test_locate_slots(triangle_plus_tail):
    g = triangle_plus_tail
    slots = g.locate_slots(np.array([0, 2, 3]), np.array([1, 3, 0]))
    assert slots[0] >= 0 and slots[1] >= 0
    assert slots[2] == -1
    # edge id stored at located slot matches
    assert g.edge_ids[slots[0]] == g.edges.edge_id(0, 1)


def test_has_edges(triangle_plus_tail):
    g = triangle_plus_tail
    res = g.has_edges(np.array([0, 0]), np.array([2, 3]))
    assert res.tolist() == [True, False]


def test_to_scipy_symmetric(triangle_plus_tail):
    m = triangle_plus_tail.to_scipy()
    assert (m != m.T).nnz == 0
    assert m.sum() == 2 * triangle_plus_tail.num_edges


def test_to_networkx_roundtrip(triangle_plus_tail):
    nxg = triangle_plus_tail.to_networkx()
    assert nxg.number_of_edges() == 4
    assert nxg.has_edge(0, 2)


def test_empty_graph():
    g = CSRGraph.from_edgelist(build_edgelist([], []))
    assert g.num_vertices == 0
    assert g.num_edges == 0


def test_random_graph_csr_consistency():
    edges = erdos_renyi_gnm(50, 120, seed=7)
    g = CSRGraph.from_edgelist(edges)
    # every canonical edge appears exactly twice in CSR slots
    counts = np.bincount(g.edge_ids, minlength=g.num_edges)
    assert np.all(counts == 2)
    # adjacency is symmetric
    for u in range(g.num_vertices):
        for w in g.neighbors(u):
            assert u in g.neighbors(int(w))


def test_complete_graph_degrees():
    g = CSRGraph.from_edgelist(complete_graph(6))
    assert np.all(g.degrees() == 5)


# ----------------------------------------------------------------------
# Fused single-pass build vs the legacy keyed build
# ----------------------------------------------------------------------

def _fused_cases():
    from repro.graph.generators import paper_example_graph, rmat_graph

    yield build_edgelist([], [])
    yield build_edgelist([0, 2], [5, 4], num_vertices=9)  # isolated vertices
    yield paper_example_graph()
    yield erdos_renyi_gnm(60, 300, seed=2)
    yield rmat_graph(7, 6, seed=3)


def test_fused_build_matches_keyed_build():
    for edges in _fused_cases():
        g = CSRGraph.from_edgelist(edges)
        ref = keyed_csr(edges)
        assert np.array_equal(np.asarray(g.indptr), np.asarray(ref.indptr))
        assert np.array_equal(np.asarray(g.indices), np.asarray(ref.indices))
        assert np.array_equal(np.asarray(g.edge_ids), np.asarray(ref.edge_ids))
