"""Unit tests for the EquiTrussIndex structure itself."""

import numpy as np
import pytest

from repro.equitruss import build_index
from repro.errors import IndexIntegrityError, InvalidParameterError
from repro.graph import CSRGraph
from repro.graph.generators import (
    paper_example_graph,
    path_graph,
    rmat_graph,
)


@pytest.fixture(scope="module")
def paper_index():
    g = CSRGraph.from_edgelist(paper_example_graph())
    return build_index(g, "afforest").index


def test_stats(paper_index):
    stats = paper_index.stats()
    assert stats["num_supernodes"] == 5
    assert stats["num_superedges"] == 6
    assert stats["num_indexed_edges"] == 27
    assert stats["kmax"] == 5
    assert stats["max_supernode_size"] == 10


def test_supernode_ordering(paper_index):
    ks = paper_index.supernode_trussness
    assert np.all(np.diff(ks) >= 0)
    assert ks.tolist() == [3, 3, 4, 4, 5]


def test_edges_of_sorted(paper_index):
    for sn in range(paper_index.num_supernodes):
        eids = paper_index.edges_of(sn)
        assert np.all(np.diff(eids) > 0)


def test_supernodes_of_vertex(paper_index):
    # vertex 5 touches nu3 (its K4 + (5,7),(5,10)) only
    sns5 = paper_index.supernodes_of_vertex(5)
    assert len(sns5) == 1
    # vertex 2 touches nu1 (K4 on 0..3) and nu2 ((2,6),(2,8))
    sns2 = paper_index.supernodes_of_vertex(2)
    assert len(sns2) == 2
    # with k_min=4 only the K4 supernode remains
    sns2_k4 = paper_index.supernodes_of_vertex(2, k_min=4)
    assert len(sns2_k4) == 1
    with pytest.raises(InvalidParameterError):
        paper_index.supernodes_of_vertex(99)


def test_supernode_adjacency(paper_index):
    indptr, nbrs = paper_index.supernode_adjacency()
    assert indptr.size == paper_index.num_supernodes + 1
    assert nbrs.size == 2 * paper_index.num_superedges
    # symmetric
    for sn in range(paper_index.num_supernodes):
        for other in nbrs[indptr[sn] : indptr[sn + 1]]:
            row = nbrs[indptr[other] : indptr[other + 1]]
            assert sn in row


def test_save_load_roundtrip(tmp_path, paper_index):
    from repro.store import attach_store, write_store

    p = write_store(paper_index, tmp_path / "index.eqtsidx")
    with attach_store(p) as store:
        loaded = store.index
        assert loaded == paper_index
        loaded.validate()


def test_validate_catches_corruption(paper_index):
    g = paper_index.graph
    idx = build_index(g, "coptimal").index

    idx.edge_supernode = idx.edge_supernode.copy()
    idx.edge_supernode[0] = -1
    with pytest.raises(IndexIntegrityError):
        idx.validate()


def test_validate_catches_duplicate_superedge():
    g = CSRGraph.from_edgelist(paper_example_graph())
    idx = build_index(g, "coptimal").index
    idx.superedges = np.concatenate([idx.superedges, idx.superedges[:1]])
    with pytest.raises(IndexIntegrityError):
        idx.validate()


def test_validate_catches_same_trussness_superedge():
    g = CSRGraph.from_edgelist(paper_example_graph())
    idx = build_index(g, "coptimal").index
    same_k = np.array([[0, 1]])  # nu0 and nu2 both have trussness 3
    idx.superedges = np.concatenate([idx.superedges, same_k])
    with pytest.raises(IndexIntegrityError):
        idx.validate()


def test_triangle_free_graph_empty_index():
    g = CSRGraph.from_edgelist(path_graph(6))
    idx = build_index(g, "afforest").index
    idx.validate()
    assert idx.num_supernodes == 0
    assert idx.num_superedges == 0
    assert np.all(idx.edge_supernode == -1)


def test_supernodes_partition_indexed_edges():
    g = CSRGraph.from_edgelist(rmat_graph(7, 10, seed=11))
    idx = build_index(g, "afforest").index
    seen = np.zeros(g.num_edges, dtype=int)
    for sn in range(idx.num_supernodes):
        seen[idx.edges_of(sn)] += 1
    member = idx.trussness >= 3
    assert np.all(seen[member] == 1)
    assert np.all(seen[~member] == 0)


def test_repr(paper_index):
    text = repr(paper_index)
    assert "supernodes=5" in text and "superedges=6" in text
