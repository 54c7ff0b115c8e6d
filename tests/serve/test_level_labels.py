"""Per-level component labels against a dense oracle.

:class:`LevelComponents` keeps, per level L, only the labels of the
supernode-id suffix with τ ≥ L, and a store persists exactly those
suffixes. The oracle here is the dense sweep: for every level, the
connected components (scipy's, independent of ``repro.cc``) of the
τ ≥ L supernode graph, labelled by their minimum member id, for all S
supernodes. Every (level, supernode with τ ≥ level) label must match,
both in memory and after a store round trip.
"""

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.equitruss.pipeline import build_index
from repro.graph import CSRGraph, EdgeList
from repro.graph.generators import erdos_renyi_gnm, paper_example_graph, rmat_graph
from repro.serve.components import LevelComponents
from repro.store import attach_store


def dense_level_labels(index) -> dict[int, np.ndarray]:
    """level -> ``int64[S]`` labels; meaningful where τ ≥ level."""
    sn_k = np.asarray(index.supernode_trussness, dtype=np.int64)
    se = np.asarray(index.superedges, dtype=np.int64).reshape(-1, 2)
    s = sn_k.size
    out = {}
    for level in np.unique(sn_k).tolist():
        keep = (sn_k[se[:, 0]] >= level) & (sn_k[se[:, 1]] >= level)
        a, b = se[keep, 0], se[keep, 1]
        adj = coo_matrix((np.ones(a.size), (a, b)), shape=(s, s))
        _, comp = connected_components(adj, directed=False)
        min_id = np.full(comp.max(initial=-1) + 1, s, dtype=np.int64)
        np.minimum.at(min_id, comp, np.arange(s))
        out[level] = min_id[comp]
    return out


def assert_matches_oracle(components, index):
    sn_k = np.asarray(index.supernode_trussness)
    oracle = dense_level_labels(index)
    assert components.levels.tolist() == sorted(oracle)
    for level, dense in oracle.items():
        first, labels = components.suffix(level)
        meaningful = np.flatnonzero(sn_k >= level)
        # the τ ≥ level supernodes are exactly the suffix [first, S)
        assert np.array_equal(meaningful, np.arange(first, sn_k.size)), level
        assert np.array_equal(labels, dense[first:]), level


def _one_level_graph():
    # two triangles sharing vertex 2 and a disjoint K4 minus an edge:
    # every supernode has τ = 3, so there is one level and no superedge
    pairs = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4),
             (5, 6), (5, 7), (6, 7), (6, 8), (7, 8)]
    u, v = zip(*pairs)
    return EdgeList(np.array(u), np.array(v), 9)


def _triangle_free_graph():
    u = np.arange(9, dtype=np.int64)
    return EdgeList(u, u + 1, 10)


GRAPHS = {
    "rmat": lambda: rmat_graph(8, 8, seed=5),
    "er": lambda: erdos_renyi_gnm(300, 2600, seed=11),
    "paper": paper_example_graph,
    "one_level": _one_level_graph,
    "triangle_free": _triangle_free_graph,
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_suffix_labels_equal_dense_oracle(tmp_path, name):
    g = CSRGraph.from_edgelist(GRAPHS[name]())
    result = build_index(g, "afforest", store_path=tmp_path / "g.eqtsidx")
    index = result.index
    if name == "one_level":
        assert index.num_supernodes > 1
        assert np.unique(index.supernode_trussness).size == 1
    if name == "triangle_free":
        assert index.num_supernodes == 0
    assert_matches_oracle(LevelComponents(index), index)
    with attach_store(result.store_path, verify=True) as store:
        assert store.components is not None
        assert_matches_oracle(store.components, store.index)
        levels, offsets, labels = store.components.to_tables()
        # the suffixes hold one label per (level, supernode with τ ≥ level)
        sn_k = np.asarray(index.supernode_trussness)
        assert labels.size == sum(int((sn_k >= k).sum()) for k in levels.tolist())
        assert offsets[-1] == labels.size


def test_from_tables_rejects_inconsistent_offsets():
    from repro.errors import InvalidParameterError

    levels = np.array([3, 4])
    labels = np.array([0, 0, 0, 2])
    LevelComponents.from_tables(levels, np.array([0, 3, 4]), labels)
    for bad in ([0, 3], [1, 3, 4], [0, 3, 5], [0, 1, 4]):
        with pytest.raises(InvalidParameterError):
            LevelComponents.from_tables(levels, np.array(bad), labels)
