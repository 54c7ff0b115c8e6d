"""Attach allocates nothing proportional to the edge count.

``EdgeList`` checks the mapped edge list with compares and builds its
``u·n + v`` keys only on the first id lookup, so neither attach nor
serving materializes them.
"""

import tracemalloc

import numpy as np

from repro.equitruss.pipeline import build_index
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_gnm
from repro.store import attach_store


def test_attach_builds_no_edge_keys(tmp_path):
    g = CSRGraph.from_edgelist(erdos_renyi_gnm(20000, 120000, seed=3))
    m = g.num_edges
    path = build_index(g, "afforest", store_path=tmp_path / "g.eqtsidx").store_path
    attach_store(path).close()  # warm imports and the page cache
    tracemalloc.start()
    try:
        store = attach_store(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with store:
        edges = store.graph.edges
        assert edges._keys is None
        # the keyed check held 8·m bytes of keys and peaked at ≥ 16·m
        assert held < m, held
        assert peak < 4 * m, peak
        store.engine().query_many(np.arange(0, g.num_vertices, 7), 3)
        assert edges._keys is None
        unkeyed = store.graph.nbytes
        keys = edges.keys
        assert store.graph.nbytes == unkeyed + keys.nbytes  # gauge counts them
        assert np.array_equal(keys, edges.u * np.int64(g.num_vertices) + edges.v)
        assert not keys.flags.writeable
        ids = np.array([0, m // 2, m - 1])
        assert np.array_equal(edges.edge_ids(edges.v[ids], edges.u[ids]), ids)
