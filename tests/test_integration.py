"""End-to-end integration: every subsystem on one realistic workload.

Exercises generate → build (all variants) → semantic verification →
persistence → queries (basic/advanced, all engines) → dynamic update →
connected components, on a scaled-down Table-3 stand-in.
"""

import numpy as np
import pytest

from repro import (
    DynamicEquiTruss,
    build_index,
    connected_components,
    enumerate_triangles,
    max_k_communities,
    online_communities,
    search_communities,
    truss_decomposition,
    verify_index_semantics,
)
from repro.community.model import as_edge_set_family
from repro.graph import CSRGraph
from repro.graph.datasets import load_dataset


@pytest.fixture(scope="module")
def workload():
    edges = load_dataset("amazon", scale_factor=0.5)
    graph = CSRGraph.from_edgelist(edges)
    tri = enumerate_triangles(graph)
    dec = truss_decomposition(graph, triangles=tri)
    return graph, tri, dec


def test_full_pipeline_all_variants(workload, tmp_path):
    graph, tri, dec = workload
    indexes = {
        v: build_index(graph, v, decomp=dec, triangles=tri).index
        for v in ("baseline", "coptimal", "afforest")
    }
    ref = indexes["afforest"]
    assert all(idx == ref for idx in indexes.values())
    verify_index_semantics(graph, ref)

    # persistence roundtrip
    from repro.store import attach_store, write_store

    with attach_store(write_store(ref, tmp_path / "idx.eqtsidx")) as store:
        assert store.index == ref


def test_queries_against_ground_truth(workload):
    graph, tri, dec = workload
    index = build_index(graph, "afforest", decomp=dec, triangles=tri).index
    rng = np.random.default_rng(0)
    deg = graph.degrees()
    queries = rng.choice(np.flatnonzero(deg >= 4), size=8, replace=False)
    for q in queries.tolist():
        k, comms = max_k_communities(index, q)
        if k == 0:
            continue
        assert as_edge_set_family(comms) == as_edge_set_family(
            online_communities(graph, q, k, decomp=dec)
        )
        mid_k = max(3, k - 1)
        assert as_edge_set_family(
            search_communities(index, q, mid_k)
        ) == as_edge_set_family(online_communities(graph, q, mid_k, decomp=dec))


def test_dynamic_update_on_workload(workload):
    graph, tri, dec = workload
    dyn = DynamicEquiTruss(graph)
    rng = np.random.default_rng(1)
    us = rng.integers(0, graph.num_vertices, size=3)
    vs = rng.integers(0, graph.num_vertices, size=3)
    keep = us != vs
    dyn.insert_edges(us[keep], vs[keep])
    assert dyn.index == build_index(dyn.graph, "afforest").index


def test_cc_methods_on_workload(workload):
    graph, _, _ = workload
    ref = connected_components(graph, method="sv")
    for method in ("afforest", "label_prop", "bfs"):
        assert np.array_equal(connected_components(graph, method=method), ref)
