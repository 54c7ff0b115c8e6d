"""``EquiTrussIndex.vertex_max_trussness``: the table behind local answers.

It is the batch form of ``query_candidate_ks(index, v)[-1]`` (0 for a
vertex on no triangle), on every serve test graph under all four
construction variants, built or attached. ``every_pair``'s
must-be-empty probe is exactly one above it, so the differential
suites probe the first k the frontend answers itself.
"""

import numpy as np
import pytest

from repro.community.search import query_candidate_ks
from repro.equitruss import VARIANTS, build_index, equitruss_serial
from repro.graph import CSRGraph, EdgeList
from repro.serve import QueryEngine
from repro.store import attach_store
from tests.serve.conftest import SERVE_GRAPHS
from tests.serve.test_engine_differential import every_pair


def candidate_max(index, v):
    ks = query_candidate_ks(index, v)
    return int(ks[-1]) if ks.size else 0


def build(graph, variant):
    if variant == "serial":
        return equitruss_serial(graph)
    return build_index(graph, variant).index


@pytest.mark.parametrize("variant", ["serial", *VARIANTS])
@pytest.mark.parametrize("name", sorted(SERVE_GRAPHS))
def test_table_is_the_last_candidate_k(name, variant):
    graph = CSRGraph.from_edgelist(SERVE_GRAPHS[name]())
    index = build(graph, variant)
    table = index.vertex_max_trussness()
    assert table.shape == (graph.num_vertices,)
    assert table.dtype == np.min_scalar_type(int(index.trussness.max()))
    assert table.tolist() == [
        candidate_max(index, v) for v in range(graph.num_vertices)
    ]


@pytest.mark.parametrize("name", sorted(SERVE_GRAPHS))
def test_every_pair_probes_one_above_the_table(served_store, name):
    _, index, path = served_store(name)
    with attach_store(path) as store:
        table = store.index.vertex_max_trussness()
    assert np.array_equal(table, index.vertex_max_trussness())
    engine = QueryEngine(index, cache_size=0)
    probes = {}
    for v, k in every_pair(index):
        probes[v] = max(probes.get(v, 0), k)
        assert (k > table[v]) == (not engine.query(v, k, record=False)), (v, k)
    assert probes == {
        v: max(int(table[v]), 2) + 1 for v in range(index.graph.num_vertices)
    }


def test_vertex_on_no_triangle_is_zero():
    # a triangle, a pendant edge at 2 and an isolated vertex 4
    edges = EdgeList(np.array([0, 0, 1, 2]), np.array([1, 2, 2, 3]), 5)
    index = build_index(CSRGraph.from_edgelist(edges), "afforest").index
    assert index.vertex_max_trussness().tolist() == [3, 3, 3, 0, 0]
