"""Unit + property tests: all CC methods agree with scipy ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import connected_components, normalize_labels
from repro.errors import InvalidParameterError
from repro.graph import CSRGraph, build_graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi_gnm,
    rmat_graph,
)
from repro.parallel import ExecutionContext
from repro.parallel.context import region_spans

METHODS = ["sv", "afforest", "label_prop", "bfs", "union_find"]


def scipy_labels(graph):
    import scipy.sparse.csgraph as csgraph

    if graph.num_vertices == 0:
        return np.empty(0, dtype=np.int64)
    _, labels = csgraph.connected_components(graph.to_scipy(), directed=False)
    return normalize_labels(labels.astype(np.int64))


def assert_same_partition(a, b):
    """Two labelings describe the same partition."""
    assert a.shape == b.shape
    # normalize both to first-occurrence order
    def canon(x):
        seen = {}
        out = np.empty_like(x)
        for i, v in enumerate(x.tolist()):
            out[i] = seen.setdefault(v, len(seen))
        return out

    assert np.array_equal(canon(a), canon(b))


@pytest.mark.parametrize("method", METHODS)
def test_disconnected_cliques(method):
    # two K4s and an isolated vertex
    src = [0, 0, 0, 1, 1, 2, 4, 4, 4, 5, 5, 6]
    dst = [1, 2, 3, 2, 3, 3, 5, 6, 7, 6, 7, 7]
    g = build_graph(src, dst, num_vertices=9)
    labels = connected_components(g, method=method)
    assert_same_partition(labels, scipy_labels(g))
    assert len(set(labels.tolist())) == 3


@pytest.mark.parametrize("method", METHODS)
def test_random_graphs_match_scipy(method):
    for seed in range(4):
        g = CSRGraph.from_edgelist(erdos_renyi_gnm(60, 55, seed=seed))
        assert_same_partition(
            connected_components(g, method=method), scipy_labels(g)
        )


@pytest.mark.parametrize("method", METHODS)
def test_single_component(method):
    g = CSRGraph.from_edgelist(complete_graph(10))
    labels = connected_components(g, method=method)
    assert np.all(labels == 0)


@pytest.mark.parametrize("method", METHODS)
def test_no_edges(method):
    g = CSRGraph.from_edgelist(empty_graph(5))
    labels = connected_components(g, method=method)
    assert labels.tolist() == [0, 1, 2, 3, 4]


def test_unknown_method():
    g = CSRGraph.from_edgelist(cycle_graph(4))
    with pytest.raises(InvalidParameterError):
        connected_components(g, method="quantum")


def test_unnormalized_labels_are_min_ids():
    g = build_graph([0, 3], [1, 4], num_vertices=5)
    labels = connected_components(g, method="sv", normalize=False)
    assert labels.tolist() == [0, 0, 2, 3, 3]


def test_sv_records_rounds():
    g = CSRGraph.from_edgelist(rmat_graph(8, 4, seed=0))
    ctx = ExecutionContext()
    connected_components(g, method="sv", ctx=ctx)
    (region,) = region_spans(ctx.tracer)
    assert region.name == "SV"
    assert region.attrs["rounds"] >= 1
    assert region.attrs["work"] > 0


def test_afforest_seed_invariance():
    g = CSRGraph.from_edgelist(rmat_graph(9, 4, seed=1))
    a = connected_components(g, method="afforest", ctx=None)
    for seed in (1, 2, 3):
        from repro.cc import afforest

        b = normalize_labels(afforest(g, seed=seed))
        assert_same_partition(a, b)


def test_afforest_neighbor_rounds_invariance():
    from repro.cc import afforest

    g = CSRGraph.from_edgelist(erdos_renyi_gnm(80, 100, seed=7))
    base = normalize_labels(afforest(g, neighbor_rounds=2))
    for rounds in (0, 1, 4):
        assert_same_partition(base, normalize_labels(afforest(g, neighbor_rounds=rounds)))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
def test_property_all_methods_agree(n, data):
    m = data.draw(st.integers(min_value=0, max_value=min(2 * n, n * (n - 1) // 2)))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    g = CSRGraph.from_edgelist(erdos_renyi_gnm(n, m, seed=seed))
    ref = scipy_labels(g)
    for method in METHODS:
        assert_same_partition(connected_components(g, method=method), ref)


def test_union_find_direct():
    from repro.cc import UnionFind

    uf = UnionFind(6)
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.union(2, 3)
    assert uf.union(1, 3)
    assert uf.same(0, 2)
    assert not uf.same(0, 4)
    labels = uf.labels()
    assert labels.tolist() == [0, 0, 0, 0, 4, 5]
