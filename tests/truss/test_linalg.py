"""Linear-algebra truss decomposition cross-validation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, build_graph
from repro.graph.generators import complete_graph, erdos_renyi_gnm, paper_example_graph
from repro.truss import truss_decomposition
from tests.truss.linalg import truss_decomposition_linalg


def test_matches_peeling_on_paper_example():
    g = CSRGraph.from_edgelist(paper_example_graph())
    a = truss_decomposition(g)
    b = truss_decomposition_linalg(g)
    assert np.array_equal(a.trussness, b.trussness)
    assert np.array_equal(a.support, b.support)


def test_matches_peeling_on_random_graphs():
    for seed in range(4):
        g = CSRGraph.from_edgelist(erdos_renyi_gnm(30, 130, seed=seed))
        assert np.array_equal(
            truss_decomposition(g).trussness,
            truss_decomposition_linalg(g).trussness,
        )


def test_complete_graph():
    g = CSRGraph.from_edgelist(complete_graph(6))
    assert np.all(truss_decomposition_linalg(g).trussness == 6)


def test_empty_and_triangle_free():
    assert truss_decomposition_linalg(build_graph([], [])).num_edges == 0
    g = build_graph([0, 1, 2], [1, 2, 3])
    d = truss_decomposition_linalg(g)
    assert np.all(d.trussness == 2)
    assert np.all(d.support == 0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_linalg_equals_peeling(seed):
    g = CSRGraph.from_edgelist(erdos_renyi_gnm(15, 45, seed=seed))
    assert np.array_equal(
        truss_decomposition(g).trussness,
        truss_decomposition_linalg(g).trussness,
    )
