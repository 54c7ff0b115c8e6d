"""All construction variants produce identical canonical indexes.

This is the paper's accuracy claim (§4.3): supernode counts, constituent
edges, and superedges of all parallel versions match the sequential
reference exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equitruss import build_index, equitruss_serial
from repro.graph import CSRGraph
from repro.graph.generators import (
    complete_graph,
    erdos_renyi_gnm,
    paper_example_graph,
    planted_community_graph,
    rmat_graph,
    watts_strogatz_graph,
)

PARALLEL = ["baseline", "coptimal", "afforest"]


def all_indexes(g, **kwargs):
    serial = equitruss_serial(g)
    out = {"serial": serial}
    for variant in PARALLEL:
        out[variant] = build_index(g, variant, **kwargs).index
    return out


@pytest.mark.parametrize(
    "edges",
    [
        erdos_renyi_gnm(40, 200, seed=0),
        erdos_renyi_gnm(60, 150, seed=1),
        rmat_graph(7, 8, seed=2),
        watts_strogatz_graph(60, 6, 0.2, seed=3),
        complete_graph(9),
        paper_example_graph(),
        planted_community_graph(4, 5, 8, p_intra=0.9, overlap=2, seed=4)[0],
    ],
    ids=["gnm0", "gnm1", "rmat", "ws", "k9", "paper", "planted"],
)
def test_all_variants_identical(edges):
    g = CSRGraph.from_edgelist(edges)
    indexes = all_indexes(g)
    ref = indexes.pop("serial")
    ref.validate()
    for name, idx in indexes.items():
        idx.validate()
        assert idx == ref, name


def test_worker_count_invariance():
    g = CSRGraph.from_edgelist(rmat_graph(7, 8, seed=5))
    ref = build_index(g, "coptimal", num_workers=1).index
    for workers in (2, 4, 7):
        for variant in PARALLEL:
            assert build_index(g, variant, num_workers=workers).index == ref


def test_afforest_options_invariance():
    g = CSRGraph.from_edgelist(erdos_renyi_gnm(50, 220, seed=6))
    ref = build_index(g, "afforest").index
    for rounds in (0, 1, 4):
        assert build_index(g, "afforest", neighbor_rounds=rounds).index == ref
    for seed in (1, 2):
        assert build_index(g, "afforest", seed=seed).index == ref


def test_unknown_variant():
    from repro.errors import InvalidParameterError

    g = CSRGraph.from_edgelist(complete_graph(4))
    with pytest.raises(InvalidParameterError):
        build_index(g, "quantum")


def test_precomputed_inputs_reused():
    from repro.triangles import enumerate_triangles
    from repro.truss import truss_decomposition

    g = CSRGraph.from_edgelist(rmat_graph(6, 6, seed=7))
    tri = enumerate_triangles(g)
    dec = truss_decomposition(g, triangles=tri)
    res = build_index(g, "coptimal", decomp=dec, triangles=tri)
    assert res.index == equitruss_serial(g, decomp=dec)
    # Support/TrussDecomp kernels skipped when inputs are supplied
    names = set(res.breakdown.seconds)
    assert "Support" not in names and "TrussDecomp" not in names


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=24),
    data=st.data(),
)
def test_property_variants_equal_serial(n, data):
    max_m = n * (n - 1) // 2
    m = data.draw(st.integers(min_value=0, max_value=max_m))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    g = CSRGraph.from_edgelist(erdos_renyi_gnm(n, m, seed=seed))
    indexes = all_indexes(g)
    ref = indexes.pop("serial")
    ref.validate()
    for name, idx in indexes.items():
        assert idx == ref, name


def test_serial_dict_equals_array_lookup():
    g = CSRGraph.from_edgelist(rmat_graph(6, 8, seed=9))
    assert equitruss_serial(g, lookup="dict") == equitruss_serial(g, lookup="array")


def test_serial_rejects_bad_lookup():
    from repro.errors import InvalidParameterError

    g = CSRGraph.from_edgelist(complete_graph(4))
    with pytest.raises(InvalidParameterError):
        equitruss_serial(g, lookup="hash")
