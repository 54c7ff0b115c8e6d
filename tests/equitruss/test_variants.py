"""Direct unit tests of the three SpNode kernels."""

import numpy as np
import pytest

from repro.equitruss.levels import build_level_structures
from repro.equitruss.variants import (
    recompute_level_tables,
    spnode_afforest,
    spnode_baseline,
    spnode_coptimal,
    sv_rounds_noskip,
)
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_gnm, paper_example_graph
from repro.parallel.context import ExecutionContext, region_spans
from repro.triangles import enumerate_triangles
from repro.truss import truss_decomposition


@pytest.fixture(scope="module")
def prepared():
    g = CSRGraph.from_edgelist(erdos_renyi_gnm(35, 170, seed=6))
    tri = enumerate_triangles(g)
    dec = truss_decomposition(g, triangles=tri)
    levels = build_level_structures(tri, dec.trussness, with_adjacency=True)
    return g, tri, dec, levels


def run_all_levels(kernel, g, dec, levels):
    comp = np.arange(g.num_edges, dtype=np.int64)
    for k in levels.levels.tolist():
        kernel(comp, k)
    return comp


def test_all_spnode_kernels_agree(prepared):
    g, tri, dec, levels = prepared
    base = run_all_levels(
        lambda comp, k: spnode_baseline(comp, g, dec.trussness, k), g, dec, levels
    )
    copt = run_all_levels(lambda comp, k: spnode_coptimal(comp, levels, k), g, dec, levels)
    aff = run_all_levels(
        lambda comp, k: spnode_afforest(comp, levels, k, dec.phi(k)), g, dec, levels
    )
    assert np.array_equal(base, copt)
    assert np.array_equal(base, aff)


def test_spnode_components_are_min_edge_roots(prepared):
    g, tri, dec, levels = prepared
    comp = run_all_levels(lambda c, k: spnode_coptimal(c, levels, k), g, dec, levels)
    # every root is the minimum edge id of its component
    for root in np.unique(comp):
        members = np.flatnonzero(comp == root)
        assert members.min() == root


def test_sv_rounds_noskip_empty():
    comp = np.arange(5, dtype=np.int64)
    assert sv_rounds_noskip(comp, np.empty(0, np.int64), np.empty(0, np.int64)) == 0
    assert comp.tolist() == [0, 1, 2, 3, 4]


def test_sv_rounds_chain_converges():
    n = 64
    comp = np.arange(n, dtype=np.int64)
    a = np.arange(n - 1, dtype=np.int64)
    b = a + 1
    rounds = sv_rounds_noskip(comp, a, b)
    assert np.all(comp == 0)
    assert rounds <= n  # log-ish in practice


def test_baseline_returns_superedge_candidates():
    g = CSRGraph.from_edgelist(paper_example_graph())
    dec = truss_decomposition(g)
    comp = np.arange(g.num_edges, dtype=np.int64)
    # level 3 first (no superedges: nothing below 3)
    se_lo, se_hi = spnode_baseline(comp, g, dec.trussness, 3)
    assert se_lo.size == 0
    se_lo4, se_hi4 = spnode_baseline(comp, g, dec.trussness, 4)
    assert se_lo4.size > 0
    assert np.all(dec.trussness[se_lo4] == 3)
    assert np.all(dec.trussness[se_hi4] == 4)


def test_instrumentation_handles_record_work(prepared):
    g, tri, dec, levels = prepared
    ctx = ExecutionContext()
    comp = np.arange(g.num_edges, dtype=np.int64)
    with ctx.region("SpNode", work=0, rounds=0):
        for k in levels.levels.tolist():
            spnode_coptimal(comp, levels, k, ctx=ctx)
    (region,) = region_spans(ctx.tracer)
    assert region.attrs["work"] >= levels.num_hook_pairs
    assert region.attrs["rounds"] >= levels.levels.size


def test_afforest_neighbor_rounds_zero(prepared):
    g, tri, dec, levels = prepared
    ref = run_all_levels(lambda c, k: spnode_coptimal(c, levels, k), g, dec, levels)
    comp = np.arange(g.num_edges, dtype=np.int64)
    for k in levels.levels.tolist():
        spnode_afforest(comp, levels, k, dec.phi(k), neighbor_rounds=0)
    assert np.array_equal(comp, ref)


def test_recompute_level_tables_empty_level():
    g = CSRGraph.from_edgelist(erdos_renyi_gnm(10, 9, seed=0))
    dec = truss_decomposition(g)
    a, b, lo, hi = recompute_level_tables(g, dec.trussness, 99)
    assert a.size == b.size == lo.size == hi.size == 0


def test_recompute_level_tables_batching(prepared):
    g, tri, dec, levels = prepared
    for k in levels.levels.tolist():
        full = recompute_level_tables(g, dec.trussness, k, batch_edges=1 << 20)
        tiny = recompute_level_tables(g, dec.trussness, k, batch_edges=3)
        for x, y in zip(full, tiny):
            assert sorted(x.tolist()) == sorted(y.tolist())
