"""Micro-benchmarks of the substrate kernels (pytest-benchmark proper).

These repeat normally (multiple rounds) and track the throughput of the
pieces the pipeline composes: triangle enumeration, truss peeling,
connected components, and index construction per variant.

Each index-construction benchmark also reports peak resident bytes
alongside seconds (``extra_info``): the ``repro.mem.*`` breakdown of the
build (graph / triangles / level tables / comp) plus the execution
context's workspace high-water mark, so a dtype-policy regression shows
up in the benchmark record, not just the timings.
"""

import pytest

from repro.bench import get_workload
from repro.cc import afforest, bfs_components, label_propagation, shiloach_vishkin
from repro.equitruss import build_index
from repro.equitruss.levels import build_level_structures
from repro.obs import metrics
from repro.parallel import ExecutionContext
from repro.triangles import enumerate_triangles
from repro.truss import truss_decomposition

WORKLOAD = "youtube"  # mid-size: large enough to be meaningful, quick to repeat


@pytest.fixture(scope="module")
def w():
    return get_workload(WORKLOAD)


def test_triangle_enumeration(benchmark, w):
    tri = benchmark(enumerate_triangles, w.graph)
    assert tri.count == w.triangles.count


def test_truss_decomposition(benchmark, w):
    dec = benchmark(lambda: truss_decomposition(w.graph, triangles=w.triangles))
    assert dec.kmax == w.decomp.kmax
    benchmark.extra_info["level_scans"] = dec.level_scans


@pytest.mark.parametrize("build", ["fused", "keyed"])
def test_csr_init(benchmark, w, build):
    """The Init kernel: fused single-pass CSR build vs the legacy
    two-key-sort build it replaced (kept as the oracle)."""
    from repro.graph.csr import CSRGraph, _from_edgelist_keyed

    edges = w.graph.edges
    fn = CSRGraph.from_edgelist if build == "fused" else _from_edgelist_keyed
    g = benchmark(fn, edges)
    assert g.num_edges == w.graph.num_edges
    benchmark.extra_info["build"] = build


def test_level_structures(benchmark, w):
    levels = benchmark(
        lambda: build_level_structures(w.triangles, w.decomp.trussness, with_adjacency=True)
    )
    assert levels.num_hook_pairs > 0


@pytest.mark.parametrize("method", [shiloach_vishkin, afforest, label_propagation, bfs_components])
def test_connected_components(benchmark, w, method):
    labels = benchmark(method, w.graph)
    assert labels.size == w.graph.num_vertices


MEM_GAUGES = (
    "repro.mem.graph_bytes",
    "repro.mem.triangles_bytes",
    "repro.mem.levels_bytes",
    "repro.mem.comp_bytes",
    "repro.mem.workspace_high_water",
)


@pytest.mark.parametrize("dtype_policy", ["auto", "int64"])
@pytest.mark.parametrize("variant", ["baseline", "coptimal", "afforest"])
def test_index_construction(benchmark, w, variant, dtype_policy):
    ctx = ExecutionContext(dtype=dtype_policy)
    graph = w.graph.astype(ctx.index_dtype(w.graph.num_vertices, w.graph.num_edges))
    res = benchmark(
        lambda: build_index(
            graph, variant, decomp=w.decomp, triangles=w.triangles, ctx=ctx
        )
    )
    assert res.index.num_supernodes > 0
    registry = metrics.get_registry()
    mem = {name.rsplit(".", 1)[-1]: int(registry.gauge(name).value) for name in MEM_GAUGES}
    benchmark.extra_info["dtype"] = ctx.edge_dtype(graph.num_edges).name
    benchmark.extra_info["peak_bytes"] = sum(mem.values())
    benchmark.extra_info.update(mem)
