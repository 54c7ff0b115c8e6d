"""Cross-backend equivalence: serial == process, bit for bit.

The process backend's partition → privatize → reduce kernels are
designed to reproduce the serial vectorized results exactly (ordered
concatenation of contiguous partitions; exact integer partial-sum
reduction), so these are equality tests, not approximate ones. The
process backends are built with ``min_items=0`` to force fan-out even
on the small test graphs.
"""

import numpy as np
import pytest

from repro.equitruss.pipeline import build_index
from repro.graph import CSRGraph
from repro.graph.generators import (
    PAPER_EXAMPLE_SUPEREDGES,
    PAPER_EXAMPLE_SUPERNODES,
    erdos_renyi_gnm,
    paper_example_graph,
    rmat_graph,
)
from repro.parallel.context import ExecutionContext
from repro.parallel.shm import ProcessBackend, process_backend_available
from repro.triangles.enumerate import enumerate_triangles
from repro.triangles.support import compute_support
from repro.truss.decompose import truss_decomposition

needs_fork = pytest.mark.skipif(
    not process_backend_available(),
    reason="fork or POSIX shared memory unavailable",
)

GRAPHS = {
    "er": lambda: erdos_renyi_gnm(300, 2600, seed=11),       # Erdős–Rényi
    "rmat": lambda: rmat_graph(8, 8, seed=5),                # power-law
    "paper": paper_example_graph,                            # Fig. 3 golden
}
VARIANTS = ("baseline", "coptimal", "afforest")


def _graph(name):
    return CSRGraph.from_edgelist(GRAPHS[name]())


def _contexts():
    """(label, fresh-context factory) for every backend under test."""
    yield "serial", lambda: ExecutionContext(backend="serial")
    if process_backend_available():
        yield "process", lambda: ExecutionContext(
            backend=ProcessBackend(min_items=0), num_workers=3
        )


@pytest.mark.process_backend
@needs_fork
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_triangles_and_support_bit_identical(name):
    g = _graph(name)
    ref_tris = enumerate_triangles(g)
    ref_sup = compute_support(g, ctx=ExecutionContext(backend="serial"))
    for label, make in _contexts():
        with make() as ctx:
            tris = enumerate_triangles(g, ctx=ctx)
            sup = compute_support(g, triangles=tris, ctx=ctx)
        for attr in ("e_uv", "e_uw", "e_vw"):
            assert np.array_equal(getattr(tris, attr), getattr(ref_tris, attr)), (
                name, label, attr,
            )
        assert np.array_equal(sup, ref_sup), (name, label)


@pytest.mark.process_backend
@needs_fork
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_trussness_bit_identical(name):
    g = _graph(name)
    ref = truss_decomposition(g, ctx=ExecutionContext(backend="serial"))
    for label, make in _contexts():
        with make() as ctx:
            got = truss_decomposition(g, ctx=ctx)
        assert np.array_equal(got.trussness, ref.trussness), (name, label)
        assert np.array_equal(got.support, ref.support), (name, label)
        assert got.peel_rounds == ref.peel_rounds, (name, label)


@pytest.mark.process_backend
@needs_fork
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_index_bit_identical_across_backends(name, variant):
    g = _graph(name)
    ref = build_index(g, variant, ctx=ExecutionContext(backend="serial")).index
    for label, make in _contexts():
        with make() as ctx:
            got = build_index(g, variant, ctx=ctx).index
        assert got == ref, (name, variant, label)


@pytest.mark.process_backend
@needs_fork
@pytest.mark.parametrize("variant", VARIANTS)
def test_fig3_golden_example_under_process_backend(variant):
    """The process backend must reproduce the paper's published Fig. 3
    supernodes/superedges verbatim, like every other execution mode."""
    g = CSRGraph.from_edgelist(paper_example_graph())
    with ExecutionContext(
        backend=ProcessBackend(min_items=0), num_workers=3
    ) as ctx:
        index = build_index(g, variant, ctx=ctx).index
    index.validate()

    name_to_edges = {
        nm: frozenset(g.edges.edge_id(a, b) for a, b in edge_set)
        for nm, (k, edge_set) in PAPER_EXAMPLE_SUPERNODES.items()
    }
    got_supernodes = {
        frozenset(index.edges_of(sn).tolist()): int(index.supernode_trussness[sn])
        for sn in range(index.num_supernodes)
    }
    expected = {
        edges: PAPER_EXAMPLE_SUPERNODES[nm][0]
        for nm, edges in name_to_edges.items()
    }
    assert got_supernodes == expected

    got_se = {
        frozenset(
            {
                frozenset(index.edges_of(int(a)).tolist()),
                frozenset(index.edges_of(int(b)).tolist()),
            }
        )
        for a, b in index.superedges
    }
    expected_se = {
        frozenset({name_to_edges[a], name_to_edges[b]})
        for a, b in (tuple(p) for p in PAPER_EXAMPLE_SUPEREDGES)
    }
    assert got_se == expected_se
