"""Equivalence of the vectorized peeler with the serial reference.

The level-synchronous scan peeler must match the serial bucket-queue
reference bit for bit — same trussness, same support — on both
backends, under any worker count, and regardless of the index dtype;
its ``peel_rounds`` must not depend on any of those either. These are
equality tests, not approximate ones.
"""

import numpy as np
import pytest

from repro.equitruss.pipeline import build_index
from repro.graph import CSRGraph
from repro.graph.generators import (
    erdos_renyi_gnm,
    paper_example_graph,
    rmat_graph,
)
from repro.parallel.context import ExecutionContext
from repro.parallel.shm import ProcessBackend, process_backend_available
from repro.triangles.enumerate import enumerate_triangles
from repro.triangles.support import compute_support
from repro.truss.decompose import truss_decomposition, truss_decomposition_serial

needs_fork = pytest.mark.skipif(
    not process_backend_available(),
    reason="fork or POSIX shared memory unavailable",
)

GRAPHS = {
    "er": lambda: erdos_renyi_gnm(300, 2600, seed=11),
    "rmat": lambda: rmat_graph(8, 8, seed=5),
    "paper": paper_example_graph,
}
VARIANTS = ("baseline", "coptimal", "afforest")


def _graph(name):
    return CSRGraph.from_edgelist(GRAPHS[name]())


def _contexts(dtype="auto", workers=3):
    yield "serial", lambda: ExecutionContext(backend="serial", dtype=dtype)
    if process_backend_available():
        yield "process", lambda: ExecutionContext(
            backend=ProcessBackend(min_items=0), num_workers=workers, dtype=dtype
        )


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_scan_equals_serial_reference(name):
    g = _graph(name)
    ref = truss_decomposition_serial(g)
    got = truss_decomposition(g)
    assert np.array_equal(got.trussness, ref.trussness), name
    assert np.array_equal(got.support, ref.support), name
    assert got.level_scans > 0 or got.kmax == 2


@pytest.mark.process_backend
@needs_fork
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_scan_equals_serial_reference_on_every_backend(name):
    """Every backend × dtype case against the reference."""
    edges = GRAPHS[name]()
    ref = truss_decomposition_serial(_graph(name))
    rounds = set()
    for dtype in ("int32", "int64"):
        for label, make in _contexts(dtype=dtype):
            case = (name, label, dtype)
            with make() as ctx:
                g = CSRGraph.from_edgelist(edges, ctx=ctx)
                got = truss_decomposition(g, ctx=ctx)
            assert np.array_equal(got.trussness, ref.trussness), case
            assert np.array_equal(got.support, ref.support), case
            rounds.add(got.peel_rounds)
    assert len(rounds) == 1, name


@pytest.mark.process_backend
@needs_fork
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_partition_strategies_bit_identical(name):
    """Splits into 2 and 3 worker ranges (wedge-weighted for triangle
    enumeration, by count for support and peeling) feed the same ordered
    concatenation — triangles, support, and trussness cannot differ."""
    g = _graph(name)
    results = {}
    for workers in (2, 3):
        for label, make in _contexts(workers=workers):
            with make() as ctx:
                tris = enumerate_triangles(g, ctx=ctx)
                sup = compute_support(g, triangles=tris, ctx=ctx)
                tau = truss_decomposition(g, triangles=tris, ctx=ctx).trussness
            results[(workers, label)] = (tris, sup, tau)
    (ref_tris, ref_sup, ref_tau) = results[(2, "serial")]
    for key, (tris, sup, tau) in results.items():
        for attr in ("e_uv", "e_uw", "e_vw"):
            assert np.array_equal(
                getattr(tris, attr), getattr(ref_tris, attr)
            ), (name, key, attr)
        assert np.array_equal(sup, ref_sup), (name, key)
        assert np.array_equal(tau, ref_tau), (name, key)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_dtype_invariance_int32_int64(name):
    """int32-indexed and int64-indexed builds agree element-for-element
    through the fused Init and the peeler."""
    edges = GRAPHS[name]()
    results = {}
    for dtype in ("int32", "int64"):
        ctx = ExecutionContext(dtype=dtype)
        g = CSRGraph.from_edgelist(edges, ctx=ctx)
        d = truss_decomposition(g, ctx=ctx)
        results[dtype] = (d.trussness, d.support, d.peel_rounds)
    ref = results["int64"]
    for key, (tau, sup, rounds) in results.items():
        assert np.array_equal(tau, ref[0]), (name, key)
        assert np.array_equal(sup, ref[1]), (name, key)
        assert rounds == ref[2], (name, key)


@pytest.mark.process_backend
@needs_fork
@pytest.mark.parametrize("variant", VARIANTS)
def test_index_identical_under_process_and_balanced(variant):
    """End-to-end: every variant builds the same index under
    work-balanced partitions on the process backend as on the serial
    path."""
    g = _graph("er")
    ref = build_index(g, variant, ctx=ExecutionContext(backend="serial")).index
    with ExecutionContext(backend=ProcessBackend(min_items=0), num_workers=3) as ctx:
        got = build_index(g, variant, ctx=ctx).index
    assert got == ref, variant
