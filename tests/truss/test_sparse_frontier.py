"""The sparse-frontier peel changes no decomposition output or schedule.

After each sub-round the next frontier is read off the sub-round's own
support decrements instead of a rescan of every edge. Over seeded
random, power-law, glued-clique and trussness-gap graphs, on the serial
backend and on the process backend with ``min_items=0``, the result must
equal the bucket-queue reference, and the schedule counters must equal
the values pinned below, which the full-rescan peel produced.
"""

import numpy as np
import pytest

from repro.graph import CSRGraph, build_edgelist
from repro.graph.generators import complete_graph, erdos_renyi_gnm, rmat_graph
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.parallel.context import ExecutionContext
from repro.parallel.shm import ProcessBackend, process_backend_available
from repro.truss.decompose import truss_decomposition, truss_decomposition_serial


def _union(*parts):
    """Edge list of cliques and extra edges, given as (u, v) arrays."""
    u = np.concatenate([p[0] for p in parts])
    v = np.concatenate([p[1] for p in parts])
    return CSRGraph.from_edgelist(build_edgelist(u, v))


def _clique(size: int, offset: int):
    k = complete_graph(size)
    return k.u + offset, k.v + offset


def _glued_cliques():
    """K4..K9 in a chain, each sharing one vertex with the next, plus a
    K6 sharing an edge with the K9: nested trussness levels that meet."""
    parts, offset = [], 0
    for size in range(4, 10):
        parts.append(_clique(size, offset))
        offset += size - 1
    parts.append(_clique(6, offset - 1))
    return _union(*parts)


def _trussness_gap():
    """A K14 with a pendant triangle and a K5 hanging off a path: levels
    4 and 6..13 stay empty."""
    path = (np.array([13, 14, 15, 16]), np.array([14, 15, 16, 17]))
    triangle = (np.array([0, 0, 18]), np.array([18, 19, 19]))
    return _union(_clique(14, 0), path, _clique(5, 17), triangle)


GRAPHS = {
    "er_sparse": lambda: CSRGraph.from_edgelist(erdos_renyi_gnm(300, 3000, seed=11)),
    "er_dense": lambda: CSRGraph.from_edgelist(erdos_renyi_gnm(120, 2000, seed=12)),
    "rmat_9": lambda: CSRGraph.from_edgelist(rmat_graph(9, 8, seed=13)),
    "rmat_10": lambda: CSRGraph.from_edgelist(rmat_graph(10, 6, seed=14)),
    "glued_cliques": _glued_cliques,
    "trussness_gap": _trussness_gap,
}

#: per graph: (peel_rounds, level_scans, repro.truss.support_decrements)
#: from the full-rescan peel, identical on both backends
PINNED = {
    "er_sparse": (9, 3, 2155),
    "er_dense": (30, 6, 10718),
    "rmat_9": (51, 12, 14596),
    "rmat_10": (80, 14, 25284),
    "glued_cliques": (6, 7, 4),
    "trussness_gap": (4, 6, 1),
}


def _decompose(graph, ctx):
    registry = MetricsRegistry()
    with use_registry(registry):
        dec = truss_decomposition(graph, ctx=ctx)
    decrements = registry.counter("repro.truss.support_decrements").value
    return dec, (dec.peel_rounds, dec.level_scans, int(decrements))


def _check(name, ctx):
    graph = GRAPHS[name]()
    dec, schedule = _decompose(graph, ctx)
    ref = truss_decomposition_serial(graph)
    assert np.array_equal(dec.trussness, ref.trussness)
    assert np.array_equal(dec.support, ref.support)
    assert dec.trussness.dtype == dec.support.dtype == np.int64
    assert schedule == PINNED[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_serial_peel_matches_reference_and_pinned_schedule(name):
    _check(name, ExecutionContext(backend="serial"))


@pytest.mark.process_backend
@pytest.mark.skipif(
    not process_backend_available(),
    reason="fork or POSIX shared memory unavailable",
)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_process_peel_matches_reference_and_pinned_schedule(name):
    ctx = ExecutionContext(backend=ProcessBackend(min_items=0), num_workers=3)
    try:
        _check(name, ctx)
    finally:
        ctx.close()


@pytest.mark.process_backend
@pytest.mark.skipif(
    not process_backend_available(),
    reason="fork or POSIX shared memory unavailable",
)
def test_process_peel_runs_on_the_coordinator():
    """Support and decrement counts come from the incidence and the
    sorted ``sides`` on every backend: no worker task runs under
    TrussDecomp, and the result equals the serial run's."""
    graph = GRAPHS["rmat_10"]()
    serial = truss_decomposition(graph, ctx=ExecutionContext(backend="serial"))
    ctx = ExecutionContext(backend=ProcessBackend(min_items=0), num_workers=2)
    try:
        dec = truss_decomposition(graph, ctx=ctx)
    finally:
        ctx.close()
    (peel,) = [s for s, _ in ctx.tracer.walk() if s.name == "TrussDecomp"]
    workers = [s.name for s, _ in peel.walk() if "worker_id" in s.attrs]
    assert workers == []
    # the enumeration before the region still fans out
    assert any("worker_id" in s.attrs for s, _ in ctx.tracer.walk())
    assert np.array_equal(dec.trussness, serial.trussness)
    assert np.array_equal(dec.support, serial.support)
    assert dec.peel_rounds == serial.peel_rounds
