"""The sort primitives change no build output.

The incidence and level tables the build derives through
``repro.utils.sorting`` are compared with the same tables built by
NumPy's ``argsort(kind="stable")`` and ``np.unique``
(:mod:`tests.equitruss.sort_oracles`). The decomposition and every
variant's index must also hash to the digests pinned below, which
builds made with those NumPy calls produced, on the serial backend and
on the process backend with ``min_items=0``.
"""

import hashlib

import numpy as np
import pytest

from repro.equitruss.levels import build_level_structures
from repro.equitruss.pipeline import build_index
from repro.equitruss.serial import equitruss_serial
from repro.graph import CSRGraph, build_graph
from repro.graph.generators import erdos_renyi_gnm, paper_example_graph
from repro.parallel.context import ExecutionContext
from repro.parallel.shm import ProcessBackend, process_backend_available
from repro.triangles.enumerate import enumerate_triangles
from repro.triangles.incidence import EdgeTriangleIncidence
from repro.truss.decompose import truss_decomposition
from tests.equitruss.sort_oracles import (
    ArgsortIncidence,
    build_level_structures_argsort,
)

GRAPHS = {
    "paper": lambda: CSRGraph.from_edgelist(paper_example_graph()),
    "er_sparse": lambda: CSRGraph.from_edgelist(erdos_renyi_gnm(200, 1500, seed=1)),
    "er_dense": lambda: CSRGraph.from_edgelist(erdos_renyi_gnm(300, 4000, seed=2)),
    "no_triangles": lambda: build_graph([0, 1, 2, 3, 0], [1, 2, 3, 4, 5]),
}
VARIANTS = ("serial", "baseline", "coptimal", "afforest")
#: per graph: (trussness + support digest, peel_rounds), index digest —
#: from builds that grouped with ``argsort(kind="stable")`` and
#: ``np.unique``; every variant builds the same index
PINNED = {
    "paper": (("4f1f5fc648e5d882", 5), "831f53971f97b152"),
    "er_sparse": (("759327cf185fcd94", 11), "1844b01dd09c7774"),
    "er_dense": (("520cfb5684c869b4", 22), "db3a841fb257a458"),
    "no_triangles": (("6163e619ecf36733", 1), "bd3d9c844526349a"),
}
INDEX_ARRAYS = (
    "trussness", "edge_supernode", "supernode_trussness",
    "supernode_indptr", "supernode_edges", "superedges",
)
LEVEL_ARRAYS = (
    "hook_a", "hook_b", "hook_k", "se_lo", "se_hi", "se_k", "levels",
    "adj_indptr", "adj_neighbors",
)


def _same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _build_digests(g, ctx) -> dict:
    """(trussness + support digest, peel_rounds) and each variant's
    index digest for one build."""
    tri = enumerate_triangles(g, ctx=ctx)
    dec = truss_decomposition(g, triangles=tri, ctx=ctx)
    out = {"decomp": (_digest(dec.trussness, dec.support), dec.peel_rounds)}
    for v in VARIANTS:
        if v == "serial":
            index = equitruss_serial(g, decomp=dec, ctx=ctx)
        else:
            index = build_index(g, v, ctx=ctx, decomp=dec, triangles=tri).index
        out[v] = _digest(*(getattr(index, name) for name in INDEX_ARRAYS))
    return out


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("with_ctx", [False, True])
def test_incidence_equals_argsort_oracle(name, with_ctx):
    tri = enumerate_triangles(GRAPHS[name]())
    ctx = ExecutionContext() if with_ctx else None
    got = EdgeTriangleIncidence(tri, ctx=ctx)
    want = ArgsortIncidence(tri, ctx=ctx)
    _same(got.indptr, want.indptr)
    _same(got.tri_ids, want.tri_ids)


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("with_ctx", [False, True])
def test_level_structures_equal_argsort_oracle(name, with_ctx):
    g = GRAPHS[name]()
    tri = enumerate_triangles(g)
    tau = truss_decomposition(g, triangles=tri).trussness
    ctx = ExecutionContext() if with_ctx else None
    got = build_level_structures(tri, tau, with_adjacency=True, ctx=ctx)
    want = build_level_structures_argsort(tri, tau, with_adjacency=True, ctx=ctx)
    for field in LEVEL_ARRAYS:
        _same(getattr(got, field), getattr(want, field))


def _assert_pinned(name, ctx):
    decomp, index = PINNED[name]
    got = _build_digests(GRAPHS[name](), ctx)
    assert got == {"decomp": decomp, **{v: index for v in VARIANTS}}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_serial_build_hashes_as_pinned(name):
    _assert_pinned(name, ExecutionContext(backend="serial"))


@pytest.mark.process_backend
@pytest.mark.skipif(
    not process_backend_available(),
    reason="fork or POSIX shared memory unavailable",
)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_process_build_hashes_as_pinned(name):
    ctx = ExecutionContext(backend=ProcessBackend(min_items=0), num_workers=3)
    try:
        _assert_pinned(name, ctx)
    finally:
        ctx.close()
