"""The store's serving promises on a bench-sized graph.

A store written once (2,000 vertices, 20,000 edges, the size the
serving stack is smoke-tested at) must:

* attach in four processes at once, each child answering like the
  in-memory index and exiting 0;
* attach warm at least 20× faster than rebuilding what it replaces:
  ``build_index`` + the component sweep + an engine bind, best of three
  each, in the same process.
"""

import multiprocessing as mp

import pytest

from repro.community import search_communities
from repro.equitruss.pipeline import build_index
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_gnm
from repro.serve.components import LevelComponents
from repro.serve.engine import QueryEngine
from repro.store import attach_store
from repro.store.writer import write_store
from tests.timing import best_of, under_tracer

N, M = 2_000, 20_000
VARIANT = "afforest"
#: Attach must beat a rebuild by at least this factor.
SPEEDUP_FLOOR = 20.0
CONCURRENT_ATTACHES = 4
#: Vertices each concurrent child queries at k = 3.
PROBES = tuple(range(0, N, N // 16))


@pytest.fixture(scope="module")
def bench_store(tmp_path_factory):
    """``(graph, index, store_path)`` for the bench-sized gnm graph."""
    graph = CSRGraph.from_edgelist(erdos_renyi_gnm(N, M, seed=42))
    index = build_index(graph, VARIANT).index
    path = tmp_path_factory.mktemp("attach_bench") / f"gnm_{N}_{M}.eqtsidx"
    write_store(index, path, components=LevelComponents(index),
                dataset=f"gnm_{N}_{M}")
    return graph, index, path


def rebuild(graph):
    """What a serving process pays without a store."""
    index = build_index(graph, VARIANT).index
    QueryEngine(index, components=LevelComponents(index))


def attach_and_bind(path):
    store = attach_store(path)
    store.engine()
    store.close()


def _attach_and_answer(path, expected):
    """Child body: attach, bind an engine, check the probe answers."""
    with attach_store(path) as store:
        engine = store.engine()
        for q, want in zip(PROBES, expected):
            got = [c.edge_ids.tolist() for c in engine.query(q, 3)]
            if got != want:
                raise SystemExit(f"vertex {q}: attached answer differs")


def test_concurrent_attach_in_four_processes(bench_store):
    _, index, path = bench_store
    expected = [
        [c.edge_ids.tolist() for c in search_communities(index, q, 3)]
        for q in PROBES
    ]
    assert any(expected), "no probe vertex has a 3-truss community"
    ctx = mp.get_context("spawn")
    children = [
        ctx.Process(target=_attach_and_answer, args=(str(path), expected))
        for _ in range(CONCURRENT_ATTACHES)
    ]
    for child in children:
        child.start()
    for child in children:
        child.join(timeout=120)
    assert [c.exitcode for c in children] == [0] * CONCURRENT_ATTACHES


@pytest.mark.skipif(
    under_tracer(),
    reason="the attach is mostly interpreted code and the rebuild mostly "
           "numpy, so under a line tracer their ratio measures the tracer",
)
def test_warm_attach_beats_rebuild_by_the_floor(bench_store):
    graph, _, path = bench_store
    attach_and_bind(path)  # warm the page cache
    t_rebuild, _ = best_of(rebuild, graph)
    t_attach, _ = best_of(attach_and_bind, path)
    assert t_rebuild >= SPEEDUP_FLOOR * t_attach, (
        f"attach {t_attach * 1e3:.2f} ms is only "
        f"{t_rebuild / t_attach:.1f}x faster than rebuild "
        f"{t_rebuild * 1e3:.2f} ms (floor {SPEEDUP_FLOOR:.0f}x)"
    )
