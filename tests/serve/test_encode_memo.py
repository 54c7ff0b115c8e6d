"""The engine's bounded ``(level, component)`` memo and the encode path.

A shard encodes each community's edge-id list once per index generation
(:meth:`QueryEngine.encoded_edge_ids`) and wraps those bytes in the
query's own ``{"k":…}`` for every answer. Pinned here:

* **byte identity** — every answer encoded through the memo equals the
  encoding of a fresh engine's answer without it, for every (vertex, k)
  including k between two levels and k above kmax, in any query order,
  and those bytes decode to the answer's serialized communities;
* **generations** — a ``DynamicEquiTruss`` update rebinds the engine,
  after which the memo serves the bytes of a from-scratch engine;
* **the budget** — arrays plus bytes never exceed
  :data:`~repro.serve.engine.MEMO_BUDGET_BYTES`, eviction is counted,
  and answers stay identical when it is tiny;
* **fallbacks** — an answer whose community left the memo is encoded
  afresh and counted in ``encode_fallbacks``; a warm engine never does;
* **read-only arrays** — a caller cannot write to a shared array.
"""

import json

import numpy as np
import pytest

from repro.equitruss import DynamicEquiTruss, build_index
from repro.graph import CSRGraph
from repro.graph.builder import build_edgelist
from repro.graph.generators import complete_graph, erdos_renyi_gnm, paper_example_graph
import repro.serve.engine as engine_mod
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import QueryEngine
from repro.serve.protocol import (
    decode_frame,
    encode_communities,
    ok_response,
    query_response_frame,
    serialize_communities,
)
from repro.serve.shard import ShardWorker


def er_with_clique(seed):
    """A seeded G(30, 160) plus a disjoint K8: the levels jump from the
    ER graph's top level to 8, so the ks in between resolve upwards."""
    er = erdos_renyi_gnm(30, 160, seed=seed)
    k8 = complete_graph(8)
    return build_edgelist(
        np.concatenate([er.u, k8.u + 30]), np.concatenate([er.v, k8.v + 30])
    )


GRAPHS = {
    "paper": paper_example_graph,
    "er0": lambda: erdos_renyi_gnm(30, 160, seed=0),
    "er1+k8": lambda: er_with_clique(1),
}


def index_of(name):
    return build_index(CSRGraph.from_edgelist(GRAPHS[name]()), "afforest").index


def reference(index, v, k):
    """The wire bytes a fresh, memo-free engine's answer encodes to,
    checked to decode to that answer."""
    answer = QueryEngine(index, cache_size=0).query(v, k, record=False)
    plain = encode_communities(answer)
    assert decode_frame(query_response_frame(7, v, k, plain)) == ok_response(
        7, vertex=v, k=k, communities=serialize_communities(answer)
    )
    return plain


def query_order(index):
    """Every (vertex, k) for k in 3..kmax+1: k-major, then vertex-major
    with the ks interleaved, then k-major again (all repeats)."""
    kmax = int(index.trussness.max())
    ks = list(range(3, kmax + 2))
    vs = range(index.graph.num_vertices)
    yield from ((v, k) for k in ks for v in vs)
    yield from ((v, k) for v in vs for k in (ks[::2] + ks[1::2]))
    yield from ((v, k) for k in ks for v in vs)


def memo_accounting(engine):
    held = sum(e.nbytes for e in engine._materialized.values())
    assert engine.stats()["memo_bytes"] == held
    return held


@pytest.mark.parametrize("cache_size", (0, 1024))
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_memo_bytes_identical_to_fresh_engine(name, cache_size):
    index = index_of(name)
    engine = QueryEngine(index, cache_size=cache_size)
    expected = {}
    for v, k in query_order(index):
        if (v, k) not in expected:
            expected[v, k] = reference(index, v, k)
        got = encode_communities(engine.query(v, k, record=False), engine)
        assert got == expected[v, k], (name, v, k)
    kmax = int(index.trussness.max())
    assert expected[0, kmax + 1] == b"[]"
    assert memo_accounting(engine) > 0


def test_between_level_ks_are_exercised():
    levels = QueryEngine(index_of("er1+k8")).components.levels.tolist()
    gaps = set(range(3, levels[-1])) - set(levels)
    assert gaps, levels
    index = index_of("er1+k8")
    engine = QueryEngine(index)
    for k in sorted(gaps):
        got = encode_communities(engine.query(30, k), engine)
        assert got == reference(index, 30, k)
        assert got.startswith(b'[{"k":%d,' % k)  # the query's k, not the level's


def test_batches_share_memo_across_ks():
    index = index_of("er1+k8")
    engine = QueryEngine(index, cache_size=0)
    vs = list(range(index.graph.num_vertices))
    for k in (3, 5, 3, 7, 4, 7):
        answers = engine.query_many(vs, k, record=False)
        assert [encode_communities(a, engine) for a in answers] == [
            reference(index, v, k) for v in vs
        ]


def test_refresh_after_dynamic_update_serves_fresh_bytes():
    g = CSRGraph.from_edgelist(erdos_renyi_gnm(28, 130, seed=6))
    dyn = DynamicEquiTruss(g)
    engine = QueryEngine.attach(dyn)
    pairs = [(v, k) for v in range(28) for k in (3, 4, 5)]
    for v, k in pairs:
        encode_communities(engine.query(v, k), engine)
    assert engine.stats()["memo_bytes"] > 0

    dyn.insert_edges([0, 1, 2, 5], [9, 9, 9, 9])
    dyn.remove_edges(dyn.graph.edges.u[:2], dyn.graph.edges.v[:2])

    fresh = build_index(dyn.graph, "afforest").index
    assert fresh == dyn.index
    for v, k in pairs:
        got = encode_communities(engine.query(v, k), engine)
        assert got == reference(fresh, v, k), (v, k)


def test_bind_drops_the_whole_memo():
    index = index_of("er0")
    engine = QueryEngine(index)
    for v in range(10):
        encode_communities(engine.query(v, 3), engine)
    assert engine.stats()["materialized_communities"] > 0
    engine.refresh(index)
    assert engine.stats()["materialized_communities"] == 0
    assert engine.stats()["memo_bytes"] == 0
    assert engine._by_array == {}


@pytest.mark.parametrize("budget", (64, 600, 2000))
def test_tiny_budget_bounds_memo_and_keeps_answers(monkeypatch, budget):
    # 64 bytes hold no community of this graph: every answer is encoded
    # afresh; the larger budgets hold a few and must evict
    monkeypatch.setattr(engine_mod, "MEMO_BUDGET_BYTES", budget)
    index = index_of("er1+k8")
    registry = MetricsRegistry()
    with use_registry(registry):
        engine = QueryEngine(index, cache_size=16)
        expected = {}
        for v, k in query_order(index):
            if (v, k) not in expected:
                expected[v, k] = reference(index, v, k)
            answer = engine.query(v, k, record=False)
            assert encode_communities(answer, engine) == expected[v, k], (v, k)
            assert memo_accounting(engine) <= budget
    stats = engine.stats()
    if budget == 64:
        assert stats["materialized_communities"] == 0
        assert stats["memo_evictions"] == 0
    else:
        assert stats["memo_evictions"] > 0
    assert registry.as_dict().get("repro.serve.engine.memo_evictions", 0) == (
        stats["memo_evictions"]
    )
    assert registry.gauge("repro.serve.engine.memo_bytes").value == stats["memo_bytes"]


def fallbacks(engine, registry):
    count = engine.stats()["encode_fallbacks"]
    assert registry.as_dict().get("repro.serve.engine.encode_fallbacks", 0) == count
    return count


def test_warm_engine_never_falls_back_to_encoding():
    index = index_of("er1+k8")
    registry = MetricsRegistry()
    with use_registry(registry):
        engine = QueryEngine(index, cache_size=1024)
        engine.warm()
        for v, k in query_order(index):  # every key three times
            encode_communities(engine.query(v, k, record=False), engine)
    assert engine.stats()["cache_hits"] > 0
    assert fallbacks(engine, registry) == 0


def test_answer_outliving_its_memo_entry_is_counted(monkeypatch):
    monkeypatch.setattr(engine_mod, "MEMO_BUDGET_BYTES", 600)
    index = index_of("er1+k8")
    registry = MetricsRegistry()
    with use_registry(registry):
        engine = QueryEngine(index, cache_size=1024)
        for v, k in query_order(index):
            got = encode_communities(engine.query(v, k, record=False), engine)
            assert got == reference(index, v, k), (v, k)
    assert engine.stats()["memo_evictions"] > 0
    assert fallbacks(engine, registry) > 0


def test_warm_stops_at_the_budget(monkeypatch):
    index = index_of("er1+k8")
    total = QueryEngine(index).warm()
    monkeypatch.setattr(engine_mod, "MEMO_BUDGET_BYTES", 1500)
    engine = QueryEngine(index)
    held = engine.warm()
    assert 0 < held < total
    assert held == engine.stats()["materialized_communities"]
    assert memo_accounting(engine) <= 1500
    assert engine.stats()["memo_evictions"] == 0  # warm stops, never evicts
    assert engine.warm() == held


def test_memoized_arrays_are_read_only():
    index = index_of("paper")
    engine = QueryEngine(index)
    (community, *_) = engine.query(0, 3)
    with pytest.raises(ValueError):
        community.edge_ids[0] = 0
    (batched, *_) = engine.query_many([0], 3)[0]
    assert batched.edge_ids is community.edge_ids
    engine.warm()
    for entry in engine._materialized.values():
        assert not entry.edge_ids.flags.writeable


def test_shard_batch_encodes_through_the_memo(served_store):
    _, index, store_path = served_store("paper")
    worker = ShardWorker(str(store_path), 0, 1)
    try:
        vs = list(range(index.graph.num_vertices))
        for k in (3, 4, 3, 6):
            expected = b"".join(reference(index, v, k) for v in vs)
            reply = worker.handle({"id": 1, "op": "batch", "k": k, "vertices": vs})
            header, body = reply.split(b"\n", 1)
            assert body == expected, k
            assert sum(json.loads(header)["sizes"]) == len(body)
        assert worker.engine.stats()["memo_bytes"] > 0
    finally:
        worker.close()
