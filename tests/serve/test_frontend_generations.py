"""Local empty answers follow the generation the shards serve.

The frontend answers a query with ``k`` above its vertex's max
trussness itself, from a table derived from the store file. These
tests move the shards' index every way it can move under a live
2-shard frontend: journal replays on ``refresh``, auto-refresh, a
rebuild swap, a shard respawned onto a swapped file, and a shard
respawned after a journal replay (it replays up to the generation it
served, not past its sibling). After each
move every ``every_pair`` pair of the old and the new index must come
back over the wire equal to an engine built from scratch on the
writer's graph. Local answers must happen exactly while the table
describes what every shard serves, and ``local_answers`` and
``table_generation`` in ``stats`` show it. Vertices that a refresh or a
swap adds must be in range over the wire.
"""

import itertools
import os
import signal
import time

import numpy as np
import pytest

from repro.equitruss import DynamicEquiTruss, build_index
from repro.errors import (
    InvalidParameterError,
    ShardUnavailableError,
    WireProtocolError,
)
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_gnm
from repro.serve import QueryEngine, ServeClient
from repro.serve.frontend import FrontendConfig, FrontendThread
from repro.serve.protocol import (
    BlockOwnership,
    decode_frame,
    raise_for_error,
    serialize_communities,
)
from repro.serve.shard import ShardWorker
from repro.store.journal import StoreJournal
from tests.serve.test_engine_differential import every_pair

BATCHES = 2
CLIQUE = 7


@pytest.fixture
def store(tmp_path):
    graph = CSRGraph.from_edgelist(erdos_renyi_gnm(36, 140, seed=21))
    path = tmp_path / "g.eqtsidx"
    build_index(graph, "afforest", store_path=path)
    return graph, path


def engine_answers(graph, pairs):
    """``(v, k) -> communities`` of an engine built from scratch."""
    engine = QueryEngine(build_index(graph, "afforest").index, cache_size=0)
    return {
        (v, k): serialize_communities(engine.query(v, k, record=False))
        for v, k in pairs
    }


def wire_answers(client, pairs):
    answers = {}
    for resp in client.query_pipeline(pairs).values():
        assert resp.get("ok"), resp
        answers[(resp["vertex"], resp["k"])] = resp["communities"]
    return answers


def check_pairs(client, graph, *indexes):
    """Every pair of ``indexes`` over the wire equals a scratch engine
    on ``graph``; returns the expected answers."""
    pairs = sorted(set().union(*(every_pair(index) for index in indexes)))
    expected = engine_answers(graph, pairs)
    got = wire_answers(client, pairs)
    mismatched = [pair for pair in pairs if got[pair] != expected[pair]]
    assert not mismatched, mismatched[:5]
    return expected


def frontend_stats(client):
    return client.stats()["frontend"]


def insert_clique(dyn, rng):
    """Insert a clique on random vertices: their max trussness rises."""
    members = rng.choice(dyn.graph.num_vertices, CLIQUE, replace=False)
    us, vs = zip(*itertools.combinations(sorted(members.tolist()), 2))
    dyn.insert_edges(list(us), list(vs))


def remove_some(dyn, rng, count=12):
    edges = dyn.graph.edges
    picks = rng.choice(edges.num_edges, count, replace=False)
    dyn.remove_edges(edges.u[picks].copy(), edges.v[picks].copy())


def answered_wrong_by(old_index, expected):
    """The non-empty pairs a table of ``old_index`` would answer empty: a
    frontend that ignored generations would fail on each of them."""
    table = old_index.vertex_max_trussness()
    return [
        (v, k) for (v, k), communities in expected.items()
        if communities and k > table[v]
    ]


def kill_shard(client, rank):
    os.kill(client.stats()["shards"][rank]["pid"], signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while client.stats()["shards"][rank]["alive"]:
        assert time.monotonic() < deadline, "kill went unnoticed"
        time.sleep(0.01)


def updates(dyn, rng):
    """The writer's batches: a clique insert, then a removal, per round."""
    for _ in range(BATCHES):
        yield lambda: insert_clique(dyn, rng)
        yield lambda: remove_some(dyn, rng)


def test_refresh_after_each_batch_then_a_swap_resumes_local_answers(store):
    graph, path = store
    journal = StoreJournal.for_store(path)
    dyn = DynamicEquiTruss(graph, "afforest")
    dyn.publish_to(journal)
    rng = np.random.default_rng(5)
    config = FrontendConfig(store_path=path, num_shards=2)
    with FrontendThread(config) as server:
        with ServeClient(server.host, server.port) as client:
            check_pairs(client, dyn.graph, dyn.index)
            stats = frontend_stats(client)
            assert stats["local_answers"] > 0
            assert stats["table_generation"] == 1

            stale = []
            for update in updates(dyn, rng):
                old = dyn.index
                update()
                reports = client.refresh()
                assert [r["applied"] for r in reports] == [1, 1]
                expected = check_pairs(client, dyn.graph, old, dyn.index)
                stale += answered_wrong_by(old, expected)
                after = frontend_stats(client)
                assert after["local_answers"] == stats["local_answers"]
                assert after["table_generation"] is None
                assert client.ping()["generation"] == journal.generation
            assert stale  # some batch made an old table answer wrongly

            swap = journal.generation + 1
            build_index(dyn.graph, "afforest", store_path=path,
                        store_generation=swap)
            journal.reset(swap)
            reports = client.refresh()
            assert all(r["swapped"] and r["applied"] == 0 for r in reports)
            check_pairs(client, dyn.graph, dyn.index)
            after = frontend_stats(client)
            assert after["local_answers"] > stats["local_answers"]
            assert after["table_generation"] == swap
            assert client.ping()["generation"] == swap


def test_auto_refresh_never_answers_locally(store):
    graph, path = store
    journal = StoreJournal.for_store(path)
    dyn = DynamicEquiTruss(graph, "afforest")
    dyn.publish_to(journal)
    rng = np.random.default_rng(6)
    config = FrontendConfig(store_path=path, num_shards=2, auto_refresh=True)
    with FrontendThread(config) as server:
        with ServeClient(server.host, server.port) as client:
            check_pairs(client, dyn.graph, dyn.index)
            for update in updates(dyn, rng):
                old = dyn.index
                update()
                check_pairs(client, dyn.graph, old, dyn.index)
                stats = frontend_stats(client)
                assert stats["local_answers"] == 0
                assert stats["table_generation"] is None


def test_shard_respawned_onto_a_swapped_file_stops_local_answers(store):
    graph, path = store
    old_index = build_index(graph, "afforest").index
    dyn = DynamicEquiTruss(graph, "afforest")
    insert_clique(dyn, np.random.default_rng(7))
    ownership = BlockOwnership(graph.num_vertices, 2)
    config = FrontendConfig(store_path=path, num_shards=2)
    with FrontendThread(config) as server:
        with ServeClient(server.host, server.port) as client:
            # a swap no shard has seen: local answers still match the
            # generation every shard serves
            build_index(dyn.graph, "afforest", store_path=path,
                        store_generation=2)
            check_pairs(client, graph, old_index)
            before = frontend_stats(client)
            assert before["local_answers"] > 0
            assert before["table_generation"] == 1
            assert client.ping()["generation"] == 1

            kill_shard(client, 0)
            lo, _ = ownership.owned_range(0)
            client.query(int(lo), 3)  # routed: respawns shard 0 at gen 2
            assert client.stats()["shards"][0]["restarts"] == 1
            assert client.ping()["generation"] == 2

            # shard 0 serves the swapped file, shard 1 the old one
            pairs = sorted(set(every_pair(old_index)) | set(every_pair(dyn.index)))
            new = engine_answers(dyn.graph, pairs)
            old = engine_answers(graph, pairs)
            got = wire_answers(client, pairs)
            for v, k in pairs:
                want = new if ownership.owner(v) == 0 else old
                assert got[(v, k)] == want[(v, k)], (v, k)
            assert answered_wrong_by(old_index, {
                pair: new[pair] for pair in pairs if ownership.owner(pair[0]) == 0
            })
            after = frontend_stats(client)
            assert after["local_answers"] == before["local_answers"]
            assert after["table_generation"] is None


def test_shard_respawned_after_a_journal_replay_serves_its_generation(store):
    graph, path = store
    journal = StoreJournal.for_store(path)
    dyn = DynamicEquiTruss(graph, "afforest")
    dyn.publish_to(journal)
    rng = np.random.default_rng(8)
    ownership = BlockOwnership(graph.num_vertices, 2)
    config = FrontendConfig(store_path=path, num_shards=2)
    with FrontendThread(config) as server:
        with ServeClient(server.host, server.port) as client:
            base = dyn.index
            insert_clique(dyn, rng)
            assert [r["applied"] for r in client.refresh()] == [1, 1]
            refreshed_graph, refreshed = dyn.graph, dyn.index
            served = journal.generation
            # journalled but not refreshed: no shard may serve it yet
            insert_clique(dyn, rng)
            assert journal.generation == served + 1

            kill_shard(client, 0)
            lo, _ = ownership.owned_range(0)
            client.query(int(lo), 3)  # routed: respawns shard 0
            stats = client.stats()
            assert stats["shards"][0]["restarts"] == 1
            assert [s["stats"]["generation"] for s in stats["shards"]] == [
                served, served,
            ]
            check_pairs(client, refreshed_graph, base, refreshed, dyn.index)


def add_clique(dyn, members):
    """Insert a clique on ``members``, ids past the graph's included."""
    us, vs = zip(*itertools.combinations(members, 2))
    dyn.insert_edges(list(us), list(vs))


def check_new_vertices(client, graph, vertices):
    pairs = [(v, k) for v in vertices for k in (3, 4)]
    expected = engine_answers(graph, pairs)
    assert wire_answers(client, pairs) == expected
    assert all(expected[(v, 4)] for v in vertices)  # each sits in a K4


def test_vertices_added_by_a_refresh_or_a_swap_are_in_range(store):
    graph, path = store
    n = graph.num_vertices
    journal = StoreJournal.for_store(path)
    dyn = DynamicEquiTruss(graph, "afforest")
    dyn.publish_to(journal)
    config = FrontendConfig(store_path=path, num_shards=2)
    with FrontendThread(config) as server:
        with ServeClient(server.host, server.port) as client:
            assert frontend_stats(client)["num_vertices"] == n
            add_clique(dyn, [0, n, n + 1, n + 2])
            assert [r["applied"] for r in client.refresh()] == [1, 1]
            check_new_vertices(client, dyn.graph, [n, n + 1, n + 2])
            assert frontend_stats(client)["num_vertices"] == n + 3
            check_pairs(client, dyn.graph, dyn.index)

            add_clique(dyn, [n + 3, n + 4, n + 5, n + 6])
            swap = journal.generation + 1
            build_index(dyn.graph, "afforest", store_path=path,
                        store_generation=swap)
            journal.reset(swap)
            assert all(r["swapped"] for r in client.refresh())
            check_new_vertices(client, dyn.graph, [n + 3, n + 4, n + 5, n + 6])
            assert frontend_stats(client)["num_vertices"] == n + 7
            check_pairs(client, dyn.graph, dyn.index)
            (resp,) = client.query_pipeline([(n + 7, 3)]).values()
            with pytest.raises(InvalidParameterError, match="out of range"):
                raise_for_error(resp)


def test_shard_refresh_until_must_be_an_integer(store):
    _, path = store
    worker = ShardWorker(str(path), 0, 1)
    try:
        reply = decode_frame(worker.handle({"id": 1, "op": "refresh", "until": "2"}))
        with pytest.raises(WireProtocolError, match="until"):
            raise_for_error(reply)
        reply = decode_frame(worker.handle({"id": 2, "op": "refresh", "until": 1}))
        assert raise_for_error(reply)["generation"] == 1
    finally:
        worker.close()


def test_unattachable_store_fails_start_typed(store):
    _, path = store
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 64)  # header intact, payload cut
    with pytest.raises(ShardUnavailableError, match="cannot attach"):
        FrontendThread(FrontendConfig(store_path=path, num_shards=2)).start()
