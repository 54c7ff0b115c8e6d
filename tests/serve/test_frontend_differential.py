"""Differential serving correctness: the wire vs the in-process engine.

Every (vertex, k) pair of each test graph goes through a *live*
frontend — real TCP, real coalescing, real shard subprocesses
mmap-attaching the store — and must come back bit-identical to an
in-process :class:`~repro.serve.engine.QueryEngine` over the same
index, at 1, 2, and 4 shards. Since :func:`every_pair` includes the
above-kmax probes, empty answers are pinned too.

Cross-partition anchors are asserted, not hoped for: the suite checks
that at least one answered community spans vertices owned by different
shards, so the "every shard maps the full store" routing claim is
actually exercised.

Also pinned: the frontend routes every vertex to the shard whose
announced ``owned`` range holds it, and malformed raw client bytes each
end in a typed ``protocol`` error or a closed connection.
"""

import logging
import socket

import numpy as np
import pytest

from repro.serve import QueryEngine, ServeClient, protocol
from repro.serve.frontend import FrontendConfig, FrontendThread, ServingFrontend
from repro.serve.protocol import BlockOwnership, decode_frame, serialize_communities
from repro.serve.shard import ShardWorker
from tests.serve.test_engine_differential import every_pair

GRAPH_NAMES = ("er", "rmat", "paper")
SHARD_COUNTS = (1, 2, 4)


def wire_answers(host, port, pairs):
    """All ``pairs`` through one pipelined connection; (v, k) → communities."""
    with ServeClient(host, port) as client:
        responses = client.query_pipeline(pairs)
    answers = {}
    for rid, resp in responses.items():
        assert resp.get("ok"), resp
        answers[(resp["vertex"], resp["k"])] = resp["communities"]
    assert len(answers) == len(set(pairs))
    return answers


def community_spans_shards(graph, community, ownership):
    edge_ids = np.asarray(community["edge_ids"], dtype=np.int64)
    vertices = np.union1d(graph.edges.u[edge_ids], graph.edges.v[edge_ids])
    return len({ownership.owner(int(v)) for v in vertices}) > 1


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_every_pair_bit_identical_over_the_wire(served_store, name, shards):
    graph, index, store_path = served_store(name)
    engine = QueryEngine(index, cache_size=0)
    pairs = sorted(set(every_pair(index)))
    expected = {
        (v, k): serialize_communities(engine.query(v, k, record=False))
        for v, k in pairs
    }
    config = FrontendConfig(store_path=store_path, num_shards=shards)
    with FrontendThread(config) as server:
        got = wire_answers(server.host, server.port, pairs)
    mismatched = [pair for pair in pairs if got[pair] != expected[pair]]
    assert not mismatched, (name, shards, mismatched[:5])


@pytest.mark.parametrize("shards", (2, 4))
def test_communities_cross_partition_boundaries(served_store, shards):
    """Sharded answers include communities spanning ownership blocks."""
    graph, index, store_path = served_store("er")
    ownership = BlockOwnership(graph.num_vertices, shards)
    engine = QueryEngine(index, cache_size=0)
    pairs = sorted(set(every_pair(index)))
    config = FrontendConfig(store_path=store_path, num_shards=shards)
    with FrontendThread(config) as server:
        got = wire_answers(server.host, server.port, pairs)
    crossing = sum(
        community_spans_shards(graph, community, ownership)
        for answer in got.values()
        for community in answer
    )
    assert crossing > 0, "test graph has no cross-partition community"
    # ... and those answers matched the in-process engine bit for bit
    for v, k in pairs:
        assert got[(v, k)] == serialize_communities(
            engine.query(v, k, record=False)
        ), (v, k)


def test_block_ownership_ranges_tile_the_vertices():
    """Shard ranges are contiguous, in rank order, and cover ``[0, n)``
    exactly once, also with more shards than vertices; ``owner`` maps
    each vertex to the shard whose range holds it."""
    for num_vertices in (0, 1, 3, 6, 17, 100):
        for shards in (1, 2, 3, 4, 7):
            ownership = BlockOwnership(num_vertices, shards)
            ranges = [ownership.owned_range(rank) for rank in range(shards)]
            assert ranges[0][0] == 0 and ranges[-1][1] == num_vertices
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo, (num_vertices, shards, ranges)
            for rank, (lo, hi) in enumerate(ranges):
                assert lo <= hi
                assert all(ownership.owner(v) == rank for v in range(lo, hi))


def test_frontend_routes_to_the_announced_owner(served_store):
    """Every vertex routes to the shard whose ready frame's ``owned``
    range holds it."""
    graph, _, store_path = served_store("er")
    for shards in (1, 2, 3, 4, 7):
        frontend = ServingFrontend(
            FrontendConfig(store_path=store_path, num_shards=shards)
        )
        owned = [
            ShardWorker(str(store_path), rank, shards).ready_frame()["owned"]
            for rank in range(shards)
        ]
        for v in range(graph.num_vertices):
            lo, hi = owned[frontend._ownership.owner(v)]
            assert lo <= v < hi, (shards, v, owned)


def test_invalid_queries_get_typed_errors(served_store):
    _, _, store_path = served_store("paper")
    config = FrontendConfig(store_path=store_path, num_shards=1)
    with FrontendThread(config) as server, ServeClient(
        server.host, server.port
    ) as client:
        for fields, expect in (
            ({"vertex": -1, "k": 3}, "invalid_parameter"),
            ({"vertex": 10**9, "k": 3}, "invalid_parameter"),
            ({"vertex": 0, "k": 2}, "invalid_parameter"),
            # malformed types are wire-protocol errors, not bad parameters
            ({"vertex": 0.5, "k": 3}, "protocol"),
            ({"vertex": True, "k": 3}, "protocol"),
            ({"k": 3}, "protocol"),
        ):
            rid = client.send("query", **fields)
            resp = client.recv()
            assert resp["id"] == rid
            assert not resp["ok"]
            assert resp["error"]["type"] == expect, fields
        rid = client.send("nonsense-op")
        resp = client.recv()
        assert resp["id"] == rid and resp["error"]["type"] == "protocol"
        assert client.ping()["pong"] is True  # connection still healthy


#: oversize-frame limit the fuzz test patches in, so a frame past it is small
FUZZ_FRAME_LIMIT = 4096

#: raw client bytes → the reply ids the frontend must answer, in any
#: order, before it closes the connection; ``None`` ids are protocol
#: errors that could not echo one, other ids an ``ok`` or typed error.
RAW_FRAMES = {
    "non_utf8": (b'\xff\xfe{"id":1,"op":"ping"}\n', [None]),
    "non_json": (b"ping please\n", [None]),
    "json_list": (b'[{"id":1,"op":"ping"}]\n', [None]),
    "unknown_op": (b'{"id":1,"op":"frobnicate"}\n', [1]),
    "dict_valued_op": (b'{"id":1,"op":{"name":"ping"}}\n', [1]),
    "non_string_metrics_format": (b'{"id":1,"op":"metrics","format":7}\n', [1]),
    "cut_short_by_half_close": (
        b'{"id":1,"op":"query","vertex":0,"k":3}\n{"id":2,"op":"qu', [1, None]
    ),
    "oversize": (
        b'{"id":1,"op":"ping","pad":"' + b"x" * (FUZZ_FRAME_LIMIT + 100)
        + b'"}\n{"id":2,"op":"ping"}\n',
        [None],
    ),
}


def raw_replies(host, port, payload):
    """Send ``payload`` on a fresh connection, half-close it, and read
    reply frames until the frontend closes."""
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as rfile:
            return [decode_frame(line) for line in iter(rfile.readline, b"")]


def test_raw_client_frames_end_typed_or_closed(
    served_store, monkeypatch, caplog
):
    """Malformed client bytes each get a typed reply (the ``protocol``
    error type for malformed frames) and then a closed connection; an
    oversize frame gets one ``id: null`` error and nothing after it,
    since the rest of its stream is out of step. None of them leaves an
    admitted request behind or an error in asyncio's log."""
    _, _, store_path = served_store("paper")
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", FUZZ_FRAME_LIMIT)
    caplog.set_level(logging.ERROR)
    config = FrontendConfig(store_path=store_path, num_shards=1)
    with FrontendThread(config) as server:
        for case, (payload, ids) in RAW_FRAMES.items():
            replies = raw_replies(server.host, server.port, payload)
            assert sorted(map(str, (r["id"] for r in replies))) == sorted(
                map(str, ids)
            ), (case, replies)
            for reply in replies:
                if reply["id"] is None or not reply["ok"]:
                    assert reply["error"]["type"] == "protocol", (case, reply)
        assert server.frontend._admitted == 0
        with ServeClient(server.host, server.port) as client:
            assert client.ping()["pong"] is True
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
