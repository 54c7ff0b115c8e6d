"""Property/fuzz tests for the frontend's request coalescing.

Randomized concurrent schedules — many pipelined client connections,
jittered send times, some connections dropped mid-flight — against one
live frontend, with the invariants that must survive any interleaving:

* every surviving client receives **exactly** the response ids it sent
  (no drops, no duplicates, no leaks of another client's responses);
* every response is bit-identical to the in-process engine's answer
  for that (vertex, k), regardless of which coalesced batch carried it;
* no coalesced batch ever exceeds ``max_batch`` (read back from the
  ``coalesce_batch_size`` histogram of an isolated metrics registry);
* a request to an idle shard is sent at once as its own batch, and
  requests queued behind a busy shard ride one batch when it returns.

Client disconnects model cancellation: the frontend still runs those
batches (shards answer), but the responses have nowhere to go and must
not corrupt other connections or wedge the server.
"""

import random
import threading
import time

import pytest

from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import QueryEngine, ServeClient
from repro.serve.frontend import FrontendConfig, FrontendThread
from repro.serve.protocol import serialize_communities

CLIENTS = 6
QUERIES_PER_CLIENT = 40
KS = (3, 4, 5)
MAX_BATCH = 8


def oracle_for(index):
    engine = QueryEngine(index, cache_size=0)
    cache = {}

    def lookup(vertex, k):
        if (vertex, k) not in cache:
            cache[(vertex, k)] = serialize_communities(
                engine.query(vertex, k, record=False)
            )
        return cache[(vertex, k)]

    return lookup


class FuzzClient(threading.Thread):
    """One pipelined connection with a jittered, seeded send schedule."""

    def __init__(self, host, port, cid, seed, num_vertices, drop_after=None):
        super().__init__(daemon=True)
        self.host, self.port, self.cid = host, port, cid
        self.rng = random.Random(seed)
        self.num_vertices = num_vertices
        self.drop_after = drop_after  # send this many, then vanish
        self.sent: dict = {}  # id -> (vertex, k)
        self.received: dict = {}  # id -> response frame
        self.error = None

    def run(self):
        try:
            self._run()
        except BaseException as exc:  # surfaced by the test body
            self.error = exc

    def _run(self):
        client = ServeClient(self.host, self.port, timeout=60.0)
        try:
            budget = (
                self.drop_after
                if self.drop_after is not None
                else QUERIES_PER_CLIENT
            )
            for i in range(budget):
                vertex = self.rng.randrange(self.num_vertices)
                k = self.rng.choice(KS)
                rid = f"c{self.cid}-{i}"
                client.send("query", req_id=rid, vertex=vertex, k=k)
                self.sent[rid] = (vertex, k)
                if self.rng.random() < 0.3:
                    time.sleep(self.rng.random() * 0.005)
            if self.drop_after is not None:
                return  # disconnect with responses still in flight
            while len(self.received) < len(self.sent):
                resp = client.recv()
                rid = resp.get("id")
                assert rid in self.sent, f"leaked foreign response id {rid!r}"
                assert rid not in self.received, f"duplicate response {rid!r}"
                self.received[rid] = resp
            # nothing further may arrive once every id is answered
            client._sock.settimeout(0.2)
            try:
                extra = client.recv()
            except (TimeoutError, OSError, ServeError):
                extra = None
            assert extra is None, f"unsolicited extra frame {extra!r}"
        finally:
            client.close()


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_fuzz_concurrent_schedules_no_loss_no_dup_no_leak(served_store, seed):
    graph, index, store_path = served_store("er")
    oracle = oracle_for(index)
    registry = MetricsRegistry()
    config = FrontendConfig(
        store_path=store_path, num_shards=2,
        max_batch=MAX_BATCH, max_pending=4096,
    )
    with use_registry(registry), FrontendThread(config) as server:
        droppers = {1, 4} if seed % 2 else {0}
        clients = [
            FuzzClient(
                server.host, server.port, cid, seed * 977 + cid,
                graph.num_vertices,
                drop_after=QUERIES_PER_CLIENT // 2 if cid in droppers else None,
            )
            for cid in range(CLIENTS)
        ]
        for c in clients:
            c.start()
        for c in clients:
            c.join(timeout=120)
            assert not c.is_alive(), f"client {c.cid} wedged"
        for c in clients:
            if c.error is not None:
                raise c.error
        # the frontend survived the disconnects and still answers
        with ServeClient(server.host, server.port) as probe:
            assert probe.ping()["pong"] is True
    for c in clients:
        if c.drop_after is not None:
            continue
        assert set(c.received) == set(c.sent), c.cid
        for rid, resp in c.received.items():
            assert resp["ok"], (c.cid, rid, resp)
            vertex, k = c.sent[rid]
            assert resp["vertex"] == vertex and resp["k"] == k
            assert resp["communities"] == oracle(vertex, k), (c.cid, rid)
    hist = registry.as_dict().get("repro.serve.frontend.coalesce_batch_size")
    assert hist is not None and hist["count"] > 0
    assert hist["max"] <= MAX_BATCH
    # coalescing actually coalesced: fewer batches than admitted requests
    answered = registry.as_dict()["repro.serve.frontend.requests"]
    assert hist["count"] < answered


def test_lone_request_sent_as_own_batch(served_store):
    """A query to an idle shard goes out at once, alone in its batch."""
    _, index, store_path = served_store("paper")
    oracle = oracle_for(index)
    registry = MetricsRegistry()
    config = FrontendConfig(store_path=store_path, num_shards=1, max_batch=1024)
    vertices = (0, 3, 7)
    with use_registry(registry), FrontendThread(config) as server, ServeClient(
        server.host, server.port, timeout=30.0
    ) as client:
        for vertex in vertices:
            t0 = time.perf_counter()
            answer = client.query(vertex, 3)
            elapsed = time.perf_counter() - t0
            assert answer == oracle(vertex, 3)
            # shard round trip with CI headroom; the point is it does
            # not wait for 1023 peers that never come
            assert elapsed < 5.0
    hist = registry.as_dict()["repro.serve.frontend.coalesce_batch_size"]
    assert hist["count"] == len(vertices), "one batch per lone request"
    assert hist["max"] == 1


def test_same_k_queued_behind_busy_shard_rides_one_batch(served_store):
    """Same-k queries queued behind a busy shard coalesce, capped."""
    _, index, store_path = served_store("er")
    oracle = oracle_for(index)
    registry = MetricsRegistry()
    config = FrontendConfig(
        store_path=store_path, num_shards=1, max_batch=MAX_BATCH,
        shard_args=("--delay-ms", "200"),  # pin the first batch in flight
    )
    with use_registry(registry), FrontendThread(config) as server:
        with ServeClient(server.host, server.port) as client:
            pairs = [(v, 3) for v in range(2 * MAX_BATCH)]
            responses = client.query_pipeline(pairs)
            assert len(responses) == len(pairs)
            for resp in responses.values():
                assert resp["ok"], resp
                assert resp["communities"] == oracle(resp["vertex"], 3)
    hist = registry.as_dict()["repro.serve.frontend.coalesce_batch_size"]
    assert 2 <= hist["max"] <= MAX_BATCH, hist
