"""Fault injection against the serving frontend.

Three failure families the frontend must convert into *typed* protocol
errors rather than hangs or timeouts:

* **shard crash mid-stream** — SIGKILL a shard worker while its batch
  is pinned in flight (the shard's ``--delay-ms`` knob makes this
  deterministic): every request in that batch fails with
  ``shard_unavailable``; the requests queued behind it are sent only
  after that failure, so they transparently respawn the worker and
  answer correctly, as do the requests routed to the surviving shard;
* **restart exhaustion** — with ``restart_limit=0`` a crashed shard is
  never respawned and keeps failing typed, immediately;
* **overload** — with a tiny admission limit, a burst gets
  ``backpressure`` rejections *immediately* (the rejected requests
  never enter a queue to time out in), while the admitted ones still
  answer correctly.
"""

import os
import signal
import time

from repro.serve import QueryEngine, ServeClient
from repro.serve.frontend import FrontendConfig, FrontendThread
from repro.serve.protocol import serialize_communities


def shard_infos(client):
    """rank -> (pid, owned range) from a live frontend's stats."""
    info = {}
    for entry in client.stats()["shards"]:
        lo, hi = entry["stats"]["owned"]
        info[entry["rank"]] = (entry["pid"], (lo, hi))
    return info


def test_sigkill_mid_stream_typed_errors_then_respawn(served_store):
    graph, index, store_path = served_store("er")
    engine = QueryEngine(index, cache_size=0)
    config = FrontendConfig(
        store_path=store_path, num_shards=2,
        call_timeout_s=60.0,
        shard_args=("--delay-ms", "400"),  # pin batches in flight
    )
    with FrontendThread(config) as server:
        with ServeClient(server.host, server.port, timeout=60.0) as client:
            infos = shard_infos(client)
            victim_pid, (vlo, vhi) = infos[0]
            _, (slo, shi) = infos[1]
            victims = [vlo, vlo + 1, vlo + 2]
            survivors = [slo, slo + 1]
            assert vhi > vlo + 2 and shi > slo + 1

            ids = [
                client.send("query", vertex=v, k=3)
                for v in victims + survivors
            ]
            # each idle shard got its first request as a batch of one and
            # is sleeping on it; every later request waits in the buffer
            time.sleep(0.15)
            os.kill(victim_pid, signal.SIGKILL)
            responses = client.collect(ids)

            def expect(vertex):
                return serialize_communities(engine.query(vertex, 3, record=False))

            pinned = responses[ids[0]]
            assert not pinned["ok"], (victims[0], pinned)
            assert pinned["error"]["type"] == "shard_unavailable", pinned
            # queued behind the killed batch: answered by the respawned shard
            for rid, vertex in zip(ids[1:len(victims)], victims[1:]):
                resp = responses[rid]
                assert resp["ok"], (vertex, resp)
                assert resp["communities"] == expect(vertex)
            for rid, vertex in zip(ids[len(victims):], survivors):
                resp = responses[rid]
                assert resp["ok"], (vertex, resp)
                assert resp["communities"] == expect(vertex)

            # the respawned worker keeps serving the dead partition
            assert client.query(victims[0], 3) == expect(victims[0])
            stats = client.stats()
            by_rank = {e["rank"]: e for e in stats["shards"]}
            assert by_rank[0]["restarts"] >= 1
            assert by_rank[0]["alive"] and by_rank[0]["pid"] != victim_pid
            assert by_rank[1]["restarts"] == 0


def test_restart_limit_exhaustion_stays_typed(served_store):
    _, _, store_path = served_store("paper")
    config = FrontendConfig(
        store_path=store_path, num_shards=1, restart_limit=0,
    )
    with FrontendThread(config) as server:
        with ServeClient(server.host, server.port, timeout=30.0) as client:
            pid = shard_infos(client)[0][0]
            os.kill(pid, signal.SIGKILL)
            for _ in range(3):  # keeps failing fast, never hangs
                t0 = time.perf_counter()
                rid = client.send("query", vertex=0, k=3)
                resp = client.recv()
                assert resp["id"] == rid and not resp["ok"]
                assert resp["error"]["type"] == "shard_unavailable"
                assert time.perf_counter() - t0 < 10.0


def test_overload_yields_backpressure_not_timeouts(served_store):
    graph, index, store_path = served_store("er")
    engine = QueryEngine(index, cache_size=0)
    burst = 40
    config = FrontendConfig(
        store_path=store_path, num_shards=2,
        max_batch=1024, max_pending=4,
    )
    with FrontendThread(config) as server:
        with ServeClient(server.host, server.port, timeout=30.0) as client:
            t0 = time.perf_counter()
            pairs = [(v % graph.num_vertices, 3) for v in range(burst)]
            responses = client.query_pipeline(pairs)
            elapsed = time.perf_counter() - t0
    assert len(responses) == burst
    ok = [r for r in responses.values() if r["ok"]]
    rejected = [
        r for r in responses.values()
        if not r["ok"] and r["error"]["type"] == "backpressure"
    ]
    assert len(ok) + len(rejected) == burst, responses
    # the admission limit actually bit, and admitted work still finished
    assert len(ok) >= 4 and len(rejected) >= burst // 2
    for resp in ok:
        assert resp["communities"] == serialize_communities(
            engine.query(resp["vertex"], 3, record=False)
        )
    # rejections are immediate answers, not queue-then-timeout: the
    # whole burst is bounded
    assert elapsed < 10.0
