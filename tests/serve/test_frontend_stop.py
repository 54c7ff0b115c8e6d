"""Stopping a frontend with clients still connected.

``ServingFrontend.stop`` stops accepting, gives in-flight batches
:data:`~repro.serve.frontend.STOP_DRAIN_S` to answer, then closes every
client and awaits its handler. Pinned here, with one idle client and one
request pinned in flight by the shard's ``--delay-ms`` knob: asyncio
logs no error, the stop returns within the bound, the pinned request
gets its answer (or a typed error), and both clients see their
connection closed.
"""

import asyncio
import logging
import time

import pytest

from repro.errors import ServeError, ShardUnavailableError
from repro.serve import QueryEngine, ServeClient
from repro.serve.frontend import (
    STOP_DRAIN_S,
    FrontendConfig,
    FrontendThread,
    ShardHandle,
)
from repro.serve.protocol import ERROR_TYPES, serialize_communities


def test_stop_drains_in_flight_and_closes_idle_clients(served_store, caplog):
    _, index, store_path = served_store("er")
    expected = serialize_communities(
        QueryEngine(index, cache_size=0).query(1, 3, record=False)
    )
    config = FrontendConfig(
        store_path=store_path, num_shards=2, shard_args=("--delay-ms", "400"),
    )
    caplog.set_level(logging.WARNING)
    server = FrontendThread(config).start()
    try:
        idle = ServeClient(server.host, server.port, timeout=30.0)
        busy = ServeClient(server.host, server.port, timeout=30.0)
        rid = busy.send("query", vertex=1, k=3)
        time.sleep(0.1)  # the shard is sleeping on the request's batch
    finally:
        t0 = time.perf_counter()
        server.stop()
        elapsed = time.perf_counter() - t0
    assert elapsed < STOP_DRAIN_S, elapsed
    with busy:
        resp = busy.recv()
        assert resp["id"] == rid
        if resp["ok"]:
            assert resp["communities"] == expected
        else:
            assert resp["error"]["type"] in ERROR_TYPES, resp
        with pytest.raises(ServeError, match="closed"):
            busy.recv()
    with idle:
        with pytest.raises(ServeError, match="closed"):
            idle.recv()
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert not errors, [r.getMessage() for r in errors]


def test_closed_shard_is_not_respawned(tmp_path):
    handle = ShardHandle(FrontendConfig(store_path=tmp_path / "none.eqtsidx"), 0)

    async def scenario():
        await handle.close()
        with pytest.raises(ShardUnavailableError, match="closed"):
            await handle.ensure_alive()

    asyncio.run(scenario())
    assert handle.proc is None and handle.restarts == 0
