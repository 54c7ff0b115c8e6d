"""The frontend passes each shard's encoded answers through undecoded.

A shard answers a ``batch`` with a header frame plus the answers'
encoded communities; the frontend slices those bytes and splices each
slice into the client's response. Two properties pin that path:

* **byte identity** — every raw response line equals the frame an
  in-process encode of the engine's answer produces, byte for byte,
  for integer and string request ids, at 1 and 2 shards, and decodes
  to the engine answer's serialized communities;
* **bounded failure** — a malformed batch header (bad ``sizes``, wrong
  count, oversize body) fails that batch with a typed ``protocol``
  error and disconnects the shard, which is respawned on its next
  batch; a body cut short by EOF fails every pending call with
  ``shard_unavailable``. Both leave the admission counter at zero.

The failure cases feed a fake shard's stdout through an
``asyncio.StreamReader``, so every malformed reply is exact.
"""

import asyncio
import socket

import pytest

from repro.errors import ShardUnavailableError, WireProtocolError
from repro.serve import QueryEngine
from repro.serve.frontend import FrontendConfig, FrontendThread, ServingFrontend
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_communities,
    encode_frame,
    ok_response,
    query_response_frame,
    serialize_communities,
)
from tests.serve.test_engine_differential import every_pair


def request_id(i):
    """Alternate integer ids with string ids, some needing JSON escapes."""
    return i if i % 2 == 0 else f'q{i}-"é"\\'


@pytest.mark.parametrize("shards", (1, 2))
@pytest.mark.parametrize("name", ("paper", "er"))
def test_raw_responses_byte_identical_to_engine_encode(served_store, name, shards):
    _, index, store_path = served_store(name)
    engine = QueryEngine(index, cache_size=0)
    pairs = sorted(set(every_pair(index)))
    expected = {}
    for i, (v, k) in enumerate(pairs):
        rid = request_id(i)
        answer = engine.query(v, k, record=False)
        line = query_response_frame(rid, v, k, encode_communities(answer))
        assert decode_frame(line) == ok_response(
            rid, vertex=v, k=k, communities=serialize_communities(answer)
        )
        expected[line] = expected.get(line, 0) + 1
    config = FrontendConfig(store_path=store_path, num_shards=shards)
    with FrontendThread(config) as server, socket.create_connection(
        (server.host, server.port), timeout=60.0
    ) as sock:
        sock.sendall(b"".join(
            encode_frame({"id": request_id(i), "op": "query", "vertex": v, "k": k})
            for i, (v, k) in enumerate(pairs)
        ))
        with sock.makefile("rb") as rfile:
            got = {}
            for _ in pairs:
                line = rfile.readline()
                got[line] = got.get(line, 0) + 1
    assert got == expected


# ----------------------------------------------------------------------
# malformed shard replies, fed through a fake shard's stdout
# ----------------------------------------------------------------------


class FakeShardProcess:
    """Stands in for a shard subprocess: requests are recorded, replies fed."""

    pid = -1

    def __init__(self):
        self.stdout = asyncio.StreamReader()
        self.stdin = self
        self.sent = []
        self.returncode = None

    def write(self, data):
        self.sent.append(decode_frame(data))

    async def drain(self):
        pass

    def kill(self):
        self.returncode = -9
        if not self.stdout.at_eof():
            self.stdout.feed_eof()

    async def wait(self):
        return self.returncode


async def next_request(fake, count=1):
    while len(fake.sent) < count:
        await asyncio.sleep(0)
    return fake.sent[count - 1]


def frontend_over(store_path, **knobs):
    return ServingFrontend(
        FrontendConfig(store_path=store_path, num_shards=1, **knobs)
    )


def attach_fake(frontend):
    """Put a fake process behind shard 0 (call on the running loop)."""
    fake = FakeShardProcess()
    frontend.shards[0]._attach(fake)
    return fake


BAD_HEADERS = {
    "sizes_not_a_list": lambda n: {"sizes": 7},
    "sizes_missing": lambda n: {},
    "negative_size": lambda n: {"sizes": [-1] * n},
    "bool_size": lambda n: {"sizes": [True] * n},
    "float_size": lambda n: {"sizes": [1.0] * n},
    "too_few_sizes": lambda n: {"sizes": [0] * (n - 1)},
    "too_many_sizes": lambda n: {"sizes": [0] * (n + 1)},
    "body_over_frame_limit": lambda n: {"sizes": [MAX_FRAME_BYTES + 1] * n},
}


@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_malformed_batch_header_fails_typed_then_respawns(served_store, case):
    _, index, store_path = served_store("paper")
    engine = QueryEngine(index, cache_size=0)
    frontend = frontend_over(store_path)

    async def scenario():
        fake = attach_fake(frontend)
        shard = frontend.shards[0]
        try:
            first = asyncio.ensure_future(frontend._submit(0, 3))
            request = await next_request(fake)
            # the shard is busy: these queue for its next batch
            queued = [asyncio.ensure_future(frontend._submit(v, 3)) for v in (1, 2)]
            await asyncio.sleep(0)
            assert frontend._admitted == 3
            header = {"id": request["id"], "ok": True}
            header.update(BAD_HEADERS[case](len(request["vertices"])))
            fake.stdout.feed_data(encode_frame(header))
            with pytest.raises(WireProtocolError):
                await first
            assert fake.returncode is not None, "out-of-step shard not killed"
            # the queued batch respawned a real worker, which answers
            answers = await asyncio.gather(*queued)
            assert answers == [
                encode_communities(engine.query(v, 3, record=False))
                for v in (1, 2)
            ]
            assert shard.restarts == 1 and shard.alive
            assert frontend._admitted == 0
        finally:
            await frontend.stop()

    asyncio.run(scenario())


def test_body_cut_short_fails_pending_with_shard_unavailable(served_store):
    _, _, store_path = served_store("paper")
    frontend = frontend_over(store_path, restart_limit=0)

    async def scenario():
        fake = attach_fake(frontend)
        shard = frontend.shards[0]
        try:
            batch = asyncio.ensure_future(frontend._submit(0, 3))
            request = await next_request(fake)
            stats = asyncio.ensure_future(shard.call({"op": "stats"}))
            await next_request(fake, 2)
            queued = asyncio.ensure_future(frontend._submit(1, 3))
            fake.stdout.feed_data(encode_frame(
                {"id": request["id"], "ok": True, "sizes": [10]}
            ) + b'[{"k"')
            fake.stdout.feed_eof()
            for fut in (batch, stats, queued):
                with pytest.raises(ShardUnavailableError):
                    await fut
            assert not shard.alive
            assert frontend._admitted == 0
        finally:
            await frontend.stop()

    asyncio.run(scenario())


def test_oversize_reply_line_fails_pending_with_shard_unavailable(served_store):
    """A reply line past the pipe's read limit breaks framing like a
    malformed header: the shard is disconnected and every pending call
    fails ``shard_unavailable`` at once instead of waiting out its
    timeout."""
    _, _, store_path = served_store("paper")
    frontend = frontend_over(store_path, restart_limit=0)

    async def scenario():
        fake = attach_fake(frontend)
        shard = frontend.shards[0]
        try:
            batch = asyncio.ensure_future(frontend._submit(0, 3))
            await next_request(fake)
            stats = asyncio.ensure_future(shard.call({"op": "stats"}))
            await next_request(fake, 2)
            fake.stdout.feed_data(b'{"pad":"' + b"x" * 2**16 + b'"}\n')
            for fut in (batch, stats):
                with pytest.raises(ShardUnavailableError, match="malformed"):
                    await asyncio.wait_for(fut, 10.0)
            assert fake.returncode is not None, "out-of-step shard not killed"
            assert not shard.alive
            assert frontend._admitted == 0
        finally:
            await frontend.stop()

    asyncio.run(scenario())


def test_late_reply_to_timed_out_batch_keeps_stream_in_step(served_store):
    _, _, store_path = served_store("paper")
    frontend = frontend_over(store_path)

    async def scenario():
        fake = attach_fake(frontend)
        shard = frontend.shards[0]
        try:
            with pytest.raises(ShardUnavailableError):
                await shard.batch(3, [0, 1], timeout=0.01)
            late = await next_request(fake)
            ping = asyncio.ensure_future(shard.call({"op": "ping"}))
            ping_request = await next_request(fake, 2)
            fake.stdout.feed_data(
                encode_frame({"id": late["id"], "ok": True, "sizes": [2, 4]})
                + b"[][{}]"
                + encode_frame({"id": ping_request["id"], "ok": True, "pong": True})
            )
            assert (await ping)["pong"] is True
            assert shard.alive
        finally:
            await frontend.stop()

    asyncio.run(scenario())
