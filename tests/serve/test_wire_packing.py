"""Packed community ids on the wire, and the protocol-version handshake.

A community travels as ``{"k":K,"edge_ids_z":"<base64>"}``, and
:func:`~repro.serve.protocol.decode_frame` turns it back into
``{"k":K,"edge_ids":[…]}``. Pinned here:

* **layout** — the payload is base64 of a zlib stream of the sorted
  ids' little-endian u64 deltas (the first delta is the first id), so
  ids up to 2⁶⁴−1 travel exactly, and a run of consecutive ids packs to
  a few bytes per thousand;
* **typed failure** — every malformed packed object raises
  :class:`~repro.errors.WireProtocolError`, never a ``binascii``,
  ``zlib`` or ``ValueError``/``TypeError`` from the decoding underneath,
  and a deflate bomb inflates no more than ``MAX_FRAME_BYTES``;
* **handshake** — the frontend refuses a shard whose ready frame
  announces another protocol version, within ``ready_timeout_s``, and
  kills one whose ready line is past the read limit.
"""

import asyncio
import base64
import socket
import struct
import sys
import time
import zlib

import numpy as np
import pytest

import repro.serve.frontend as frontend_mod
import repro.serve.protocol as protocol_mod
from repro.community.model import Community
from repro.errors import ShardUnavailableError, WireProtocolError
from repro.serve.frontend import FrontendConfig, FrontendThread, ShardHandle
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    DecodeMemo,
    decode_frame,
    decode_request,
    encode_communities,
    encode_edge_ids,
    encode_frame,
    ok_response,
    query_response_frame,
    serialize_communities,
)

IDS = [0, 2**32 - 1, 2**32, 2**40]


def b64(raw):
    return base64.b64encode(raw).decode()


def deflated(fmt, *values):
    """base64 of the deflated ``struct.pack(fmt, *values)``."""
    return b64(zlib.compress(struct.pack(fmt, *values)))


def deltas(ids):
    return [b - a for a, b in zip([0] + ids, ids)]


def test_ids_past_u32_round_trip_as_u64():
    narrow = Community(3, np.array(IDS[:2], dtype=np.int64), graph=None)
    wide = Community(3, np.array(IDS, dtype=np.int64), graph=None)
    body = encode_communities([wide, narrow])
    payloads = [
        b64(zlib.compress(struct.pack("<%dQ" % len(ids), *deltas(ids)), 1))
        for ids in (IDS, IDS[:2])
    ]
    assert body == (
        b'[{"k":3,"edge_ids_z":"%s"},{"k":3,"edge_ids_z":"%s"}]'
        % tuple(p.encode() for p in payloads)
    )
    frame = decode_frame(query_response_frame("r", 9, 3, body))
    assert frame == ok_response(
        "r", vertex=9, k=3, communities=serialize_communities([wide, narrow])
    )
    assert [c["edge_ids"] for c in frame["communities"]] == [IDS, IDS[:2]]


def seeded(seed, lo, hi, n):
    """``n`` seeded ids in ``[lo, hi)``, sorted and distinct, as uint64."""
    rng = np.random.default_rng(seed)
    return np.unique(rng.integers(lo, hi, n, dtype=np.uint64))


def above(ids, *tail):
    return np.concatenate([ids, np.array(tail, dtype=np.uint64)])


#: strictly increasing uint64 id arrays
ROUND_TRIP = {
    "empty": np.zeros(0, np.uint64),
    "single_zero": np.zeros(1, np.uint64),
    "consecutive": seeded(1, 0, 2**31, 1)[0] + np.arange(5000, dtype=np.uint64),
    "runs": np.unique(
        seeded(2, 0, 2**20, 20)[:, None] + np.arange(300, dtype=np.uint64)
    ),
    "gaps_past_2_16": np.cumsum(seeded(3, 2**16, 2**24, 2000)),
    "at_2_32": seeded(4, 2**32 - 50, 2**32 + 50, 60),
    "at_2_63": above(seeded(5, 0, 2**62, 50), 2**63 - 1, 2**63, 2**63 + 1),
    "at_2_64_minus_1": above(seeded(6, 0, 2**63, 50), 2**64 - 2, 2**64 - 1),
}


@pytest.mark.parametrize("memo", (False, True), ids=("plain", "memo"))
@pytest.mark.parametrize("case", sorted(ROUND_TRIP))
def test_sorted_ids_round_trip(case, memo):
    ids = ROUND_TRIP[case]
    assert ids.dtype == np.uint64 and (ids[1:] > ids[:-1]).all()
    body = b'[{"k":4,%b}]' % encode_edge_ids(ids)
    line = query_response_frame(1, 0, 4, body)
    decode_memo = DecodeMemo() if memo else None
    for _ in range(2):  # a memo miss, then a hit
        got = decode_frame(line, decode_memo)["communities"]
        assert got == [{"k": 4, "edge_ids": ids.tolist()}]


def test_consecutive_ids_pack_small():
    packed = encode_edge_ids(np.arange(10**6, 10**6 + 100_000))
    assert len(packed) < 8 * 1024


GOOD = deflated("<2Q", 1, 1)  # the ids [1, 2]
assert GOOD.endswith("="), "missing_padding needs a padded payload"

MALFORMED = {
    "non_alphabet_char": {"k": 3, "edge_ids_z": GOOD[:4] + "*" + GOOD[5:]},
    "non_ascii_char": {"k": 3, "edge_ids_z": GOOD[:4] + "é" + GOOD[5:]},
    "missing_padding": {"k": 3, "edge_ids_z": GOOD.rstrip("=")},
    "padding_inside": {"k": 3, "edge_ids_z": "AQ=A"},
    "not_deflate": {"k": 3, "edge_ids_z": b64(struct.pack("<2I", 1, 2))},
    "truncated_stream": {
        "k": 3, "edge_ids_z": b64(zlib.compress(struct.pack("<2Q", 1, 1))[:-3]),
    },
    "trailing_bytes": {
        "k": 3, "edge_ids_z": b64(zlib.compress(struct.pack("<2Q", 1, 1)) + b"\0"),
    },
    "inflated_not_whole_ids": {"k": 3, "edge_ids_z": deflated("<3I", 1, 2, 3)},
    "inflated_below_one_id": {"k": 3, "edge_ids_z": deflated("<I", 1)},
    "zero_delta": {"k": 3, "edge_ids_z": deflated("<3Q", 5, 1, 0)},
    "delta_sum_past_2_64": {"k": 3, "edge_ids_z": deflated("<2Q", 2**63, 2**63)},
    "delta_sum_wraps_above_0": {
        "k": 3, "edge_ids_z": deflated("<3Q", 2**63, 2**63 - 1, 2**63),
    },
    "deflate_bomb": {
        "k": 3, "edge_ids_z": b64(zlib.compress(bytes(MAX_FRAME_BYTES + 8))),
    },
    "payload_list": {"k": 3, "edge_ids_z": [1, 2]},
    "payload_int": {"k": 3, "edge_ids_z": 12},
    "payload_null": {"k": 3, "edge_ids_z": None},
    "both_keys": {"k": 3, "edge_ids_z": GOOD, "edge_ids_u32": GOOD},
    "extra_key": {"k": 3, "edge_ids_z": GOOD, "size": 2},
    "beside_plain_list": {"k": 3, "edge_ids_z": GOOD, "edge_ids": [1, 2]},
    "missing_k": {"edge_ids_z": GOOD},
    "bool_k": {"k": True, "edge_ids_z": GOOD},
    "string_k": {"k": "3", "edge_ids_z": GOOD},
    "float_k": {"k": 3.0, "edge_ids_z": GOOD},
}


def test_well_formed_packed_object_decodes():
    frame = encode_frame(ok_response(1, communities=[{"k": 3, "edge_ids_z": GOOD}]))
    assert decode_frame(frame)["communities"] == [{"k": 3, "edge_ids": [1, 2]}]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_packed_payload_fails_typed(case):
    frame = encode_frame(ok_response(1, vertex=0, k=3, communities=[MALFORMED[case]]))
    with pytest.raises(WireProtocolError):
        decode_frame(frame)
    with pytest.raises(WireProtocolError):
        decode_frame(frame.decode("utf-8"))


@pytest.fixture
def inflated(monkeypatch):
    """The byte counts every ``decompressobj().decompress`` returns."""
    sizes = []
    real = zlib.decompressobj

    class Recording:
        def __init__(self):
            self._inflater = real()

        def decompress(self, data, max_length=0):
            out = self._inflater.decompress(data, max_length)
            sizes.append(len(out))
            return out

        def __getattr__(self, name):
            return getattr(self._inflater, name)

    monkeypatch.setattr(zlib, "decompressobj", Recording)
    return sizes


def test_deflate_bomb_inflates_at_most_max_frame_bytes(inflated):
    frame = encode_frame(ok_response(1, communities=[MALFORMED["deflate_bomb"]]))
    for memo in (None, DecodeMemo()):
        with pytest.raises(WireProtocolError, match="at most"):
            decode_frame(frame, memo)
    assert inflated and max(inflated) <= MAX_FRAME_BYTES


def run_of(n, first=0):
    """The packed payload of ``n`` consecutive ids from ``first``."""
    return encode_edge_ids(np.arange(first, first + n)).split(b'"')[3].decode()


@pytest.mark.parametrize("memo", (False, True), ids=("plain", "memo"))
def test_frame_ids_total_at_most_max_frame_bytes(monkeypatch, inflated, memo):
    limit = 64 * 1024
    monkeypatch.setattr(protocol_mod, "MAX_FRAME_BYTES", limit)
    half = limit // 16  # ids in half the frame's limit
    decode_memo = DecodeMemo() if memo else None

    def frame(*payloads):
        return encode_frame(ok_response(1, communities=[
            {"k": 3, "edge_ids_z": payload} for payload in payloads
        ]))

    # exactly the limit decodes, the same payload twice (a memo hit)
    full = decode_frame(frame(run_of(half), run_of(half)), decode_memo)
    assert [len(c["edge_ids"]) for c in full["communities"]] == [half, half]
    # one id past it fails typed: after the limit is spent, while
    # inflating, and on a memo hit (the last run is held by then)
    for payloads in (
        (run_of(half), run_of(half), run_of(0)),
        (run_of(half), run_of(half + 1, half)),
        (run_of(1, 2 * limit), run_of(half), run_of(half)),
    ):
        inflated.clear()
        with pytest.raises(WireProtocolError):
            decode_frame(frame(*payloads), decode_memo)
        assert sum(inflated) <= limit


BOMBS = {"op": "query", "vertex": 0, "k": 3, "why": [
    MALFORMED["deflate_bomb"], {"k": 3, "edge_ids_z": GOOD},
] * 4}


def test_request_with_a_packed_member_fails_before_inflating(inflated):
    with pytest.raises(WireProtocolError, match="request"):
        decode_request(encode_frame(BOMBS))
    assert decode_request(encode_frame({"op": "query", "vertex": 0, "k": 3})) == {
        "op": "query", "vertex": 0, "k": 3,
    }
    assert inflated == []


def test_frontend_refuses_a_request_carrying_bombs(served_store, inflated):
    _, _, store_path = served_store("paper")
    config = FrontendConfig(store_path=store_path, num_shards=1)
    with FrontendThread(config) as server, socket.create_connection(
        (server.host, server.port), timeout=60.0
    ) as sock, sock.makefile("rb") as rfile:
        sock.sendall(encode_frame(BOMBS))
        reply = decode_frame(rfile.readline())
        # the connection still serves after the refusal
        sock.sendall(encode_frame({"id": 2, "op": "query", "vertex": 0, "k": 3}))
        after = rfile.readline()
    assert inflated == []  # nothing inflated in the frontend's process
    assert not reply["ok"] and reply["error"]["type"] == "protocol"
    after = decode_frame(after)
    assert after["ok"] and after["id"] == 2


FAKE_SHARD = """
import json, sys, time
sys.stdout.write(json.dumps({"op": "ready", "version": 1, "rank": 0}) + "\\n")
sys.stdout.flush()
time.sleep(60)
"""


def test_shard_announcing_another_version_is_killed(monkeypatch, tmp_path):
    assert PROTOCOL_VERSION == 3
    monkeypatch.setattr(
        frontend_mod, "_shard_command",
        lambda config, rank: [sys.executable, "-c", FAKE_SHARD],
    )
    config = FrontendConfig(store_path=tmp_path / "none.eqtsidx", ready_timeout_s=20.0)
    handle = ShardHandle(config, 0)

    async def scenario():
        t0 = time.perf_counter()
        with pytest.raises(ShardUnavailableError, match="protocol version 1"):
            await handle.spawn()
        return time.perf_counter() - t0

    elapsed = asyncio.run(scenario())
    assert elapsed < config.ready_timeout_s
    assert handle.proc.returncode is not None, "mismatched shard left running"
    assert not handle.alive and handle.ready == {}


OVERSIZE_READY_SHARD = """
import sys, time
sys.stdout.write("x" * 10000 + "\\n")
sys.stdout.flush()
time.sleep(60)
"""


def test_shard_with_an_oversize_ready_line_is_killed(monkeypatch, tmp_path):
    """A ready line past the read limit fails the spawn typed and kills
    the worker, like any other bad handshake."""
    monkeypatch.setattr(protocol_mod, "MAX_FRAME_BYTES", 4096)
    monkeypatch.setattr(
        frontend_mod, "_shard_command",
        lambda config, rank: [sys.executable, "-c", OVERSIZE_READY_SHARD],
    )
    handle = ShardHandle(
        FrontendConfig(store_path=tmp_path / "none.eqtsidx", ready_timeout_s=20.0), 0
    )

    async def scenario():
        with pytest.raises(ShardUnavailableError, match="ready line past 4096"):
            await handle.spawn()

    asyncio.run(scenario())
    assert handle.proc.returncode is not None, "oversize shard left running"
    assert not handle.alive
