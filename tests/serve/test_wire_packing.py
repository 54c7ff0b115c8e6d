"""Packed community ids on the wire, and the protocol-version handshake.

A community travels as ``{"k":K,"edge_ids_u32":"<base64>"}`` (or
``edge_ids_u64``), and :func:`~repro.serve.protocol.decode_frame` turns
it back into ``{"k":K,"edge_ids":[…]}``. Pinned here:

* **layout** — the payload is base64 of little-endian u32s, switching
  to u64s when an id is ≥ 2³² instead of wrapping it;
* **typed failure** — every malformed packed object raises
  :class:`~repro.errors.WireProtocolError`, never a ``binascii`` or
  ``ValueError``/``TypeError`` from the decoding underneath;
* **handshake** — the frontend refuses a shard whose ready frame
  announces another protocol version, within ``ready_timeout_s``, and
  kills one whose ready line is past the read limit.
"""

import asyncio
import base64
import struct
import sys
import time

import numpy as np
import pytest

import repro.serve.frontend as frontend_mod
import repro.serve.protocol as protocol_mod
from repro.community.model import Community
from repro.errors import ShardUnavailableError, WireProtocolError
from repro.serve.frontend import FrontendConfig, ShardHandle
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    decode_frame,
    encode_communities,
    encode_frame,
    ok_response,
    query_response_frame,
    serialize_communities,
)

IDS = [0, 2**32 - 1, 2**32, 2**40]


def b64(fmt, *values):
    return base64.b64encode(struct.pack(fmt, *values)).decode()


def test_ids_past_u32_round_trip_as_u64():
    narrow = Community(3, np.array(IDS[:2], dtype=np.int64), graph=None)
    wide = Community(3, np.array(IDS, dtype=np.int64), graph=None)
    body = encode_communities([wide, narrow])
    assert body == (
        b'[{"k":3,"edge_ids_u64":"%s"},{"k":3,"edge_ids_u32":"%s"}]'
        % (b64("<4Q", *IDS).encode(), b64("<2I", *IDS[:2]).encode())
    )
    frame = decode_frame(query_response_frame("r", 9, 3, body))
    assert frame == ok_response(
        "r", vertex=9, k=3, communities=serialize_communities([wide, narrow])
    )
    assert [c["edge_ids"] for c in frame["communities"]] == [IDS, IDS[:2]]


GOOD = b64("<2I", 1, 2)

MALFORMED = {
    "non_alphabet_char": {"k": 3, "edge_ids_u32": GOOD[:4] + "*" + GOOD[5:]},
    "non_ascii_char": {"k": 3, "edge_ids_u32": GOOD[:4] + "é" + GOOD[5:]},
    "missing_padding": {"k": 3, "edge_ids_u32": GOOD.rstrip("=")},
    "padding_inside": {"k": 3, "edge_ids_u32": "AQ=A"},
    "u32_width": {"k": 3, "edge_ids_u32": b64("<3H", 1, 2, 3)},
    "u64_width": {"k": 3, "edge_ids_u64": b64("<3I", 1, 2, 3)},
    "payload_list": {"k": 3, "edge_ids_u32": [1, 2]},
    "payload_int": {"k": 3, "edge_ids_u64": 12},
    "payload_null": {"k": 3, "edge_ids_u32": None},
    "both_keys": {"k": 3, "edge_ids_u32": GOOD, "edge_ids_u64": GOOD},
    "extra_key": {"k": 3, "edge_ids_u32": GOOD, "size": 2},
    "beside_plain_list": {"k": 3, "edge_ids_u32": GOOD, "edge_ids": [1, 2]},
    "missing_k": {"edge_ids_u32": GOOD},
    "bool_k": {"k": True, "edge_ids_u32": GOOD},
    "string_k": {"k": "3", "edge_ids_u32": GOOD},
    "float_k": {"k": 3.0, "edge_ids_u32": GOOD},
}


def test_well_formed_packed_object_decodes():
    frame = encode_frame(ok_response(1, communities=[{"k": 3, "edge_ids_u32": GOOD}]))
    assert decode_frame(frame)["communities"] == [{"k": 3, "edge_ids": [1, 2]}]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_packed_payload_fails_typed(case):
    frame = encode_frame(ok_response(1, vertex=0, k=3, communities=[MALFORMED[case]]))
    with pytest.raises(WireProtocolError):
        decode_frame(frame)
    with pytest.raises(WireProtocolError):
        decode_frame(frame.decode("utf-8"))


FAKE_SHARD = """
import json, sys, time
sys.stdout.write(json.dumps({"op": "ready", "version": 1, "rank": 0}) + "\\n")
sys.stdout.flush()
time.sleep(60)
"""


def test_shard_announcing_another_version_is_killed(monkeypatch, tmp_path):
    assert PROTOCOL_VERSION == 2
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
