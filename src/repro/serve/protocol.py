"""The serving wire protocol: newline-delimited JSON frames.

One request or response per line, UTF-8 JSON, ``\\n``-terminated. The
same frame shape is spoken on both hops — client ↔ frontend over TCP
and frontend ↔ shard worker over the worker's stdin/stdout pipes — so
one encoder/decoder serves every endpoint.

One reply carries a body after its frame: a shard's answer to a
``batch`` request is the header frame
``{"id": ..., "ok": true, "sizes": [n1, ...], "generation": ...,
"elapsed_ms": ..., "encode_ms": ...}`` followed by exactly
``sum(sizes)`` bytes, the concatenation of each answer's encoded
communities list (:func:`encode_communities`), in request order. The
frontend slices that body by ``sizes`` and splices each slice into the
client's ``query`` response (:func:`query_response_frame`) without
decoding it, so every answer is JSON-encoded once, in the shard.
:func:`check_batch_header` bounds what a header may announce.

Requests carry an ``op`` plus an ``id`` the peer echoes back verbatim;
responses are either ``{"id": ..., "ok": true, ...}`` or
``{"id": ..., "ok": false, "error": {"type": ..., "message": ...}}``.
Responses to pipelined requests may arrive in any order — the ``id`` is
the only correlation key.

Error ``type`` strings are a closed vocabulary (:data:`ERROR_TYPES`)
that maps 1:1 onto the typed exceptions in :mod:`repro.errors`;
:func:`raise_for_error` rehydrates the exception on the client side so
callers catch :class:`~repro.errors.BackpressureError` /
:class:`~repro.errors.ShardUnavailableError` instead of parsing dicts.

Communities travel packed: ``{"k":K,"edge_ids_z":"…"}``, the value
the base64 of a zlib stream that inflates to the community's sorted
edge ids as little-endian unsigned 64-bit deltas, the first delta
being the first id, so a client builds no JSON integer per edge and a
giant community costs about a tenth of its raw u32 bytes.
:func:`decode_frame` unpacks every such object back to
``{"k": int, "edge_ids": [int, ...]}`` with the ids in the engine's
canonical sorted order, so a decoded response compares equal to
:func:`serialize_communities` of an in-process
:meth:`~repro.serve.engine.QueryEngine.query` result. A frame's ids
total at most :data:`MAX_FRAME_BYTES` of u64s, so a few kilobytes of
deflate stream cannot balloon the reader. Requests carry no community:
:func:`decode_request`, which the frontend and shards read requests
with, refuses a packed member before inflating anything.

Answers are bimodal: most are empty, and the rest carry a few giant
communities (tens of thousands of ids) that every vertex inside them
shares. A client therefore passes :func:`decode_frame` a per-connection
:class:`DecodeMemo`, keyed by the exact packed text, so it decodes each
distinct community once per connection and inflates only on a miss;
a memo hit still runs every shape check and returns a fresh list.
Without a memo every community is decoded.
"""

from __future__ import annotations

import base64
import json
import sys
import zlib
from collections import OrderedDict
from typing import Any

import numpy as np

from repro.errors import (
    BackpressureError,
    InvalidParameterError,
    ServeError,
    ShardUnavailableError,
    WireProtocolError,
)

#: Protocol version a shard stamps into its ready frame; the frontend
#: refuses a shard that speaks another. 3: communities travel as
#: deflated id deltas (2: raw u32/u64 ids).
PROTOCOL_VERSION = 3

#: One frame (request or response) may not exceed this many bytes —
#: a corrupt peer must not balloon the reader's buffer.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Byte budget of one client connection's :class:`DecodeMemo`, the
#: estimated size of its decoded communities; the same as the engine's
#: ``MEMO_BUDGET_BYTES``.
DECODE_MEMO_BUDGET_BYTES = 64 * 1024 * 1024

# -- op vocabulary -----------------------------------------------------

#: The handshake frame op a shard worker writes before serving.
OP_READY = "ready"

#: Ops the frontend accepts from clients. REP008 checks the frontend
#: dispatch chain and the client helpers against this table — add the
#: op here first, then a handler on every peer.
FRONTEND_OPS: tuple[str, ...] = (
    "query",
    "ping",
    "stats",
    "metrics",
    "refresh",
)

#: Ops a shard worker accepts on stdin (``batch`` answers the client
#: ``query`` op, coalesced per shard and k; ``shutdown`` ends the serve
#: loop).
SHARD_OPS: tuple[str, ...] = (
    "batch",
    "refresh",
    "metrics",
    "stats",
    "ping",
    "shutdown",
)

# -- shard ownership ---------------------------------------------------


class BlockOwnership:
    """Contiguous blocks of ``ceil(num_vertices / num_shards)`` vertex
    ids, one per shard in rank order (trailing shards own none when
    there are more shards than vertices).

    The frontend routes each query to :meth:`owner` of its vertex, and
    each shard announces :meth:`owned_range` as its ready frame's
    ``owned``; both read the one ``block`` computed here.
    """

    def __init__(self, num_vertices: int, num_shards: int) -> None:
        self.num_vertices = int(num_vertices)
        self.num_shards = int(num_shards)
        self.block = -(-self.num_vertices // self.num_shards) or 1

    def owner(self, vertex: int) -> int:
        """The shard owning ``vertex`` (plain int arithmetic)."""
        return min(vertex // self.block, self.num_shards - 1)

    def owned_range(self, rank: int) -> tuple[int, int]:
        """The ``[lo, hi)`` vertex ids shard ``rank`` owns."""
        lo = min(rank * self.block, self.num_vertices)
        return lo, min(lo + self.block, self.num_vertices)


# -- error vocabulary --------------------------------------------------

ERR_BACKPRESSURE = "backpressure"
ERR_SHARD_UNAVAILABLE = "shard_unavailable"
ERR_INVALID_PARAMETER = "invalid_parameter"
ERR_PROTOCOL = "protocol"
ERR_INTERNAL = "internal"

#: error ``type`` string → exception class raised by :func:`raise_for_error`.
ERROR_TYPES: dict[str, type[Exception]] = {
    ERR_BACKPRESSURE: BackpressureError,
    ERR_SHARD_UNAVAILABLE: ShardUnavailableError,
    ERR_INVALID_PARAMETER: InvalidParameterError,
    ERR_PROTOCOL: WireProtocolError,
    ERR_INTERNAL: ServeError,
}

#: exception class → error ``type`` string (first match wins, most
#: specific first: used by servers to serialize a caught exception).
_EXCEPTION_TYPES: tuple[tuple[type[Exception], str], ...] = (
    (BackpressureError, ERR_BACKPRESSURE),
    (ShardUnavailableError, ERR_SHARD_UNAVAILABLE),
    (InvalidParameterError, ERR_INVALID_PARAMETER),
    (WireProtocolError, ERR_PROTOCOL),
)


def error_type_of(exc: Exception) -> str:
    """The wire ``type`` string for an exception (``internal`` fallback)."""
    for cls, name in _EXCEPTION_TYPES:
        if isinstance(exc, cls):
            return name
    return ERR_INTERNAL


# -- framing -----------------------------------------------------------


def _dumps(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def encode_frame(obj: dict) -> bytes:
    """One protocol frame: compact JSON + newline."""
    return _dumps(obj) + b"\n"


def _loads(line: bytes | str, hook) -> dict:
    """One frame's JSON object through ``hook``; :class:`WireProtocolError`
    on anything malformed."""
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise WireProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireProtocolError(f"frame is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(line, object_hook=hook)
    except json.JSONDecodeError as exc:
        raise WireProtocolError(f"frame is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireProtocolError(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def decode_frame(line: bytes | str, memo: DecodeMemo | None = None) -> dict:
    """Parse one frame, unpacking packed communities to ``edge_ids``
    lists; :class:`WireProtocolError` on anything malformed. The ids of
    one frame's communities total at most :data:`MAX_FRAME_BYTES` of
    u64s, memo hits included, and no community follows once they reach
    it. With a :class:`DecodeMemo`, a community that the memo holds is
    not decoded again."""
    budget = MAX_FRAME_BYTES  # id bytes the rest of the frame may yield
    decode = _decode_ids if memo is None else memo.ids

    def unpack(obj: dict) -> dict:
        nonlocal budget
        payload = _packed_payload(obj)
        if payload is None:
            return obj
        if budget <= 0:  # decompress reads a max_length of 0 as unbounded
            raise WireProtocolError(
                f"a frame's ids fill {MAX_FRAME_BYTES} bytes before its last community"
            )
        ids = decode(payload, budget)
        budget -= 8 * len(ids)
        return {"k": obj["k"], "edge_ids": ids}

    return _loads(line, unpack)


def _refuse_community(obj: dict) -> dict:
    if PACKED_KEY in obj:
        raise WireProtocolError(f"a request carries no {PACKED_KEY!r} member")
    return obj


def decode_request(line: bytes | str) -> dict:
    """Parse one request frame; :class:`WireProtocolError` on anything
    malformed. A request carries no community, so a packed member is
    refused before anything is inflated."""
    return _loads(line, _refuse_community)


# -- responses ---------------------------------------------------------


def ok_response(req_id: Any, **fields: Any) -> dict:
    """A success response echoing the request id."""
    out: dict = {"id": req_id, "ok": True}
    out.update(fields)
    return out


def error_response(req_id: Any, err_type: str, message: str) -> dict:
    """A typed failure response echoing the request id."""
    if err_type not in ERROR_TYPES:
        raise InvalidParameterError(f"unknown wire error type {err_type!r}")
    return {"id": req_id, "ok": False, "error": {"type": err_type, "message": message}}


def exception_response(req_id: Any, exc: Exception) -> dict:
    """Serialize a caught exception as a typed failure response."""
    return error_response(req_id, error_type_of(exc), str(exc))


def raise_for_error(response: dict) -> dict:
    """Return a success response; rehydrate and raise a failure one."""
    if response.get("ok"):
        return response
    err = response.get("error")
    if not isinstance(err, dict) or "type" not in err:
        raise WireProtocolError(f"malformed error response: {response!r}")
    cls = ERROR_TYPES.get(err["type"], ServeError)
    raise cls(err.get("message", err["type"]))


# -- payload shapes ----------------------------------------------------

#: the packed community member: deflated little-endian u64 id deltas
PACKED_KEY = "edge_ids_z"

#: zlib level of :func:`encode_edge_ids`: each community is encoded once
#: per engine memo entry, so the fastest level is enough
ZLIB_LEVEL = 1


def serialize_communities(communities) -> list[dict]:
    """Engine results → wire shape, canonical order and ids preserved."""
    return [
        {"k": int(c.k), "edge_ids": c.edge_ids.tolist()} for c in communities
    ]


def encode_edge_ids(edge_ids) -> bytes:
    """One community's sorted edge ids → its packed JSON member,
    ``"edge_ids_z":"<base64>"``: the deflated u64 deltas of the ids."""
    ids = np.asarray(edge_ids, "<u8")
    deltas = np.diff(ids, prepend=np.uint64(0)).astype("<u8", copy=False)
    raw = zlib.compress(deltas.tobytes(), ZLIB_LEVEL)
    return b'"%b":"%b"' % (PACKED_KEY.encode(), base64.b64encode(raw))


def _packed_payload(obj: dict) -> str | None:
    """The :data:`PACKED_KEY` payload of a community object, after its
    shape checks (exactly ``k`` and that key, an int ``k``, a string
    payload); None for any other object."""
    if PACKED_KEY not in obj:
        return None
    k, payload = obj.get("k"), obj[PACKED_KEY]
    if obj.keys() != {"k", PACKED_KEY} or type(k) is not int or type(payload) is not str:
        raise WireProtocolError(
            f"a packed community is an int 'k' and a string {PACKED_KEY!r}, got "
            f"{ {name: type(value).__name__ for name, value in obj.items()} }"
        )
    return payload


def _decode_ids(payload: str, limit: int) -> list[int]:
    """A packed payload's edge ids; :class:`WireProtocolError` when it is
    not base64 of one whole deflate stream of at most ``limit`` (> 0)
    bytes of u64 deltas summing to strictly increasing ids below 2⁶⁴."""
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise WireProtocolError(f"{PACKED_KEY} is not base64: {exc}") from exc
    inflater = zlib.decompressobj()
    try:
        deltas = inflater.decompress(raw, limit)
    except zlib.error as exc:
        raise WireProtocolError(f"{PACKED_KEY} is not a deflate stream: {exc}") from exc
    if not inflater.eof or inflater.unused_data or inflater.unconsumed_tail:
        raise WireProtocolError(
            f"{PACKED_KEY} is not one whole deflate stream of at most "
            f"{limit} bytes"
        )
    if len(deltas) % 8:
        raise WireProtocolError(f"{PACKED_KEY} holds {len(deltas)} bytes, not whole ids")
    ids = np.cumsum(np.frombuffer(deltas, "<u8"), dtype=np.uint64)
    # a zero delta repeats an id, and a sum past 2⁶⁴ wraps below the last
    if not (ids[1:] > ids[:-1]).all():
        raise WireProtocolError(
            f"{PACKED_KEY} ids are not strictly increasing below 2**64"
        )
    return ids.tolist()


#: Estimated bytes of a decode memo entry: the payload text and list
#: headers, the payload's characters, and per id an 8-byte list slot plus
#: an int object as large as the community's largest (last) id.
_ENTRY_BYTES = sys.getsizeof("") + sys.getsizeof([])


def _entry_bytes(payload: str, ids: list[int]) -> int:
    per_id = 8 + sys.getsizeof(ids[-1] if ids else 0)
    # Python ints, not an int32 key: the product cannot wrap
    return _ENTRY_BYTES + len(payload) + len(ids) * per_id  # repro: allow(REP005)


class DecodeMemo:
    """One connection's decoded communities, keyed by their packed text.

    A community is the same answer for every vertex in it, so a client
    receives the same packed payload many times. :func:`decode_frame`
    with a memo runs every shape check on each packed object, then looks
    its exact payload up here: a hit skips the base64 decode, the
    inflate and the int decode, but still counts against the frame's id
    limit. Every decode returns a fresh list (callers may mutate it);
    the int objects in it are shared. Entries are evicted least recently
    used to hold the estimate, :attr:`nbytes`, within
    :data:`DECODE_MEMO_BUDGET_BYTES`; a community larger than the whole
    budget is decoded and not stored. Not thread-safe: one per
    connection.
    """

    __slots__ = ("_entries", "nbytes")

    def __init__(self) -> None:
        self._entries: OrderedDict[str, list[int]] = OrderedDict()
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def ids(self, payload: str, limit: int) -> list[int]:
        """:func:`_decode_ids` of ``payload``, memoized: a fresh list of
        at most ``limit`` bytes of u64 ids."""
        ids = self._entries.get(payload)
        if ids is None:
            ids = _decode_ids(payload, limit)
            if not self._store(payload, ids):
                return ids
        elif 8 * len(ids) > limit:
            raise WireProtocolError(
                f"{PACKED_KEY} holds {len(ids)} ids, past the frame's "
                f"{limit} bytes left"
            )
        else:
            self._entries.move_to_end(payload)
        return list(ids)

    def _store(self, payload: str, ids: list[int]) -> bool:
        """Remember ``ids`` under ``payload``, evicting least recently
        used entries; False (evicting nothing) when they exceed the
        budget."""
        cost = _entry_bytes(payload, ids)
        if cost > DECODE_MEMO_BUDGET_BYTES:
            return False
        while self.nbytes + cost > DECODE_MEMO_BUDGET_BYTES:
            old, old_ids = self._entries.popitem(last=False)
            self.nbytes -= _entry_bytes(old, old_ids)
        self._entries[payload] = ids
        self.nbytes += cost
        return True


def encode_communities(communities, engine=None) -> bytes:
    """Engine results → the packed JSON list that :func:`decode_frame`
    decodes to :func:`serialize_communities` of them.

    With ``engine`` (the :class:`~repro.serve.engine.QueryEngine` that
    answered), each community's packed ids come from the engine's memo,
    encoded once per index generation; only the ``{"k":…}`` wrapper of
    the query's own ``k`` is built per answer.
    """
    ids = encode_edge_ids if engine is None else engine.encoded_edge_ids
    return b"[%b]" % b",".join(
        b'{"k":%d,%b}' % (c.k, ids(c.edge_ids)) for c in communities
    )


def query_response_frame(
    req_id: Any, vertex: int, k: int, communities: bytes
) -> bytes:
    """A ``query`` success frame around already-encoded ``communities``.

    When ``communities`` came from :func:`encode_communities`, the frame
    decodes to ``ok_response(req_id, vertex=vertex, k=k,
    communities=serialize_communities(...))``.
    """
    return b"".join((
        b'{"id":', _dumps(req_id),
        b',"ok":true,"vertex":%d,"k":%d,"communities":' % (vertex, k),
        communities, b"}\n",
    ))


def check_batch_header(frame: dict, expected: int | None) -> list[int]:
    """The ``sizes`` of a batch reply header; :class:`WireProtocolError`
    when they are not non-negative ints, do not number ``expected``
    answers (``None`` skips that check), or announce a body larger than
    :data:`MAX_FRAME_BYTES`."""
    sizes = frame.get("sizes")
    if not isinstance(sizes, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 0
        for n in sizes
    ):
        raise WireProtocolError(
            "batch reply 'sizes' must be a list of non-negative integers"
        )
    if expected is not None and len(sizes) != expected:
        raise WireProtocolError(
            f"batch reply has {len(sizes)} sizes for {expected} requests"
        )
    if sum(sizes) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"batch reply body exceeds {MAX_FRAME_BYTES} bytes"
        )
    return sizes


def check_query_fields(obj: dict) -> tuple[int, int]:
    """Validate a ``query`` request's ``vertex``/``k`` fields."""
    vertex, k = obj.get("vertex"), obj.get("k")
    for name, value in (("vertex", vertex), ("k", k)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise WireProtocolError(
                f"query field {name!r} must be an integer, got {value!r}"
            )
    return vertex, k
