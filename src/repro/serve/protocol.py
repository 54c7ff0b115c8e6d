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

Communities travel packed: ``{"k":K,"edge_ids_u32":"…"}``, the value
the base64 of the community's edge ids as little-endian unsigned 32-bit
ints, or ``"edge_ids_u64"`` and 64-bit ints when its largest id is
≥ 2³², so a client builds no JSON integer per edge. :func:`decode_frame`
unpacks every such object back to
``{"k": int, "edge_ids": [int, ...]}`` with the ids in the engine's
canonical sorted order, so a decoded response compares equal to
:func:`serialize_communities` of an in-process
:meth:`~repro.serve.engine.QueryEngine.query` result.

Answers are bimodal: most are empty, and the rest carry a few giant
communities (tens of thousands of ids) that every vertex inside them
shares. A client therefore passes :func:`decode_frame` a per-connection
:class:`DecodeMemo`, keyed by the exact packed text, so it decodes each
distinct community once per connection; a memo hit still runs every
shape check and returns a fresh list. Without a memo (the frontend, a
shard) every community is decoded.
"""

from __future__ import annotations

import base64
import json
import sys
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
#: refuses a shard that speaks another. 2: communities travel packed.
PROTOCOL_VERSION = 2

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


def decode_frame(line: bytes | str, memo: DecodeMemo | None = None) -> dict:
    """Parse one frame, unpacking packed communities to ``edge_ids``
    lists; :class:`WireProtocolError` on anything malformed. With a
    :class:`DecodeMemo`, a community that the memo holds is not decoded
    again."""
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise WireProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireProtocolError(f"frame is not UTF-8: {exc}") from exc
    hook = _unpack_community if memo is None else memo.unpack
    try:
        obj = json.loads(line, object_hook=hook)
    except json.JSONDecodeError as exc:
        raise WireProtocolError(f"frame is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireProtocolError(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


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

#: packed community id key → little-endian dtype of its ids
_PACKED = {"edge_ids_u32": np.dtype("<u4"), "edge_ids_u64": np.dtype("<u8")}


def serialize_communities(communities) -> list[dict]:
    """Engine results → wire shape, canonical order and ids preserved."""
    return [
        {"k": int(c.k), "edge_ids": c.edge_ids.tolist()} for c in communities
    ]


def encode_edge_ids(edge_ids) -> bytes:
    """One community's sorted edge ids → its packed JSON member,
    ``"edge_ids_u32":"<base64>"``; ``edge_ids_u64`` when an id is ≥ 2³²,
    which a u32 cast would wrap silently."""
    wide = edge_ids.size and int(edge_ids.max()) >> 32
    key = "edge_ids_u64" if wide else "edge_ids_u32"
    raw = np.asarray(edge_ids, _PACKED[key]).tobytes()
    return b'"%b":"%b"' % (key.encode(), base64.b64encode(raw))


def _packed_key(obj: dict) -> str | None:
    """The packed id key of a community object, after its shape checks
    (exactly ``k`` and that key, an int ``k``, a string payload); None
    for any other object."""
    key = next((key for key in _PACKED if key in obj), None)
    if key is None:
        return None
    k, payload = obj.get("k"), obj[key]
    if obj.keys() != {"k", key} or type(k) is not int or type(payload) is not str:
        raise WireProtocolError(
            f"a packed community is an int 'k' and a string {key!r}, got "
            f"{ {name: type(value).__name__ for name, value in obj.items()} }"
        )
    return key


def _decode_ids(key: str, payload: str) -> list[int]:
    """A packed payload's edge ids; :class:`WireProtocolError` when it is
    not base64 of whole ids."""
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise WireProtocolError(f"{key} is not base64: {exc}") from exc
    if len(raw) % _PACKED[key].itemsize:
        raise WireProtocolError(f"{key} holds {len(raw)} bytes, not whole ids")
    return np.frombuffer(raw, _PACKED[key]).tolist()


def _unpack_community(obj: dict) -> dict:
    """``json.loads`` object hook: a packed community → ``{"k", "edge_ids"}``."""
    key = _packed_key(obj)
    if key is None:
        return obj
    return {"k": obj["k"], "edge_ids": _decode_ids(key, obj[key])}


#: Estimated bytes of a decode memo entry: the payload text and list
#: headers, the payload's characters, and per id an 8-byte list slot plus
#: an int object as large as the widest id of its packed width.
_ENTRY_BYTES = sys.getsizeof("") + sys.getsizeof([])
_ID_BYTES = {
    key: 8 + sys.getsizeof((1 << 8 * dtype.itemsize) - 1)
    for key, dtype in _PACKED.items()
}


def _entry_bytes(text: tuple[str, str], num_ids: int) -> int:
    key, payload = text
    # Python ints, not an int32 key: the product cannot wrap
    return _ENTRY_BYTES + len(payload) + num_ids * _ID_BYTES[key]  # repro: allow(REP005)


class DecodeMemo:
    """One connection's decoded communities, keyed by their packed text.

    A community is the same answer for every vertex in it, so a client
    receives the same packed payload many times. :func:`decode_frame`
    with a memo runs every shape check on each packed object, then looks
    the exact ``(key, payload)`` text up here: a hit skips the base64
    and int decode. Every decode returns a fresh list (callers may
    mutate it); the int objects in it are shared. Entries are evicted
    least recently used to hold the estimate, :attr:`nbytes`, within
    :data:`DECODE_MEMO_BUDGET_BYTES`; a community larger than the whole
    budget is decoded and not stored. Not thread-safe: one per
    connection.
    """

    __slots__ = ("_entries", "nbytes")

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple[str, str], list[int]] = OrderedDict()
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def unpack(self, obj: dict) -> dict:
        """``json.loads`` object hook: :func:`_unpack_community`, memoized."""
        key = _packed_key(obj)
        if key is None:
            return obj
        text = (key, obj[key])
        ids = self._entries.get(text)
        if ids is None:
            ids = _decode_ids(*text)
            if not self._store(text, ids):
                return {"k": obj["k"], "edge_ids": ids}
        else:
            self._entries.move_to_end(text)
        return {"k": obj["k"], "edge_ids": list(ids)}

    def _store(self, text: tuple[str, str], ids: list[int]) -> bool:
        """Remember ``ids`` under ``text``, evicting least recently used
        entries; False (evicting nothing) when they exceed the budget."""
        cost = _entry_bytes(text, len(ids))
        if cost > DECODE_MEMO_BUDGET_BYTES:
            return False
        while self.nbytes + cost > DECODE_MEMO_BUDGET_BYTES:
            old, old_ids = self._entries.popitem(last=False)
            self.nbytes -= _entry_bytes(old, len(old_ids))
        self._entries[text] = ids
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
