"""Blocking client for the serving frontend's NDJSON/TCP protocol.

A thin synchronous wrapper used by the load generator, the CLI, and
the test suites. Two usage styles:

* **call/response** — :meth:`ServeClient.query` and friends do one
  round trip and rehydrate typed errors
  (:class:`~repro.errors.BackpressureError`,
  :class:`~repro.errors.ShardUnavailableError`, ...).
* **pipelined** — :meth:`ServeClient.send` many requests without
  waiting, then :meth:`ServeClient.recv` (or
  :meth:`ServeClient.collect`) the responses; they may arrive in any
  order and are correlated by ``id``.

Each client decodes responses through its own
:class:`~repro.serve.protocol.DecodeMemo`, so a community that many
answers repeat is decoded once per connection.
"""

from __future__ import annotations

import socket
from typing import Any, Iterable

from repro.errors import ServeError, WireProtocolError
from repro.serve import protocol


class ServeClient:
    """One TCP connection to a :class:`~repro.serve.frontend.ServingFrontend`."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        self._rfile = self._sock.makefile("rb")
        self._seq = 0
        #: this connection's decoded communities (never shared)
        self.memo = protocol.DecodeMemo()

    # ------------------------------------------------------------------
    # Pipelined primitives
    # ------------------------------------------------------------------
    def send(self, op: str, req_id: Any = None, **fields: Any) -> Any:
        """Send one request frame (no wait); returns its ``id``."""
        if req_id is None:
            self._seq += 1
            req_id = self._seq
        frame = {"id": req_id, "op": op}
        frame.update(fields)
        self._sock.sendall(protocol.encode_frame(frame))
        return req_id

    def recv(self) -> dict:
        """Read one response frame (raises on a closed connection)."""
        line = self._rfile.readline()
        if not line:
            raise ServeError("connection closed by the frontend")
        return protocol.decode_frame(line, self.memo)

    def collect(self, ids: Iterable[Any]) -> dict[Any, dict]:
        """Receive until every id in ``ids`` has a response; id → frame."""
        want = set(ids)
        got: dict[Any, dict] = {}
        while want:
            resp = self.recv()
            rid = resp.get("id")
            if rid in got:
                raise WireProtocolError(f"duplicate response id {rid!r}")
            got[rid] = resp
            want.discard(rid)
        return got

    def query_pipeline(
        self, requests: Iterable[tuple[int, int]]
    ) -> dict[Any, dict]:
        """Send every ``(vertex, k)`` then gather all responses by id."""
        ids = [self.send("query", vertex=int(v), k=int(k)) for v, k in requests]
        return self.collect(ids)

    # ------------------------------------------------------------------
    # Call/response helpers
    # ------------------------------------------------------------------
    def call(self, op: str, **fields: Any) -> dict:
        """One round trip; raises the typed exception on error responses."""
        rid = self.send(op, **fields)
        resp = self.recv()
        if resp.get("id") != rid:
            raise WireProtocolError(
                f"response id {resp.get('id')!r} does not match request {rid!r} "
                f"(pipelined requests must use send/collect)"
            )
        return protocol.raise_for_error(resp)

    def query(self, vertex: int, k: int) -> list[dict]:
        """Communities of ``(vertex, k)`` in the wire shape."""
        return self.call("query", vertex=int(vertex), k=int(k))["communities"]

    def ping(self) -> dict:
        return self.call("ping")

    def stats(self) -> dict:
        return self.call("stats")

    def refresh(self) -> list[dict]:
        """Ask every shard to catch up with the journal / a swap."""
        return self.call("refresh")["reports"]

    def metrics_prometheus(self) -> str:
        """The merged frontend+shard registries, text exposition format."""
        return self.call("metrics", format="prometheus")["body"]

    def metrics_json(self) -> dict:
        return self.call("metrics", format="json")["metrics"]

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
