"""Shard worker: one mmap-attach serving process behind the frontend.

Run as ``python -m repro.serve.shard --store X.eqtsidx --rank R --ranks N``.
The worker :func:`~repro.store.reader.attach_store`\\ s the persistent
index read-only (milliseconds, zero-copy — N workers share one page
cache copy), builds a :class:`~repro.serve.engine.QueryEngine` over it,
and answers newline-delimited JSON batches on stdin/stdout (see
:mod:`repro.serve.protocol`). A ``batch`` reply is a header frame
followed by the answers' encoded communities, which the frontend passes
through to its clients undecoded. The frontend owns the routing: this
worker *serves* the vertex block ``rank`` of
:class:`~repro.serve.protocol.BlockOwnership` but can answer
any vertex of the graph — every shard maps the full index, so
communities that cross partition boundaries need no cross-shard merge.

Startup handshake: the first line the worker writes is a ``ready``
frame carrying its rank, pid, attached generation, and owned vertex
range; the frontend waits for it before admitting traffic.

Staleness: an explicit ``refresh`` op replays journal entries (up to
its optional ``until`` generation) or re-attaches after a rebuild swap,
via :meth:`~repro.store.reader.AttachedStore.refresh`, and replies with
the generation and vertex count it now serves; ``--auto-refresh``
additionally checks for pending updates before every batch so readers
track a live writer without frontend involvement.

``--delay-ms`` injects a fixed sleep before each batch answer — a
fault-injection knob the crash tests use to pin requests in flight.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, BinaryIO

from repro.errors import InvalidParameterError, ReproError, WireProtocolError
from repro.obs import metrics
from repro.obs.histogram import DEFAULT_MS_BOUNDARIES
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    BlockOwnership,
    decode_request,
    encode_communities,
    encode_frame,
    exception_response,
    ok_response,
)


class ShardWorker:
    """The request loop of one shard process (testable in-process)."""

    def __init__(
        self,
        store_path: str,
        rank: int,
        ranks: int,
        *,
        cache_size: int = 1024,
        auto_refresh: bool = False,
        delay_ms: float = 0.0,
    ) -> None:
        from repro.store import attach_store

        self.rank = int(rank)
        self.ranks = int(ranks)
        if not 0 <= self.rank < self.ranks:
            raise InvalidParameterError(
                f"shard rank must be in [0, {ranks}), got {rank}"
            )
        self.auto_refresh = auto_refresh
        self.delay_ms = float(delay_ms)
        self.store = attach_store(store_path)
        self.engine = self.store.engine(cache_size=cache_size)
        self.ownership = BlockOwnership(self.store.graph.num_vertices, self.ranks)
        self.batches = 0

    # ------------------------------------------------------------------
    def ready_frame(self) -> dict:
        lo, hi = self.ownership.owned_range(self.rank)
        trussness = self.store.index.trussness
        return {
            "op": "ready",
            "version": PROTOCOL_VERSION,
            "rank": self.rank,
            "ranks": self.ranks,
            "pid": os.getpid(),
            "generation": int(self.store.generation),
            "attach_ms": float(self.store.attach_ms),
            "num_vertices": int(self.store.graph.num_vertices),
            "kmax": int(trussness.max()) if trussness.size else 2,
            "owned": [int(lo), int(hi)],
        }

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _maybe_refresh(self) -> None:
        if self.auto_refresh and (
            self.store.is_stale() or self.store.pending_updates()
        ):
            self.store.refresh()

    def handle(self, obj: dict) -> bytes:
        """One request frame → its encoded reply (never raises)."""
        req_id = obj.get("id")
        try:
            op = obj.get("op")
            if op == "batch":
                return self._op_batch(req_id, obj)
            if op == "refresh":
                until = obj.get("until")
                if until is not None and not isinstance(until, int):
                    raise WireProtocolError("refresh 'until' must be an integer")
                report = self.store.refresh(until=until)
                resp = ok_response(
                    req_id,
                    applied=report.applied,
                    swapped=report.swapped,
                    generation=report.generation,
                    num_vertices=int(self.store.graph.num_vertices),
                )
            elif op == "metrics":
                resp = ok_response(req_id, state=metrics.get_registry().dump_state())
            elif op == "stats":
                resp = ok_response(req_id, stats=self.stats())
            elif op == "ping":
                resp = ok_response(req_id, pong=True, rank=self.rank)
            else:
                raise WireProtocolError(f"unknown shard op {op!r}")
        except ReproError as exc:
            resp = exception_response(req_id, exc)
        return encode_frame(resp)

    def _op_batch(self, req_id: Any, obj: dict) -> bytes:
        k = obj.get("k")
        vertices = obj.get("vertices")
        if not isinstance(k, int) or not isinstance(vertices, list):
            raise WireProtocolError("batch op needs integer 'k' and list 'vertices'")
        if self.delay_ms > 0:
            time.sleep(self.delay_ms / 1000.0)
        self._maybe_refresh()
        t0 = time.perf_counter()
        answers = self.engine.query_many(vertices, k, record=False)
        t1 = time.perf_counter()
        parts = [encode_communities(ans, self.engine) for ans in answers]
        encode_ms = (time.perf_counter() - t1) * 1000.0
        elapsed_ms = (t1 - t0) * 1000.0
        self.batches += 1
        metrics.inc("repro.serve.shard.batches")
        metrics.inc("repro.serve.shard.requests", len(vertices))
        metrics.observe(
            "repro.serve.shard.batch_ms", elapsed_ms,
            boundaries=DEFAULT_MS_BOUNDARIES,
        )
        metrics.observe(
            "repro.serve.shard.encode_ms", encode_ms,
            boundaries=DEFAULT_MS_BOUNDARIES,
        )
        header = ok_response(
            req_id,
            sizes=[len(part) for part in parts],
            generation=int(self.store.generation),
            elapsed_ms=elapsed_ms,
            encode_ms=encode_ms,
        )
        return b"".join([encode_frame(header), *parts])

    def stats(self) -> dict:
        lo, hi = self.ownership.owned_range(self.rank)
        return {
            "rank": self.rank,
            "pid": os.getpid(),
            "generation": int(self.store.generation),
            "batches": self.batches,
            "owned": [int(lo), int(hi)],
            "engine": self.engine.stats(),
        }

    # ------------------------------------------------------------------
    def run(self, inp: BinaryIO, out: BinaryIO) -> int:
        """Serve frames from ``inp`` until EOF; returns an exit code."""
        out.write(encode_frame(self.ready_frame()))
        out.flush()
        for line in inp:
            if not line.strip():
                continue
            try:
                obj = decode_request(line)
            except WireProtocolError as exc:
                out.write(encode_frame(exception_response(None, exc)))
                out.flush()
                continue
            if obj.get("op") == "shutdown":
                out.write(encode_frame(ok_response(obj.get("id"), stopping=True)))
                out.flush()
                break
            out.write(self.handle(obj))
            out.flush()
        self.close()
        return 0

    def close(self) -> None:
        self.store.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.shard",
        description="one mmap-attach shard worker of the serving frontend",
    )
    parser.add_argument("--store", required=True, help="persisted .eqtsidx store file")
    parser.add_argument("--rank", type=int, required=True)
    parser.add_argument("--ranks", type=int, required=True)
    parser.add_argument("--cache-size", type=int, default=1024)
    parser.add_argument("--auto-refresh", action="store_true",
                        help="check the journal before every batch")
    parser.add_argument("--delay-ms", type=float, default=0.0,
                        help="fault-injection: sleep before each batch answer")
    args = parser.parse_args(argv)
    worker = ShardWorker(
        args.store, args.rank, args.ranks,
        cache_size=args.cache_size, auto_refresh=args.auto_refresh,
        delay_ms=args.delay_ms,
    )
    return worker.run(sys.stdin.buffer, sys.stdout.buffer)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
