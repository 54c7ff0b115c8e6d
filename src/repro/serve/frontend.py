"""Async serving front-end: coalescing TCP tier over shard workers.

The outside-facing half of the serving story. A stdlib-only asyncio TCP
server speaks the newline-delimited JSON protocol of
:mod:`repro.serve.protocol` and turns a stream of single
``(vertex, k)`` queries into shard-worker ``query_many`` batches:

* **Shard routing** — each request goes to the shard that owns its
  vertex under :class:`~repro.serve.protocol.BlockOwnership`, the same
  partition each shard announces as its ready frame's ``owned`` range.
  Every shard worker maps the *full* persistent store
  (:func:`~repro.store.reader.attach_store`), so routing is a cache-
  locality decision, not a correctness one: communities crossing
  partition boundaries are answered exactly by whichever shard owns
  the anchor.
* **Coalescing** — requests are buffered per (owning shard, ``k``). A
  request goes to its shard at once when that shard has no batch in
  flight; otherwise it waits, and when the shard's last batch returns
  every buffered batch for it is sent, at most ``max_batch`` requests
  each. A lone request never waits for a timer, and a busy shard's
  queue drains in as few batches as ``max_batch`` allows.
* **Pass-through answers** — a shard replies to a batch with a header
  frame and the answers' encoded communities
  (:mod:`repro.serve.protocol`); the frontend slices those bytes and
  splices each slice into its client's response without decoding it.
* **Provably empty answers** — at start (and after a refresh that
  swapped every shard onto one generation) the frontend derives
  :meth:`~repro.equitruss.index.EquiTrussIndex.vertex_max_trussness`
  from the store and answers a query with ``k > table[vertex]`` itself,
  with the ``[]`` a shard would send. It does so only while
  ``auto_refresh`` is off and every shard is alive and last announced
  (ready frame, batch header, refresh reply) the generation the table
  was derived from; a refresh that replays journal entries drops the
  table.
* **Admission control** — at most ``max_pending`` admitted requests may
  be in the house (buffered or in flight); past that the frontend
  answers immediately with a typed ``backpressure`` rejection instead
  of queueing into a timeout.
* **Supervision** — a shard that dies fails its in-flight requests
  with typed ``shard_unavailable`` errors and is respawned (up to
  ``restart_limit``) before the next batch routed to it. A batch reply
  whose header is malformed (:func:`~repro.serve.protocol.check_batch_header`)
  fails that batch with a typed ``protocol`` error and disconnects the
  shard the same way.

Per-request observability goes through the fixed-boundary histogram
registry: ``repro.serve.frontend.latency_ms`` (local answers included),
``repro.serve.frontend.queue_depth`` and
``repro.serve.frontend.coalesce_batch_size`` export p50/p95/p99 in
both the JSON snapshot and the Prometheus text exposition (the
``metrics`` op merges the shard workers' registries into the reply).
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import (
    BackpressureError,
    InvalidParameterError,
    LoopStallError,
    ReproError,
    ServeError,
    ShardUnavailableError,
    WireProtocolError,
)
from repro.obs import metrics
from repro.obs.histogram import DEFAULT_MS_BOUNDARIES
from repro.serve import protocol

#: Bucket upper bounds for request-count shaped histograms
#: (``repro.serve.frontend.queue_depth`` / ``coalesce_batch_size``).
COUNT_BOUNDARIES: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
    4096.0,
)

#: Histogram fed by the opt-in event-loop stall detector
#: (``REPRO_LOOP_CHECK=1``, :mod:`repro.analysis.stall`): one
#: observation per callback that held the serving loop past the
#: threshold.
LOOP_STALL_METRIC = "repro.serve.frontend.loop_stall_ms"

#: Bound of each wait in :meth:`ServingFrontend.stop`: for in-flight
#: batches to answer and their answers to be written, for the typed
#: errors of what the killed shards left unanswered, and for the client
#: handlers to finish once their connections are closed.
STOP_DRAIN_S = 2.0


@dataclass(frozen=True)
class FrontendConfig:
    """Knobs of one serving frontend (see ``docs/architecture.md``)."""

    #: persisted ``.eqtsidx`` store every shard worker attaches
    store_path: str | Path
    #: number of shard worker processes (= vertex partition ranks)
    num_shards: int = 2
    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port (read it back from ``frontend.port``)
    port: int = 0
    #: most requests one shard batch carries
    max_batch: int = 64
    #: admission limit: buffered + in-flight requests before rejection
    max_pending: int = 1024
    #: per-shard engine LRU result-cache entries
    cache_size: int = 1024
    #: how many times a dead shard is respawned before giving up
    restart_limit: int = 5
    #: seconds to wait for a shard's ready handshake at spawn
    ready_timeout_s: float = 60.0
    #: seconds one shard batch call may take before it counts as dead
    call_timeout_s: float = 120.0
    #: shards check the update journal before every batch
    auto_refresh: bool = False
    #: extra argv appended to the shard command (fault-injection knobs)
    shard_args: tuple[str, ...] = ()


def _shard_command(config: FrontendConfig, rank: int) -> list[str]:
    cmd = [
        sys.executable, "-m", "repro.serve.shard",
        "--store", str(config.store_path),
        "--rank", str(rank),
        "--ranks", str(config.num_shards),
        "--cache-size", str(config.cache_size),
    ]
    if config.auto_refresh:
        cmd.append("--auto-refresh")
    cmd.extend(config.shard_args)
    return cmd


def _shard_env() -> dict[str, str]:
    """Subprocess env whose ``PYTHONPATH`` can import this checkout."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not prior else os.pathsep.join([src, prior])
    return env


class ShardHandle:
    """Frontend-side supervisor of one shard worker subprocess."""

    def __init__(self, config: FrontendConfig, rank: int) -> None:
        self.config = config
        self.rank = rank
        self.proc: asyncio.subprocess.Process | None = None
        self.ready: dict = {}
        #: the store generation the worker last announced (its ready
        #: frame, a batch header, a refresh reply); None before spawn
        self.generation: int | None = None
        #: the vertex count of the store the worker last announced (its
        #: ready frame, a refresh reply); None before spawn
        self.num_vertices: int | None = None
        self.restarts = 0
        self._seq = 0
        #: request id -> (reply future, answers expected if a batch)
        self._pending: dict[int, tuple[asyncio.Future, int | None]] = {}
        self._reader_task: asyncio.Task | None = None
        self._spawn_lock = asyncio.Lock()
        self._dead = True
        self._closed = False

    @property
    def alive(self) -> bool:
        return (
            not self._dead
            and self.proc is not None
            and self.proc.returncode is None
        )

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    # ------------------------------------------------------------------
    async def spawn(self) -> None:
        """Start the worker and wait for its ready handshake; a worker
        that speaks another :data:`~repro.serve.protocol.PROTOCOL_VERSION`
        is killed."""
        proc = await asyncio.create_subprocess_exec(
            *_shard_command(self.config, self.rank),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=_shard_env(),
            limit=protocol.MAX_FRAME_BYTES,
        )
        self.proc = proc
        assert proc.stdout is not None
        try:
            line = await asyncio.wait_for(
                proc.stdout.readline(), self.config.ready_timeout_s
            )
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()
            raise ShardUnavailableError(
                f"shard {self.rank} did not become ready within "
                f"{self.config.ready_timeout_s}s"
            ) from None
        except ValueError:  # readline()'s LimitOverrunError
            proc.kill()
            await proc.wait()
            raise ShardUnavailableError(
                f"shard {self.rank} sent a ready line past "
                f"{protocol.MAX_FRAME_BYTES} bytes"
            ) from None
        if not line:
            await proc.wait()
            raise ShardUnavailableError(
                f"shard {self.rank} exited (rc={proc.returncode}) before ready"
            )
        frame = protocol.decode_frame(line)
        op, version = frame.get("op"), frame.get("version")
        if op != "ready" or version != protocol.PROTOCOL_VERSION:
            proc.kill()
            await proc.wait()
            raise ShardUnavailableError(
                f"shard {self.rank} sent {op!r} at protocol version {version!r}, "
                f"not 'ready' at {protocol.PROTOCOL_VERSION}"
            )
        self.ready = frame
        self.generation = frame.get("generation")
        self.num_vertices = frame.get("num_vertices")
        self._attach(proc)

    def _attach(self, proc: Any) -> None:
        """Read ``proc``'s replies from here on (handshake already read)."""
        self.proc = proc
        self._dead = False
        self._reader_task = asyncio.create_task(self._read_loop(proc.stdout))

    async def _read_loop(self, stdout: asyncio.StreamReader) -> None:
        """Resolve pending calls until EOF or a reply that breaks framing.

        A plain reply resolves to its frame. A successful batch reply
        resolves to the list of its answers' encoded communities: the
        header's ``sizes`` are checked, then exactly ``sum(sizes)`` body
        bytes are read and sliced. A reply to a call that already timed
        out is still read in full, so the stream stays in step.
        """
        reason = "disconnected"
        while True:
            try:
                line = await stdout.readline()
            except ValueError:  # readline()'s LimitOverrunError
                reason = (
                    f"sent a malformed reply (a line past "
                    f"{protocol.MAX_FRAME_BYTES} bytes)"
                )
                break
            if not line:
                break
            try:
                frame = protocol.decode_frame(line)
            except WireProtocolError:
                continue  # a torn line during kill; the EOF path cleans up
            rid = frame.get("id")
            fut, expected = self._pending.pop(rid, (None, None))
            if frame.get("ok") and isinstance(frame.get("generation"), int):
                self.generation = frame["generation"]
            if frame.get("ok") and isinstance(frame.get("num_vertices"), int):
                self.num_vertices = frame["num_vertices"]
            result: Any = frame
            if frame.get("ok") and (expected is not None or "sizes" in frame):
                try:
                    sizes = protocol.check_batch_header(frame, expected)
                except WireProtocolError as exc:
                    reason = f"sent a malformed batch reply ({exc})"
                    if fut is not None and not fut.done():
                        fut.set_exception(exc)
                    break
                try:
                    body = await stdout.readexactly(sum(sizes))
                except asyncio.IncompleteReadError:
                    reason = "disconnected mid batch reply"
                    if fut is not None:
                        self._pending[rid] = (fut, expected)
                    break
                result, offset = [], 0
                for size in sizes:
                    result.append(body[offset:offset + size])
                    offset += size
            if fut is not None and not fut.done():
                fut.set_result(result)
        self._dead = True
        if self.proc is not None and self.proc.returncode is None:
            try:
                self.proc.kill()  # its stream is out of step; respawn later
            except ProcessLookupError:  # pragma: no cover - raced exit
                pass
        pending = list(self._pending.values())
        self._pending.clear()
        message = f"shard {self.rank} (pid {self.pid}) {reason}"
        for fut, _ in pending:
            if not fut.done():
                fut.set_exception(ShardUnavailableError(message))

    async def ensure_alive(self) -> None:
        """Respawn a dead worker (bounded by ``restart_limit``).

        A new worker attaches the file and replays no journal, so when
        it announces an older generation than its predecessor last did,
        it replays the journal up to that generation (not past it, where
        its siblings have not been) before it serves; a worker that
        cannot is killed."""
        if self.alive:
            return
        async with self._spawn_lock:
            if self.alive:
                return
            if self._closed:
                raise ShardUnavailableError(f"shard {self.rank} is closed")
            if self.restarts >= self.config.restart_limit:
                raise ShardUnavailableError(
                    f"shard {self.rank} exceeded its restart limit "
                    f"({self.config.restart_limit})"
                )
            await self._reap()
            served = self.generation
            self.restarts += 1
            metrics.inc("repro.serve.frontend.respawns")
            await self.spawn()
            if served is not None and (self.generation or 0) < served:
                # written before this task yields, so it is the first
                # frame the worker reads: no batch can overtake it
                try:
                    protocol.raise_for_error(await self.call(
                        {"op": "refresh", "until": served},
                        self.config.call_timeout_s,
                    ))
                except ReproError as exc:
                    self._dead = True
                    await self._reap()
                    raise ShardUnavailableError(
                        f"shard {self.rank} could not replay to generation "
                        f"{served}: {exc}"
                    ) from exc

    async def _reap(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:  # pragma: no cover - raced exit
                pass
            await self.proc.wait()
        if self._reader_task is not None:
            await self._reader_task
            self._reader_task = None

    async def call(self, frame: dict, timeout: float | None = None) -> dict:
        """One request/response round trip with the worker."""
        return await self._request(frame, None, timeout)

    async def batch(
        self, k: int, vertices: list[int], timeout: float | None = None
    ) -> list[bytes]:
        """One ``batch`` round trip: each vertex's encoded communities."""
        result = await self._request(
            {"op": "batch", "k": k, "vertices": vertices}, len(vertices), timeout
        )
        if isinstance(result, dict):  # only error frames resolve to a dict
            protocol.raise_for_error(result)
        return result

    async def _request(
        self, frame: dict, expected: int | None, timeout: float | None
    ) -> Any:
        if not self.alive:
            raise ShardUnavailableError(f"shard {self.rank} is not running")
        proc = self.proc
        assert proc is not None and proc.stdin is not None
        self._seq += 1
        rid = self._seq
        payload = dict(frame)
        payload["id"] = rid
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = (fut, expected)
        try:
            proc.stdin.write(protocol.encode_frame(payload))
            await proc.stdin.drain()
        except (ConnectionError, RuntimeError) as exc:
            self._pending.pop(rid, None)
            raise ShardUnavailableError(
                f"shard {self.rank} write failed: {exc}"
            ) from exc
        try:
            return await asyncio.wait_for(fut, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(rid, None)
            raise ShardUnavailableError(
                f"shard {self.rank} did not answer within {timeout}s"
            ) from None

    async def close(self) -> None:
        """Kill the worker for good: a closed shard is never respawned."""
        self._dead = self._closed = True
        await self._reap()


class ServingFrontend:
    """The asyncio TCP server tying coalescer, router, and shards together."""

    def __init__(self, config: FrontendConfig) -> None:
        from repro.store.reader import read_header

        self.config = config
        if config.num_shards < 1:
            raise InvalidParameterError(
                f"num_shards must be >= 1, got {config.num_shards}"
            )
        header = read_header(config.store_path)
        self._header_num_vertices = int(header["num_vertices"])
        self._header_generation = int(header["generation"])
        self._ownership = protocol.BlockOwnership(
            self._header_num_vertices, config.num_shards
        )
        self.shards = [ShardHandle(config, r) for r in range(config.num_shards)]
        self.host: str | None = None
        self.port: int | None = None
        self.started = False
        self._server: asyncio.base_events.Server | None = None
        #: per shard: k -> requests waiting for that shard to go idle
        self._buffers: list[dict[int, list[tuple[int, asyncio.Future]]]] = [
            {} for _ in self.shards
        ]
        #: per shard: batches sent and not yet answered
        self._in_flight = [0] * config.num_shards
        self._batch_tasks: set[asyncio.Task] = set()
        #: live client connections: handler task -> its writer
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: request tasks of every connection, answered before stop closes it
        self._request_tasks: set[asyncio.Task] = set()
        self._admitted = 0
        self._stopping = False
        #: (generation, vertex_max_trussness) of the store file, or None
        self._table: tuple[int, np.ndarray] | None = None
        #: queries answered empty here, without a shard
        self.local_answers = 0

    @property
    def generation(self) -> int:
        """The newest generation a shard announced (the header's before
        any shard has)."""
        return max(
            (s.generation for s in self.shards if s.generation is not None),
            default=self._header_generation,
        )

    @property
    def num_vertices(self) -> int:
        """The smallest vertex count a shard announced (the header's
        before any shard has): every shard knows every vertex below it."""
        return min(
            (s.num_vertices for s in self.shards if s.num_vertices is not None),
            default=self._header_num_vertices,
        )

    def _local_table(self) -> np.ndarray | None:
        """The max-trussness table while it describes what every shard
        serves: no auto-refresh (the table is never derived then), and
        every shard alive with its last announced generation the table's."""
        if self._table is None:
            return None
        generation, table = self._table
        for shard in self.shards:
            if shard.generation != generation or not shard.alive:
                return None
        return table

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Derive the max-trussness table (unless shards auto-refresh),
        spawn every shard, then start accepting connections."""
        if not self.config.auto_refresh:
            self._table = await asyncio.to_thread(
                _max_trussness_table, self.config.store_path
            )
        try:
            await asyncio.gather(*(s.spawn() for s in self.shards))
        except ShardUnavailableError:
            for shard in self.shards:
                await shard.close()
            raise
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        metrics.set_gauge("repro.serve.frontend.shards", self.config.num_shards)
        self.started = True

    async def stop(self) -> None:
        """Stop accepting, drain, then close every shard and client.

        Buffered requests fail at once; in-flight batches get
        :data:`STOP_DRAIN_S` to answer before the shards are killed,
        which fails what is left with typed errors, so every admitted
        request is answered or gets a typed error. Each client is then
        closed and its handler awaited; a client that stopped reading is
        aborted after :data:`STOP_DRAIN_S`.
        """
        self.started = False
        self._stopping = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for buffers in self._buffers:
            for items in buffers.values():
                for _, fut in items:
                    if not fut.done():
                        fut.set_exception(ServeError("frontend stopping"))
                self._admitted -= len(items)
            buffers.clear()
        await _wait_bounded(self._batch_tasks | self._request_tasks)
        for shard in self.shards:
            await shard.close()
        if self._batch_tasks:
            await asyncio.gather(*self._batch_tasks, return_exceptions=True)
        await _wait_bounded(self._request_tasks)
        for writer in self._connections.values():
            writer.close()  # its handler reads EOF and finishes
        for handler in await _wait_bounded(set(self._connections)):
            self._connections[handler].transport.abort()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if server is not None:
            await server.wait_closed()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        metrics.inc("repro.serve.frontend.connections")
        handler = asyncio.current_task()
        assert handler is not None
        self._connections[handler] = writer
        wlock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.create_task(self._serve_frame(line, writer, wlock))
                for live in (tasks, self._request_tasks):
                    live.add(task)
                    task.add_done_callback(live.discard)
        except ConnectionError:
            pass
        except ValueError:
            # readline()'s LimitOverrunError, a frame past the limit: the
            # rest of the stream is out of step, so answer once and close
            await self._write(writer, wlock, protocol.encode_frame(
                protocol.error_response(
                    None, protocol.ERR_PROTOCOL,
                    f"frame exceeds {protocol.MAX_FRAME_BYTES} bytes; "
                    "closing the connection",
                )
            ))
        finally:
            # a disconnect drops the responses, not the batches: pending
            # request tasks run to completion and their writes no-op
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - raced close
                pass
            self._connections.pop(handler, None)

    async def _write(
        self, writer: asyncio.StreamWriter, wlock: asyncio.Lock, frame: bytes
    ) -> None:
        async with wlock:
            if writer.is_closing():
                return
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; nothing to deliver to

    async def _serve_frame(
        self, line: bytes, writer: asyncio.StreamWriter, wlock: asyncio.Lock
    ) -> None:
        try:
            obj = protocol.decode_request(line)
        except WireProtocolError as exc:
            await self._write(
                writer, wlock,
                protocol.encode_frame(protocol.exception_response(None, exc)),
            )
            return
        req_id = obj.get("id")
        op = obj.get("op", "query")
        t0 = time.perf_counter()
        resp: dict | bytes
        try:
            if op == "query":
                resp = await self._op_query(req_id, obj)
            elif op == "ping":
                resp = protocol.ok_response(
                    req_id, pong=True, generation=self.generation
                )
            elif op == "stats":
                resp = await self._op_stats(req_id)
            elif op == "metrics":
                resp = await self._op_metrics(req_id, obj)
            elif op == "refresh":
                resp = await self._op_refresh(req_id)
            else:
                raise WireProtocolError(f"unknown op {op!r}")
        except ReproError as exc:
            resp = protocol.exception_response(req_id, exc)
        if op == "query":
            metrics.inc("repro.serve.frontend.requests")
            metrics.observe(
                "repro.serve.frontend.latency_ms",
                (time.perf_counter() - t0) * 1000.0,
                boundaries=DEFAULT_MS_BOUNDARIES,
            )
        if isinstance(resp, dict):
            resp = protocol.encode_frame(resp)
        await self._write(writer, wlock, resp)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    async def _op_query(self, req_id: Any, obj: dict) -> bytes:
        vertex, k = protocol.check_query_fields(obj)
        if not 0 <= vertex < self.num_vertices:
            raise InvalidParameterError(
                f"vertex {vertex} out of range [0, {self.num_vertices})"
            )
        if k < 3:
            raise InvalidParameterError(
                f"k must be >= 3 for k-truss communities, got {k}"
            )
        table = self._local_table()
        if table is not None and vertex < table.size and k > int(table[vertex]):
            self.local_answers += 1
            metrics.inc("repro.serve.frontend.local_answers")
            return protocol.query_response_frame(req_id, vertex, k, b"[]")
        communities = await self._submit(vertex, k)
        return protocol.query_response_frame(req_id, vertex, k, communities)

    async def _op_refresh(self, req_id: Any) -> dict:
        reports = []
        for shard in self.shards:
            await shard.ensure_alive()
            resp = protocol.raise_for_error(
                await shard.call({"op": "refresh"}, self.config.call_timeout_s)
            )
            reports.append(
                {
                    "rank": shard.rank,
                    "applied": resp.get("applied"),
                    "swapped": resp.get("swapped"),
                    "generation": resp.get("generation"),
                }
            )
        generations = {r["generation"] for r in reports}
        if any(r["applied"] for r in reports) or len(generations) > 1:
            self._table = None  # the file no longer describes the shards
        elif not self.config.auto_refresh and (
            self._table is None or self._table[0] not in generations
        ):
            table = await asyncio.to_thread(
                _max_trussness_table, self.config.store_path
            )
            self._table = table if table[0] in generations else None
        return protocol.ok_response(req_id, reports=reports)

    async def _op_stats(self, req_id: Any) -> dict:
        shard_stats: list[dict] = []
        for shard in self.shards:
            entry: dict = {
                "rank": shard.rank,
                "alive": shard.alive,
                "pid": shard.pid,
                "restarts": shard.restarts,
            }
            if shard.alive:
                try:
                    resp = protocol.raise_for_error(
                        await shard.call({"op": "stats"}, self.config.call_timeout_s)
                    )
                    entry["stats"] = resp.get("stats")
                except ReproError:
                    entry["alive"] = shard.alive
            shard_stats.append(entry)
        frontend = {
            "store": str(self.config.store_path),
            "num_vertices": self.num_vertices,
            "num_shards": self.config.num_shards,
            "generation": self.generation,
            "local_answers": self.local_answers,
            "table_generation": (
                self._table[0] if self._local_table() is not None else None
            ),
            "kmax": max(
                (int(s.ready.get("kmax", 2)) for s in self.shards if s.ready),
                default=2,
            ),
            "admitted": self._admitted,
            "max_pending": self.config.max_pending,
            "max_batch": self.config.max_batch,
        }
        return protocol.ok_response(req_id, frontend=frontend, shards=shard_stats)

    async def _op_metrics(self, req_id: Any, obj: dict) -> dict:
        from repro.obs.exporter import render_prometheus
        from repro.obs.metrics import MetricsRegistry

        fmt = obj.get("format", "prometheus")
        if fmt not in ("prometheus", "json"):
            raise WireProtocolError(f"unknown metrics format {fmt!r}")
        merged = MetricsRegistry()
        merged.merge_state(metrics.get_registry().dump_state())
        for shard in self.shards:
            if not shard.alive:
                continue
            try:
                resp = protocol.raise_for_error(
                    await shard.call({"op": "metrics"}, self.config.call_timeout_s)
                )
            except ReproError:
                continue
            merged.merge_state(resp.get("state") or {})
        if fmt == "prometheus":
            return protocol.ok_response(req_id, body=render_prometheus(merged))
        return protocol.ok_response(req_id, metrics=merged.as_dict())

    # ------------------------------------------------------------------
    # Coalescing + routing
    # ------------------------------------------------------------------
    async def _submit(self, vertex: int, k: int) -> bytes:
        """Admit one query; its owning shard's encoded answer."""
        if self._stopping:
            raise ServeError("frontend stopping")
        if self._admitted >= self.config.max_pending:
            metrics.inc("repro.serve.frontend.rejected")
            raise BackpressureError(
                f"admission limit reached ({self.config.max_pending} requests "
                f"pending); retry later"
            )
        self._admitted += 1
        metrics.observe(
            "repro.serve.frontend.queue_depth", float(self._admitted),
            boundaries=COUNT_BOUNDARIES,
        )
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        rank = self._ownership.owner(vertex)
        self._buffers[rank].setdefault(k, []).append((vertex, fut))
        if not self._in_flight[rank]:
            self._send(rank)
        return await fut

    def _send(self, rank: int) -> None:
        """Send every buffered batch of shard ``rank``."""
        buffers, self._buffers[rank] = self._buffers[rank], {}
        step = self.config.max_batch
        loop = asyncio.get_running_loop()
        for k, items in buffers.items():
            for lo in range(0, len(items), step):
                self._in_flight[rank] += 1
                task = loop.create_task(
                    self._run_batch(rank, k, items[lo:lo + step])
                )
                self._batch_tasks.add(task)
                task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(
        self, rank: int, k: int, items: list[tuple[int, asyncio.Future]]
    ) -> None:
        metrics.observe(
            "repro.serve.frontend.coalesce_batch_size", float(len(items)),
            boundaries=COUNT_BOUNDARIES,
        )
        shard = self.shards[rank]
        t0 = time.perf_counter()
        try:
            await shard.ensure_alive()
            answers = await shard.batch(
                k, [v for v, _ in items], self.config.call_timeout_s
            )
            metrics.observe(
                "repro.serve.frontend.shard_ms",
                (time.perf_counter() - t0) * 1000.0,
                boundaries=DEFAULT_MS_BOUNDARIES,
            )
            for (_, fut), answer in zip(items, answers):
                if not fut.done():
                    fut.set_result(answer)
        except ShardUnavailableError as exc:
            metrics.inc("repro.serve.frontend.shard_failures")
            self._fail_sub(items, ShardUnavailableError(str(exc)))
        except ReproError as exc:
            self._fail_sub(items, exc)
        finally:
            self._admitted -= len(items)
            self._in_flight[rank] -= 1
            if not self._in_flight[rank] and self._buffers[rank]:
                self._send(rank)  # the shard went idle: drain its queue

    @staticmethod
    def _fail_sub(sub: list[tuple[int, asyncio.Future]], exc: Exception) -> None:
        for _, fut in sub:
            if not fut.done():
                fut.set_exception(exc)


def _max_trussness_table(store_path) -> tuple[int, np.ndarray]:
    """``(generation, vertex_max_trussness)`` of the store file; a store
    that cannot be attached fails as a shard spawn on it would."""
    from repro.store import attach_store

    try:
        with attach_store(store_path) as store:
            return store.generation, store.index.vertex_max_trussness()
    except ReproError as exc:
        raise ShardUnavailableError(
            f"cannot attach store {store_path}: {exc}"
        ) from exc


async def _wait_bounded(tasks: set[asyncio.Task]) -> set[asyncio.Task]:
    """Wait up to :data:`STOP_DRAIN_S` for ``tasks``; those still pending."""
    if not tasks:
        return set()
    _, pending = await asyncio.wait(tasks, timeout=STOP_DRAIN_S)
    return pending


# ----------------------------------------------------------------------
# Entry points: foreground loop (CLI) and background thread (tests/bench)
# ----------------------------------------------------------------------


async def run_frontend(
    config: FrontendConfig,
    *,
    duration: float | None = None,
    on_ready=None,
    stop_event: asyncio.Event | None = None,
) -> None:
    """Start a frontend and serve until ``duration``/``stop_event``/cancel."""
    from repro.analysis.stall import maybe_watchdog

    watchdog = maybe_watchdog(metric=LOOP_STALL_METRIC)
    try:
        # the constructor reads the store header from disk — off-loop
        frontend = await asyncio.to_thread(ServingFrontend, config)
        await frontend.start()
        if on_ready is not None:
            on_ready(frontend)
        try:
            if stop_event is not None and duration is not None:
                try:
                    await asyncio.wait_for(stop_event.wait(), duration)
                except asyncio.TimeoutError:
                    pass
            elif stop_event is not None:
                await stop_event.wait()
            elif duration is not None:
                await asyncio.sleep(duration)
            else:
                await asyncio.Event().wait()  # serve forever
        finally:
            await frontend.stop()
    finally:
        if watchdog is not None:
            watchdog.uninstall()
            watchdog.check()


class FrontendThread:
    """A frontend on a private event loop thread (tests, benchmarks).

    Use as a context manager; ``host``/``port`` are valid once
    ``__enter__`` returns. ``frontend`` exposes the live
    :class:`ServingFrontend` (event-loop confined — talk to it over the
    wire, not by calling coroutines from the outer thread).
    """

    def __init__(self, config: FrontendConfig) -> None:
        self.config = config
        self.host: str | None = None
        self.port: int | None = None
        self.frontend: ServingFrontend | None = None
        #: live stall watchdog when ``REPRO_LOOP_CHECK`` is set
        self.loop_watchdog = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "FrontendThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-frontend", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=300.0):  # pragma: no cover - hang guard
            raise ServeError("frontend thread did not become ready")
        if self._error is not None:
            raise self._error
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        self._thread.join(timeout=60.0)
        self._thread = None
        if isinstance(self._error, LoopStallError):
            error, self._error = self._error, None
            raise error

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface spawn failures to start()
            self._error = exc
        finally:
            self._ready.set()

    async def _amain(self) -> None:
        from repro.analysis.stall import maybe_watchdog

        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.loop_watchdog = maybe_watchdog(metric=LOOP_STALL_METRIC)
        try:
            # the constructor reads the store header from disk — off-loop
            frontend = await asyncio.to_thread(ServingFrontend, self.config)
            await frontend.start()
            self.frontend = frontend
            self.host, self.port = frontend.host, frontend.port
            self._ready.set()
            try:
                await self._stop_event.wait()
            finally:
                await frontend.stop()
        finally:
            if self.loop_watchdog is not None:
                self.loop_watchdog.uninstall()
                self.loop_watchdog.check()

    def __enter__(self) -> "FrontendThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
