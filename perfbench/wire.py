"""The serve half on the wire: frontend process lifecycle and load senders.

The frontend runs as its own process (``python -m repro serve``) in its
own session, so the load generator's GIL is not shared with its event
loop. Load comes from this process over at most two client connections;
control calls (``stats``/``metrics``) use a short-lived extra connection
between phases only.

Stopping is bounded: SIGINT to the frontend, a bounded wait, then
SIGKILL to its whole process group. The frontend and every shard pid
read from ``stats`` must be gone afterwards, or the run fails.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.errors import ServeError
from repro.serve import protocol
from repro.serve.client import ServeClient

READY_TIMEOUT_S = 120.0
STOP_WAIT_S = 10.0
CLIENT_TIMEOUT_S = 30.0

#: a success response starts ``{"id":N,"ok":true`` (``ok_response`` key order)
_HEAD = re.compile(rb'^\{"id":(\d+),"ok":(true|false)')


class LeftRunning(RuntimeError):
    """A process the benchmark started survived its stop."""


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            state = fh.read().rsplit(b")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in (b"Z", b"X")


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """``python -m repro serve`` over one store, with bounded stop."""

    def __init__(self, root: Path, store: Path, workdir: Path, *,
                 shards: int, cap_s: float) -> None:
        self.root, self.store, self.workdir = root, store, workdir
        self.shards, self.cap_s = shards, cap_s
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self.shard_pids: list[int] = []
        self.ready_s = 0.0

    def start(self) -> "Server":
        endpoint = self.workdir / "endpoint"
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        t0 = time.perf_counter()
        with open(self.workdir / "serve.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(self.store),
                 "--shards", str(self.shards), "--endpoint-file", str(endpoint),
                 "--duration", f"{self.cap_s:.0f}"],
                env=env, cwd=self.root, stdout=subprocess.DEVNULL, stderr=log,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
        deadline = t0 + READY_TIMEOUT_S
        while not endpoint.exists() or not endpoint.read_text().endswith("\n"):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise ServeError(
                    f"frontend did not come up: {(self.workdir / 'serve.log').read_text()[-400:]}"
                )
            time.sleep(0.005)
        host, port = endpoint.read_text().split()
        self.host, self.port = host, int(port)
        stats = self.control("stats")
        self.ready_s = time.perf_counter() - t0
        self.shard_pids = [int(s["pid"]) for s in stats["shards"] if s.get("pid")]
        self.num_vertices = int(stats["frontend"]["num_vertices"])
        self.kmax = int(stats["frontend"]["kmax"])
        return self

    def control(self, op: str, **fields) -> dict:
        with ServeClient(self.host, self.port, timeout=CLIENT_TIMEOUT_S) as client:
            return client.call(op, **fields)

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid, *self.shard_pids] if self.proc else []
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGINT, bounded wait, SIGKILL the group; raise if anything lives."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(STOP_WAIT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait(STOP_WAIT_S)
        deadline = time.perf_counter() + STOP_WAIT_S
        pids = [proc.pid, *self.shard_pids]
        while any(_alive(p) for p in pids) and time.perf_counter() < deadline:
            time.sleep(0.01)
        left = [p for p in pids if _alive(p)]
        self.proc = None
        if left:
            raise LeftRunning(f"processes still alive after stop: {left}")


# ----------------------------------------------------------------------
# Senders
# ----------------------------------------------------------------------


class PhaseResult:
    """Latencies (ms, request order) and outcomes of one load phase."""

    def __init__(self, n: int) -> None:
        #: ``None`` until the request is answered successfully
        self.lat_ms: list[float | None] = [None] * n
        self.answers: dict[int, list] = {}
        self.wall_s = 0.0
        self.lag_ms: list[float] = []
        self.resp_bytes = 0
        self.responses = 0

    def ok_latencies(self) -> list[float]:
        return [x for x in self.lat_ms if x is not None]

    @property
    def failed(self) -> int:
        """Requests without a successful answer: typed errors,
        backpressure rejections, lost connections."""
        return sum(x is None for x in self.lat_ms)


def closed_loop(server: Server, requests, clients: int, sample: set[int],
                spans, phase: str) -> PhaseResult:
    """``clients`` connections, each sending its next request when the
    previous answer lands; request ``i`` goes to connection ``i % clients``."""
    out = PhaseResult(len(requests))

    def worker(c: int, parent) -> None:
        with ServeClient(server.host, server.port, timeout=CLIENT_TIMEOUT_S) as client:
            for i in range(c, len(requests), clients):
                v, k = requests[i]
                t0 = time.perf_counter()
                try:
                    answer = client.query(v, k)
                except ServeError:
                    continue
                t1 = time.perf_counter()
                out.lat_ms[i] = (t1 - t0) * 1000.0
                spans.add("client.request", t0, t1, parent=parent, rid=f"{phase}-{i}",
                          vertex=v, k=k)
                if i in sample:
                    out.answers[i] = answer

    with spans.span(f"wire.{phase}", clients=clients, requests=len(requests)) as rec:
        t0 = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(c, rec)) for c in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        out.wall_s = time.perf_counter() - t0
    return out


def open_loop(server: Server, requests, rate: float, sample: set[int],
              spans, phase: str = "open") -> PhaseResult:
    """One pipelined connection; request ``i`` is due at ``start + i/rate``.

    Latency runs from when a request was due, not when it was sent, so a
    stall in this sender or in the server counts against every request
    it delays. ``lag_ms`` is how late each send was.
    """
    n = len(requests)
    out = PhaseResult(n)
    due = [0.0] * n
    sock = socket.create_connection((server.host, server.port), timeout=CLIENT_TIMEOUT_S)
    rfile = sock.makefile("rb")

    def reader() -> None:
        for _ in range(n):
            try:
                line = rfile.readline()
            except (OSError, ValueError):
                return
            now = time.perf_counter()
            if not line:
                return
            out.resp_bytes += len(line)
            out.responses += 1
            head = _HEAD.match(line)
            if head is None or head.group(2) != b"true":
                continue
            i = int(head.group(1))
            out.lat_ms[i] = (now - due[i]) * 1000.0
            if i in sample:
                out.answers[i] = protocol.decode_frame(line)["communities"]

    try:
        with spans.span(f"wire.{phase}", rate=rate, requests=n) as rec:
            thread = threading.Thread(target=reader)
            thread.start()
            start = time.perf_counter() + 0.005
            for i in range(n):
                due[i] = start + i / rate
                wait = due[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                out.lag_ms.append((sent - due[i]) * 1000.0)
                v, k = requests[i]
                sock.sendall(protocol.encode_frame(
                    {"id": i, "op": "query", "vertex": v, "k": k}))
            thread.join(CLIENT_TIMEOUT_S)
            out.wall_s = time.perf_counter() - start
            for i, lat in enumerate(out.lat_ms):
                if lat is not None:
                    spans.add("client.request", due[i], due[i] + lat / 1000.0,
                              parent=rec, rid=f"{phase}-{i}")
    finally:
        rfile.close()
        sock.close()
    return out
