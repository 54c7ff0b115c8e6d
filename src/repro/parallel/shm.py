"""Shared-memory process backend: persistent workers, zero-copy arrays.

The one parallel backend: actual multicore execution past the GIL.
Three coordinated pieces:

* :class:`SharedArrayPool` — a keyed arena of named
  ``multiprocessing.shared_memory`` segments holding NumPy arrays. It
  mirrors the :class:`~repro.parallel.context.Workspace` contract
  (``take(kind, shape, dtype)`` with per-kind buffer reuse and a byte
  high-water mark) but the buffers are visible to every worker process
  at zero copy cost — workers attach by segment name, they never
  receive array payloads through a pipe. The peak is published as the
  ``repro.mem.shared_pool_high_water`` gauge.

* :class:`ProcessBackend` — a **persistent** worker-process pool
  (``fork`` start method, spun up once and reused across kernel
  invocations, so the fork cost is amortized over the whole run). Tasks
  are module-level functions plus :class:`SharedHandle` arguments; the
  heavy kernels submit one task per worker following the
  **partition → privatize → reduce** shape of PKT [Kabir & Madduri,
  arXiv:1707.02000]: each worker writes private partial results
  (``bincount`` rows, append buffers) into shared memory and the
  coordinator reduces, so no cross-process atomics are ever needed.

* :func:`export_array` / :func:`import_array` — the per-worker append
  buffer protocol. A worker materializes its variable-sized output
  (e.g. the triangle triples of its slot range) into a fresh shared
  segment and returns only the small handle; the coordinator adopts the
  segment, copies the payload out, and unlinks it.

Where ``fork`` (or POSIX shared memory) is unavailable the backend
degrades gracefully: tasks run inline on the coordinator — identical
results, no parallelism — and a single :class:`RuntimeWarning` is
emitted. Kernels therefore never need platform guards.
"""

from __future__ import annotations

import multiprocessing as mp
import re
import secrets
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.parallel.context import ExecutionContext

from repro.analysis.races import (
    AccessLog,
    TrackedArray,
    drain_log,
    tracking_enabled,
    verify_task_accesses,
)
from repro.errors import BackendError
from repro.obs import metrics
from repro.obs.histogram import DEFAULT_MS_BOUNDARIES
from repro.obs.worker import capture_task, merge_envelope

#: Default minimum number of items before a kernel pays the task
#: round-trip cost (~1 ms warm) to fan work out to the worker pool.
PROCESS_MIN_ITEMS = 1 << 15

#: Worker-side cap on cached segment attachments.
_ATTACH_CACHE_MAX = 128


# ----------------------------------------------------------------------
# Handles and attachment
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SharedHandle:
    """Picklable reference to a NumPy array living in a shared segment."""

    name: str
    dtype: str
    shape: tuple

    @property
    def size(self) -> int:
        out = 1
        for s in self.shape:
            out *= int(s)
        return out

    @property
    def nbytes(self) -> int:
        return self.size * np.dtype(self.dtype).itemsize


def _unlink(seg: shared_memory.SharedMemory) -> None:
    """Destroy a segment, tolerating one already unlinked elsewhere.

    Resource-tracker accounting note: the whole fork family shares one
    tracker process whose per-type cache is a *set* of names, so the
    registrations CPython emits on both create and attach collapse to a
    single entry, and the single unregister inside ``unlink`` balances
    them exactly. Never unregister on attach/close — with several
    workers attached to one segment the extra unregisters race and the
    tracker logs ``KeyError`` tracebacks.
    """
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


#: Segment attachments cached per process (workers re-attach by name
#: once, then reuse the mapping across every subsequent task).
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def attach(handle: SharedHandle) -> np.ndarray:
    """Zero-copy NumPy view of the segment behind ``handle``.

    Under race tracking (:func:`repro.analysis.races.tracking_enabled`)
    the view is a :class:`~repro.analysis.races.TrackedArray` that logs
    the byte ranges of every read and write for the write-set check in
    :meth:`ProcessBackend.map_tasks`.
    """
    seg = _ATTACHED.get(handle.name)
    if seg is None:
        if len(_ATTACHED) >= _ATTACH_CACHE_MAX:
            for stale in list(_ATTACHED.values()):
                stale.close()
            _ATTACHED.clear()
        seg = shared_memory.SharedMemory(name=handle.name)
        _ATTACHED[handle.name] = seg
    arr = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype), buffer=seg.buf)
    if tracking_enabled():
        return TrackedArray.wrap(arr, handle.name)
    return arr


def export_array(arr: np.ndarray) -> SharedHandle:
    """Copy ``arr`` into a fresh shared segment (worker append buffer).

    The creating process closes its mapping immediately; ownership
    passes to whoever calls :func:`import_array` on the handle.
    """
    arr = np.ascontiguousarray(arr)
    seg = shared_memory.SharedMemory(
        create=True, size=max(int(arr.nbytes), 1), name=f"repro_out_{secrets.token_hex(8)}"
    )
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
    view[...] = arr
    handle = SharedHandle(name=seg.name, dtype=arr.dtype.str, shape=tuple(arr.shape))
    seg.close()
    return handle


def import_array(handle: SharedHandle, unlink: bool = True) -> np.ndarray:
    """Adopt an exported segment: copy the payload out and unlink it."""
    seg = shared_memory.SharedMemory(name=handle.name)
    try:
        out = np.array(
            np.ndarray(handle.shape, dtype=np.dtype(handle.dtype), buffer=seg.buf)
        )
    finally:
        if unlink:
            _unlink(seg)
        seg.close()
    return out


# ----------------------------------------------------------------------
# SharedArrayPool
# ----------------------------------------------------------------------

class SharedArrayPool:
    """Keyed arena of coordinator-owned shared-memory arrays.

    The process-backend twin of the :class:`~repro.parallel.context.Workspace`
    arena: one reusable buffer per ``(kind, dtype)`` slot, grown
    geometrically, never shrunk, with byte accounting. Buffers live in
    named POSIX shared memory so worker processes can attach at zero
    copy cost; :meth:`take` hands back both the coordinator-side view
    and the :class:`SharedHandle` workers need.
    """

    def __init__(self) -> None:
        self._segments: dict[tuple[str, np.dtype], shared_memory.SharedMemory] = {}
        self._capacity: dict[tuple[str, np.dtype], int] = {}
        self.high_water: int = 0

    @property
    def current_bytes(self) -> int:
        return sum(seg.size for seg in self._segments.values())

    def take(
        self, kind: str, shape: int | tuple, dtype: "np.typing.DTypeLike"
    ) -> tuple[np.ndarray, SharedHandle]:
        """A shared scratch array of exactly ``shape`` elements.

        Contents are unspecified (previous use leaks through); callers
        must fully overwrite. Two live buffers need distinct kinds.
        Growing a slot replaces its segment (new name) — never hold a
        view across two ``take`` calls of the same kind.
        """
        if isinstance(shape, int):
            shape = (shape,)
        shape = tuple(int(s) for s in shape)
        size = 1
        for s in shape:
            if s < 0:
                raise BackendError(f"shared array shape must be >= 0, got {shape}")
            size *= s
        dt = np.dtype(dtype)
        key = (kind, dt)
        nbytes = max(size * dt.itemsize, 1)
        seg = self._segments.get(key)
        if seg is None or seg.size < nbytes:
            if seg is not None:
                _unlink(seg)
                seg.close()
            grown = max(nbytes, 2 * self._capacity.get(key, 0))
            # the kind in the name keeps race-detector diagnostics
            # readable; truncated so names fit macOS's 31-char limit
            tag = re.sub(r"[^A-Za-z0-9]", "", kind)[:10] or "pool"
            seg = shared_memory.SharedMemory(
                create=True, size=grown,
                name=f"repro_{tag}_{secrets.token_hex(6)}",
            )
            self._segments[key] = seg
            self._capacity[key] = grown
            self.high_water = max(self.high_water, self.current_bytes)
            metrics.set_gauge_max(
                "repro.mem.shared_pool_high_water", self.high_water
            )
        view = np.ndarray(shape, dtype=dt, buffer=seg.buf)
        handle = SharedHandle(name=seg.name, dtype=dt.str, shape=shape)
        return view, handle

    def share(self, kind: str, arr: np.ndarray) -> tuple[np.ndarray, SharedHandle]:
        """Copy ``arr`` into this pool's ``kind`` slot (one memcpy)."""
        arr = np.ascontiguousarray(arr)
        view, handle = self.take(kind, arr.shape, arr.dtype)
        view[...] = arr
        return view, handle

    def close(self) -> None:
        """Unlink every segment (views become invalid)."""
        for seg in self._segments.values():
            _unlink(seg)
            seg.close()
        self._segments.clear()
        self._capacity.clear()


# ----------------------------------------------------------------------
# Availability probe
# ----------------------------------------------------------------------

_AVAILABLE: bool | None = None


def process_backend_available() -> bool:
    """Whether fork-based workers + POSIX shared memory work here."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            ok = "fork" in mp.get_all_start_methods()
            if ok:
                probe = shared_memory.SharedMemory(create=True, size=1)
                probe.close()
                probe.unlink()
            _AVAILABLE = ok
        except Exception:  # pragma: no cover - platform-specific
            _AVAILABLE = False
    return _AVAILABLE


def _timed_task(
    fn: Callable, args: tuple, kernel: str = "Task"
) -> tuple[object, float, AccessLog | None, dict]:
    """Worker-side wrapper: run ``fn(*args)`` under telemetry capture.

    Returns ``(result, seconds, access_log, envelope)``. The access log
    is this task's shared-segment accesses when race tracking is on
    (see :mod:`repro.analysis.races`) and ``None`` otherwise; it is
    drained *before* the task runs so accesses from earlier coordinator
    work (inline-fallback mode) are never attributed to this task. The
    envelope is the in-worker spans + metrics record of
    :func:`repro.obs.worker.capture_task`, rooted at a span named
    ``kernel``.
    """
    if not tracking_enabled():
        out, seconds, envelope = capture_task(kernel, fn, args)
        return out, seconds, None, envelope
    drain_log()
    out, seconds, envelope = capture_task(kernel, fn, args)
    return out, seconds, drain_log(), envelope


def _task_shared_bytes(args: tuple) -> int:
    """Total bytes of the shared segments a task's arguments reference."""
    return sum(a.nbytes for a in args if isinstance(a, SharedHandle))


# ----------------------------------------------------------------------
# ProcessBackend
# ----------------------------------------------------------------------

class ProcessBackend:
    """Persistent fork-server worker pool over shared-memory arrays.

    Kernels in the partition → privatize → reduce shape fan out through
    :meth:`map_tasks` once a problem has ``min_items`` items; the worker
    count is the owning context's ``num_workers``. The pool and the
    :class:`SharedArrayPool` are owned by whichever
    :class:`~repro.parallel.context.ExecutionContext` holds this
    backend and are released by its ``close()``.
    """

    def __init__(self, min_items: int = PROCESS_MIN_ITEMS) -> None:
        self.min_items = int(min_items)
        self._executor: ProcessPoolExecutor | None = None
        self._executor_workers = 0
        self._warned = False
        self.pool = SharedArrayPool()

    # ------------------------------------------------------------ pool
    def _ensure_executor(self, num_workers: int) -> "ProcessPoolExecutor | None":
        """The persistent executor, (re)built only when it must grow."""
        if not process_backend_available():
            return None
        if self._executor is not None and self._executor_workers >= num_workers:
            return self._executor
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        try:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=num_workers, mp_context=mp.get_context("fork")
            )
            self._executor_workers = num_workers
        except Exception:  # pragma: no cover - platform-specific
            self._executor = None
            self._executor_workers = 0
        return self._executor

    def _warn_fallback(self, reason: str) -> None:
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"process backend unavailable ({reason}); running tasks inline "
                f"on the coordinator — results are identical but unparallel",
                RuntimeWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------ execution
    def map_tasks(
        self,
        fn: Callable,
        tasks: Sequence[tuple],
        ctx: "ExecutionContext | None" = None,
        label: str = "Worker",
        work: Sequence[int] | None = None,
        kernel: str | None = None,
    ) -> list:
        """Run ``fn(*task)`` per task on the pool; results in task order.

        ``fn`` must be a module-level function (pickled by reference);
        handle arguments resolve via :func:`attach` on the worker side.
        Every task runs under :func:`repro.obs.worker.capture_task`, so
        its in-worker spans and metrics come home in the result
        envelope. Per-task ``Worker[i]`` spans — stable attrs
        ``worker_id``, ``n_tasks``, ``bytes_touched`` (shared segment
        bytes the task's handles reference), plus ``work`` and the
        worker ``pid`` — are recorded under the currently open region of
        ``ctx``, each holding the task's in-worker span tree as
        children; the max/mean load imbalance is attached to that
        region. ``kernel`` names the in-worker root span (defaults to
        the worker function's name). Worker counters are folded into the
        active registry, so per-worker partial counts reduce exactly to
        the serial totals. Worker exceptions propagate with the remote
        traceback chained; the pool survives ordinary task failures.
        """
        if not tasks:
            return []
        kernel = kernel or getattr(fn, "__name__", "task").lstrip("_")
        executor = self._ensure_executor(max(len(tasks), 1))
        if executor is None:
            self._warn_fallback("fork or POSIX shared memory missing")
            timed = [_timed_task(fn, args, kernel) for args in tasks]
        else:
            from concurrent.futures.process import BrokenProcessPool

            try:
                futures = [
                    executor.submit(_timed_task, fn, args, kernel) for args in tasks
                ]
                timed = [f.result() for f in futures]
            except BrokenProcessPool:  # pragma: no cover - hard worker death
                # a worker died mid-task (segfault, os._exit); drop the
                # broken pool so the next map_tasks builds a fresh one
                self._executor.shutdown(wait=False)
                self._executor = None
                self._executor_workers = 0
                raise
            except BaseException:
                for f in futures:
                    f.cancel()
                raise
        results = [r for r, _, _, _ in timed]
        seconds = [s for _, s, _, _ in timed]
        accesses = [a for _, _, a, _ in timed]
        envelopes = [e for _, _, _, e in timed]
        if any(accesses):
            verify_task_accesses(accesses, label=label)
        registry = metrics.get_registry()
        if ctx is not None and seconds:
            mean = sum(seconds) / len(seconds)
            imbalance = (max(seconds) / mean) if mean > 0 else 1.0
            for i, s in enumerate(seconds):
                attrs = {
                    "worker_id": i,
                    "n_tasks": len(tasks),
                    "bytes_touched": _task_shared_bytes(tasks[i]),
                }
                if work is not None:
                    attrs["work"] = int(work[i])
                sp = ctx.tracer.add(f"{label}[{i}]", s, **attrs)
                merge_envelope(envelopes[i], sp, registry)
            extra = {}
            if work is not None and len(work):
                # estimated-work imbalance of the *partition* itself
                # (max/mean of the per-task work estimate) — on a
                # loaded 1-core CI host task seconds are noisy, so
                # this is the attr that proves a balanced split.
                wmean = sum(work) / len(work)
                extra["work_imbalance"] = round(
                    (max(work) / wmean) if wmean > 0 else 1.0, 4
                )
            ctx.annotate(
                workers=len(tasks),
                imbalance=round(float(imbalance), 4),
                **extra,
            )
        else:
            for envelope in envelopes:
                merge_envelope(envelope, None, registry)
        for s in seconds:
            metrics.observe(
                "repro.parallel.task_ms", s * 1000.0, boundaries=DEFAULT_MS_BOUNDARIES
            )
        metrics.inc("repro.parallel.process_tasks", len(tasks))
        return results

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Shut the worker pool down and unlink every shared segment."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._executor_workers = 0
        self.pool.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def active_process_backend(
    ctx: "ExecutionContext | None", size: int
) -> ProcessBackend | None:
    """The context's :class:`ProcessBackend` when fan-out is worthwhile.

    Returns ``None`` — i.e. keep the serial vectorized path — unless the
    context runs the process backend with more than one worker and the
    problem has at least ``backend.min_items`` items to split.
    """
    if ctx is None or ctx.num_workers <= 1:
        return None
    backend = ctx.backend
    if not isinstance(backend, ProcessBackend) or size < backend.min_items:
        return None
    return backend
