"""Event-loop stall detector: the runtime counterpart of rule REP006.

The REP006 lint rule proves *statically* that no blocking call is
reachable from an ``async def`` body in the serving layer; this module
proves the premise *dynamically*, the same way the write-set race
detector (:mod:`repro.analysis.races`) backs REP001. Opt in via
the environment before the frontend starts:

* ``REPRO_LOOP_CHECK=1`` — record stalls: every event-loop callback is
  individually timed (by wrapping :meth:`asyncio.events.Handle._run`),
  and any callback exceeding the threshold is recorded with its
  duration, a description of the callback, and the most recent stack
  sample captured from the loop thread while it ran. The watchdog
  writes each recorded stall to stderr when it is torn down.
* ``REPRO_LOOP_CHECK=strict`` — additionally raise
  :class:`~repro.errors.LoopStallError` when the watchdog is torn down
  with stalls on record (the hard failure mode tests use).
* ``REPRO_LOOP_THRESHOLD_MS`` — stall threshold in milliseconds
  (default 50).

Timing individual callbacks rather than sampling heartbeat gaps means a
*busy but healthy* loop (thousands of sub-millisecond callbacks back to
back) never trips the detector — only a single callback that actually
holds the loop does.

Every stall is also observed into the
``repro.serve.frontend.loop_stall_ms`` histogram (the frontend passes
the metric name in), so production deployments see stalls in the same
Prometheus exposition as the latency SLOs.

The wrapper is installed process-wide but filters by thread id, so
watchdogs on different loop threads coexist and loops without a
watchdog pay one dict lookup per callback.
"""

from __future__ import annotations

import asyncio.events
import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import LoopStallError
from repro.obs import metrics
from repro.obs.histogram import DEFAULT_MS_BOUNDARIES

LOOP_CHECK_ENV = "REPRO_LOOP_CHECK"
LOOP_THRESHOLD_ENV = "REPRO_LOOP_THRESHOLD_MS"
DEFAULT_THRESHOLD_MS = 50.0

_FALSY = {"", "0", "false", "no", "off"}


def loop_check_enabled() -> bool:
    """Whether ``REPRO_LOOP_CHECK`` asks for the watchdog."""
    return os.environ.get(LOOP_CHECK_ENV, "").strip().lower() not in _FALSY


def loop_check_strict() -> bool:
    """Whether teardown should raise on recorded stalls."""
    return os.environ.get(LOOP_CHECK_ENV, "").strip().lower() == "strict"


def loop_threshold_ms() -> float:
    """Configured stall threshold (``REPRO_LOOP_THRESHOLD_MS``, ms)."""
    raw = os.environ.get(LOOP_THRESHOLD_ENV, "").strip()
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_THRESHOLD_MS
    return value if value > 0 else DEFAULT_THRESHOLD_MS


@dataclass
class LoopStall:
    """One callback that held the event loop past the threshold."""

    callback: str
    elapsed_ms: float
    #: formatted stack sampled from the loop thread mid-callback
    #: ('' when the callback finished between sampler ticks)
    stack: str = ""

    def format(self) -> str:
        out = f"{self.elapsed_ms:.1f} ms in {self.callback}"
        if self.stack:
            out += f"\n{self.stack}"
        return out


# -- the process-wide Handle._run shim ---------------------------------

_orig_handle_run: Callable[[Any], Any] | None = None
_watchers: dict[int, "LoopStallWatchdog"] = {}
_patch_lock = threading.Lock()


def _patched_handle_run(self: Any) -> Any:
    run = _orig_handle_run
    assert run is not None  # only installed while a watchdog is live
    watchdog = _watchers.get(threading.get_ident())
    if watchdog is None:
        return run(self)
    t0 = time.perf_counter()
    try:
        return run(self)
    finally:
        watchdog._record(self, t0, (time.perf_counter() - t0) * 1000.0)


class LoopStallWatchdog:
    """Times every callback of the calling thread's event loop.

    ``install()`` must run on the loop thread being watched (it keys
    the shim by the current thread id); ``uninstall()`` may run from
    any thread. A sampler thread snapshots the loop thread's stack a
    few times per threshold window, so a recorded stall carries the
    stack of whatever was actually blocking.
    """

    def __init__(
        self,
        *,
        threshold_ms: float | None = None,
        strict: bool = False,
        metric: str | None = None,
        max_stalls: int = 256,
    ) -> None:
        self.threshold_ms = (
            threshold_ms if threshold_ms is not None else loop_threshold_ms()
        )
        self.strict = strict
        self.metric = metric
        self.max_stalls = max_stalls
        self.stalls: list[LoopStall] = []
        self._thread_id: int | None = None
        self._sampler: threading.Thread | None = None
        self._stop = threading.Event()
        self._last_sample: tuple[float, str] = (0.0, "")

    # ------------------------------------------------------------------
    def install(self) -> "LoopStallWatchdog":
        """Start watching the *current* thread's loop callbacks."""
        global _orig_handle_run
        self._thread_id = threading.get_ident()
        with _patch_lock:
            if asyncio.events.Handle._run is not _patched_handle_run:
                _orig_handle_run = asyncio.events.Handle._run
                asyncio.events.Handle._run = _patched_handle_run  # type: ignore[method-assign]
            _watchers[self._thread_id] = self
        self._stop.clear()
        self._sampler = threading.Thread(
            target=self._sample_loop, name="repro-loop-stall-sampler", daemon=True
        )
        self._sampler.start()
        return self

    def uninstall(self) -> None:
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join(timeout=5.0)
            self._sampler = None
        with _patch_lock:
            if self._thread_id is not None:
                _watchers.pop(self._thread_id, None)
            # _orig_handle_run stays cached: a callback may still be
            # mid-flight through the shim on another loop thread
            if not _watchers and _orig_handle_run is not None:
                asyncio.events.Handle._run = _orig_handle_run  # type: ignore[method-assign]
        self._thread_id = None

    def check(self) -> None:
        """Report the stalls seen: raise :class:`LoopStallError` if
        strict, else write each one to stderr."""
        if self.strict and self.stalls:
            worst = max(self.stalls, key=lambda s: s.elapsed_ms)
            raise LoopStallError(
                f"event loop stalled {len(self.stalls)} time(s); worst: "
                f"{worst.format()}"
            )
        for stall in self.stalls:
            print(f"event loop stall: {stall.format()}", file=sys.stderr)

    # ------------------------------------------------------------------
    def _sample_loop(self) -> None:
        """Snapshot the watched thread's stack a few times per window."""
        interval = max(self.threshold_ms / 4000.0, 0.005)
        while not self._stop.wait(interval):
            thread_id = self._thread_id
            if thread_id is None:
                continue
            frame = sys._current_frames().get(thread_id)
            if frame is None:
                continue
            stack = "".join(traceback.format_stack(frame, limit=12))
            self._last_sample = (time.perf_counter(), stack)

    def _record(self, handle, t0: float, elapsed_ms: float) -> None:
        """Called from the shim after every callback on the watched loop."""
        if elapsed_ms < self.threshold_ms:
            return
        if self.metric is not None:
            metrics.observe(
                self.metric, elapsed_ms, boundaries=DEFAULT_MS_BOUNDARIES
            )
        sample_t, stack = self._last_sample
        if not t0 <= sample_t <= time.perf_counter():
            stack = ""  # sample predates this callback
        if len(self.stalls) < self.max_stalls:
            self.stalls.append(
                LoopStall(
                    callback=self._describe(handle),
                    elapsed_ms=elapsed_ms,
                    stack=stack,
                )
            )

    @staticmethod
    def _describe(handle) -> str:
        callback = getattr(handle, "_callback", None)
        if callback is None:
            return repr(handle)
        name = getattr(callback, "__qualname__", None) or repr(callback)
        return f"callback {name}"


def maybe_watchdog(metric: str | None = None) -> LoopStallWatchdog | None:
    """Install a watchdog on the current loop thread if the env asks.

    Returns None (and does nothing) unless ``REPRO_LOOP_CHECK`` is set
    truthy; ``strict`` mode follows :func:`loop_check_strict`.
    """
    if not loop_check_enabled():
        return None
    return LoopStallWatchdog(
        strict=loop_check_strict(), metric=metric
    ).install()
