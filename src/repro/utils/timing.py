"""Wall-clock timing utility used by the benchmark harness.

Per-kernel breakdowns (Figs. 2, 4, 8) come from the run's tracer
(:class:`repro.equitruss.kernels.KernelBreakdown`); :class:`Timer` is
the plain start/stop stopwatch for everything else.
"""

from __future__ import annotations

import time


class Timer:
    """A simple start/stop wall-clock timer.

    Can be used as a context manager::

        with Timer() as t:
            work()
        print(t.elapsed)

    ``start``/``stop`` must alternate: starting a running timer or
    stopping a stopped one raises :class:`RuntimeError` (a double
    ``start`` would silently discard the first measurement's origin).
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def start(self) -> "Timer":
        if self._start is not None:
            raise RuntimeError("Timer.start() called while already running")
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
