"""Dynamic write-set race detector for the shared-memory kernel layer.

The process-backend kernels are data-race-free *by construction*: every
``map_tasks`` fan-out follows partition → privatize → reduce, so each
worker writes a disjoint slice of every shared segment and only reads
ranges no sibling writes. Nothing enforced that — a bad partition
boundary (the classic off-by-one in ``block_ranges`` math) would corrupt
results only on a many-core machine, exactly where the bit-identity
tests of this repo's 1-core CI cannot see it.

This module closes the gap with an **opt-in instrumented mode**:

* When tracking is enabled (``REPRO_RACE_CHECK=1`` or
  :func:`enable_tracking` before the worker pool spins up),
  :func:`repro.parallel.shm.attach` hands workers a
  :class:`TrackedArray` instead of a plain view. The subclass records
  the byte ranges of every slice read and write against the backing
  segment — slice assignment, fancy indexing, and ufunc ``out=``
  targets are all captured.
* Each worker returns its access log alongside the task result (the
  ranges, not the data — a few tuples per task).
* At reduce time :func:`verify_task_accesses` checks, per segment,
  that (a) the write ranges of different tasks are pairwise disjoint
  (:class:`~repro.errors.PartitionOverlapError` otherwise) and (b) no
  task reads a range another task writes
  (:class:`~repro.errors.StaleReadError`): under true parallelism such
  a read races the sibling's write, so its value is schedule-dependent.

Because verification runs on the *declared-by-observation* write sets,
an overlapping partition fails loudly even when the tasks execute
sequentially on one core — the detector needs no actual interleaving to
fire. Fresh per-task export segments (``export_array``) never alias
across tasks and therefore never conflict.

Writes must go through slice assignment or ufuncs with ``out=`` — the
protocol every shipped kernel follows. An untracked escape hatch
(``numpy`` C internals writing through a plain view) would be invisible;
the REP001 static rule keeps kernels inside the protocol.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import PartitionOverlapError, StaleReadError

#: Environment switch: truthy values enable tracking in every process
#: (workers inherit it through ``fork`` / the environment).
RACE_CHECK_ENV = "REPRO_RACE_CHECK"

_FALSY = frozenset({"", "0", "false", "no", "off"})

#: Explicit programmatic override (None = defer to the environment).
_forced: bool | None = None

#: Per-process access log: (segment name, 'r'|'w', lo byte, hi byte).
_LOG: list[tuple[str, str, int, int]] = []

AccessLog = list[tuple[str, str, int, int]]


def tracking_enabled() -> bool:
    """Whether shared-array access tracking is on in this process."""
    if _forced is not None:
        return _forced
    return os.environ.get(RACE_CHECK_ENV, "").strip().lower() not in _FALSY


def enable_tracking(on: bool = True) -> None:
    """Force tracking on/off for this process (and ``fork`` children
    created afterwards). Call *before* the worker pool spins up —
    already-running workers keep their inherited setting."""
    global _forced
    _forced = bool(on)


def reset_tracking() -> None:
    """Drop the programmatic override; the environment decides again."""
    global _forced
    _forced = None
    _LOG.clear()


def record(segment: str, kind: str, lo: int, hi: int) -> None:
    """Append one access to the per-process log (no-op for empty ranges)."""
    if hi > lo:
        _LOG.append((segment, kind, int(lo), int(hi)))


def drain_log() -> AccessLog:
    """Return and clear this process's access log."""
    out = list(_LOG)
    _LOG.clear()
    return out


def _byte_bounds(arr: np.ndarray) -> tuple[int, int]:
    from numpy.lib.array_utils import byte_bounds

    return byte_bounds(arr)


# ----------------------------------------------------------------------
# TrackedArray
# ----------------------------------------------------------------------

class TrackedArray(np.ndarray):
    """ndarray view over a shared segment that logs slice reads/writes.

    Views derived by basic indexing stay tracked (``__array_finalize__``
    propagates the segment identity); operations that materialize copies
    (fancy indexing, reductions) log a read and return plain arrays.
    Ranges are byte offsets relative to the segment start; accesses that
    cannot be bounded precisely are logged conservatively as the whole
    array's range.
    """

    _seg_name: str
    _seg_base: int
    _seg_size: int

    @classmethod
    def wrap(cls, arr: np.ndarray, segment: str) -> "TrackedArray":
        out = arr.view(cls)
        base_lo, base_hi = _byte_bounds(arr)
        out._seg_name = segment
        out._seg_base = base_lo
        out._seg_size = base_hi - base_lo
        return out

    def __array_finalize__(self, obj: Any) -> None:
        if obj is None:
            return
        self._seg_name = getattr(obj, "_seg_name", "")
        self._seg_base = getattr(obj, "_seg_base", -1)
        self._seg_size = getattr(obj, "_seg_size", 0)

    # ------------------------------------------------------------ spans
    def _span_of(self, arr: np.ndarray) -> tuple[int, int]:
        """Byte range of ``arr`` relative to the segment (conservative)."""
        if self._seg_base < 0:
            return (0, 0)
        try:
            lo, hi = _byte_bounds(arr)
        except Exception:  # pragma: no cover - exotic layouts
            return (0, self._seg_size)
        lo -= self._seg_base
        hi -= self._seg_base
        if lo < 0 or hi > self._seg_size:
            # not a view into the segment (e.g. a fancy-indexing copy):
            # attribute the access to this array's own range instead
            return self._own_span()
        return (lo, hi)

    def _own_span(self) -> tuple[int, int]:
        if self._seg_base < 0:
            return (0, 0)
        lo, hi = _byte_bounds(self.view(np.ndarray))
        return (lo - self._seg_base, hi - self._seg_base)

    def _log(self, kind: str, span: tuple[int, int]) -> None:
        if self._seg_name:
            record(self._seg_name, kind, span[0], span[1])

    # ------------------------------------------------------------ reads
    def __getitem__(self, key: Any) -> Any:
        result = super().__getitem__(key)
        if isinstance(result, np.ndarray):
            self._log("r", self._span_of(result))
        else:  # scalar element read
            self._log("r", self._own_span())
        return result

    # ----------------------------------------------------------- writes
    def __setitem__(self, key: Any, value: Any) -> None:
        target = self.view(np.ndarray)[key]
        if isinstance(target, np.ndarray):
            self._log("w", self._span_of(target))
        else:
            self._log("w", self._own_span())
        super().__setitem__(key, value)

    # ------------------------------------------------------------ ufuncs
    def __array_ufunc__(
        self, ufunc: Any, method: str, *inputs: Any, **kwargs: Any
    ) -> Any:
        out = kwargs.get("out")
        out_tuple: tuple = out if isinstance(out, tuple) else ()
        for i, arr in enumerate(inputs):
            if isinstance(arr, TrackedArray):
                # ufunc.at(a, idx, b) scatters *into* its first operand
                kind = "w" if (method == "at" and i == 0) else "r"
                arr._log(kind, arr._own_span())
        for arr in out_tuple:
            if isinstance(arr, TrackedArray):
                arr._log("w", arr._own_span())
        base_inputs = tuple(
            a.view(np.ndarray) if isinstance(a, TrackedArray) else a for a in inputs
        )
        if out_tuple:
            kwargs["out"] = tuple(
                a.view(np.ndarray) if isinstance(a, TrackedArray) else a
                for a in out_tuple
            )
        result = getattr(ufunc, method)(*base_inputs, **kwargs)
        # In-place ops (a += b) must hand back the *tracked* array so the
        # rebind `a = a.__iadd__(b)` keeps tracking subsequent writes.
        if (
            len(out_tuple) == 1
            and isinstance(out_tuple[0], TrackedArray)
            and isinstance(result, np.ndarray)
        ):
            return out_tuple[0]
        return result

    # --------------------------------------------------- array functions
    def __array_function__(
        self, func: Any, types: Any, args: Any, kwargs: Any
    ) -> Any:
        # np.copyto(dst, src) writes through its first argument; generic
        # functions with out= write through that. Everything else only
        # reads the tracked operands.
        if func is np.copyto and args and isinstance(args[0], TrackedArray):
            args[0]._log("w", args[0]._own_span())
        out = kwargs.get("out") if kwargs else None
        if isinstance(out, TrackedArray):
            out._log("w", out._own_span())
        for arr in _walk_arrays(args):
            if isinstance(arr, TrackedArray) and arr is not out:
                arr._log("r", arr._own_span())
        base_args = _untrack(args)
        base_kwargs = {k: _untrack(v) for k, v in kwargs.items()} if kwargs else {}
        return func(*base_args, **base_kwargs)


def _walk_arrays(obj: Any) -> Iterable[np.ndarray]:
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _walk_arrays(item)


def _untrack(obj: Any) -> Any:
    if isinstance(obj, TrackedArray):
        return obj.view(np.ndarray)
    if isinstance(obj, tuple):
        return tuple(_untrack(o) for o in obj)
    if isinstance(obj, list):
        return [_untrack(o) for o in obj]
    return obj


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------

def _merge(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Coalesce overlapping/adjacent [lo, hi) intervals."""
    if not intervals:
        return []
    intervals.sort()
    out = [intervals[0]]
    for lo, hi in intervals[1:]:
        if lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _overlap(
    a: list[tuple[int, int]], b: list[tuple[int, int]]
) -> tuple[int, int] | None:
    """First overlapping byte range between two merged interval lists."""
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            return (lo, hi)
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return None


def verify_task_accesses(
    per_task: Sequence[AccessLog | None], label: str = "map_tasks"
) -> None:
    """Check one fan-out's access logs for cross-task hazards.

    ``per_task`` holds one access log per task (``None`` for tasks that
    ran without tracking — they are skipped). Raises
    :class:`~repro.errors.PartitionOverlapError` when two tasks wrote
    overlapping ranges of one segment, and
    :class:`~repro.errors.StaleReadError` when a task read a range a
    *different* task wrote.
    """
    # segment -> task index -> merged intervals
    writes: dict[str, dict[int, list[tuple[int, int]]]] = {}
    reads: dict[str, dict[int, list[tuple[int, int]]]] = {}
    for ti, log in enumerate(per_task):
        if not log:
            continue
        for seg, kind, lo, hi in log:
            table = writes if kind == "w" else reads
            table.setdefault(seg, {}).setdefault(ti, []).append((lo, hi))
    for table in (writes, reads):
        for by_task in table.values():
            for ti in by_task:
                by_task[ti] = _merge(by_task[ti])

    for seg, by_task in writes.items():
        tasks = sorted(by_task)
        for i, ti in enumerate(tasks):
            for tj in tasks[i + 1:]:
                clash = _overlap(by_task[ti], by_task[tj])
                if clash is not None:
                    raise PartitionOverlapError(
                        f"{label}: workers {ti} and {tj} both wrote bytes "
                        f"[{clash[0]}, {clash[1]}) of shared segment "
                        f"'{seg}' — partitions must be disjoint "
                        "(privatize-and-reduce contract)"
                    )

    for seg, by_task in reads.items():
        seg_writes = writes.get(seg)
        if not seg_writes:
            continue
        for ti, read_ivs in by_task.items():
            for tj, write_ivs in seg_writes.items():
                if ti == tj:
                    continue
                clash = _overlap(read_ivs, write_ivs)
                if clash is not None:
                    raise StaleReadError(
                        f"{label}: worker {ti} read bytes "
                        f"[{clash[0]}, {clash[1]}) of shared segment "
                        f"'{seg}' that worker {tj} writes — the value is "
                        "schedule-dependent under true parallelism"
                    )
