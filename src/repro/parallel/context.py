"""Unified execution context: backend, dtypes, workspaces, observability.

:class:`ExecutionContext` is the one execution handle every kernel
takes: backend + workers, the :class:`~repro.obs.trace.Tracer` that
records the run, and two knobs the bandwidth-bound kernels need:

* a :class:`DtypePolicy` — pick the narrowest index dtype that fits
  ``|V|``, ``2|E|`` and (for keyed lookups) the product ``u·N + v``
  without overflow. PKT (Kabir & Madduri) and the Eager K-truss study
  (Blanco & Low) both attribute their shared-memory wins to compact
  contiguous arrays; int32 halves the traffic of every comp/hook/
  triangle array on laptop-scale datasets.
* a :class:`Workspace` — a keyed scratch-buffer arena that the
  per-level SpNode/SpEdge loop reuses instead of reallocating per
  level, with a byte high-water mark published as
  ``repro.mem.workspace_high_water``.

Every kernel entry point accepts ``ctx``; :meth:`ExecutionContext.ensure`
turns ``None`` into a fresh serial context.

Instrumented regions
--------------------
Kernels wrap their parallel regions in :meth:`ExecutionContext.region`,
which opens a tracer span carrying the machine-model attributes:

* ``work`` — number of parallelizable items processed,
* ``rounds`` — barrier-synchronized sub-phases inside the region
  (an SV hooking iteration is one round),
* ``intensity`` — arithmetic-intensity class used by the machine model
  to pick a memory-bandwidth-bound fraction (compute-heavy kernels scale
  further than bandwidth-bound ones, which is exactly why the paper's
  *Baseline* shows higher raw speedup than the optimized variants §4.3),
* ``parallel`` — ``False`` marks inherently serial sections.

The span's ``seconds`` is the measured wall-clock time. The ``intensity``
attr is what marks a span as a region: :func:`region_spans` selects
exactly those, skipping structural wrappers and worker spans, and feeds
:class:`repro.parallel.simulate.SimulatedMachine` and
:class:`repro.equitruss.kernels.KernelBreakdown`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.errors import BackendError, InvalidParameterError
from repro.obs.trace import Span, Tracer
from repro.parallel.partition import block_ranges, weighted_ranges
from repro.parallel.shm import ProcessBackend
from repro.utils.validation import check_positive

#: Names accepted by :class:`DtypePolicy`.
DTYPE_POLICIES = ("auto", "int32", "int64")

_I32_MAX = np.iinfo(np.int32).max
_I64_MAX = np.iinfo(np.int64).max


def fits_int32(max_value: int) -> bool:
    """Whether ``max_value`` is representable as an int32."""
    return 0 <= max_value <= _I32_MAX


def array_nbytes(*arrays) -> int:
    """Total bytes of the given arrays, skipping ``None`` entries."""
    return sum(int(a.nbytes) for a in arrays if a is not None)


def region_spans(tracer: Tracer) -> list[Span]:
    """The region spans of ``tracer`` in the order they closed.

    A region span carries the ``intensity`` attr (see the module
    docstring); nested regions close before their parents, so the
    order is a post-order walk.
    """
    out: list[Span] = []

    def visit(sp: Span) -> None:
        for child in sp.children:
            visit(child)
        if "intensity" in sp.attrs:
            out.append(sp)

    for root in tracer.roots:
        visit(root)
    return out


@dataclass(frozen=True)
class DtypePolicy:
    """Adaptive index-dtype selection (``auto`` | ``int32`` | ``int64``).

    ``auto`` picks int32 whenever every value an array must hold fits;
    callers state the largest value they will store and get back the
    narrowest safe dtype. Key dtypes (for ``u·N + v`` scalar keys) are
    resolved separately because the *product* overflows long before the
    ids themselves do.
    """

    name: str = "auto"

    def __post_init__(self) -> None:
        if self.name not in DTYPE_POLICIES:
            raise InvalidParameterError(
                f"dtype policy must be one of {DTYPE_POLICIES}, got {self.name!r}"
            )

    @classmethod
    def of(cls, policy: "DtypePolicy | str | None") -> "DtypePolicy":
        if policy is None:
            return cls("auto")
        if isinstance(policy, DtypePolicy):
            return policy
        return cls(str(policy))

    def resolve(self, max_value: int) -> np.dtype:
        """Narrowest allowed integer dtype holding ``0..max_value``."""
        if self.name == "int64":
            return np.dtype(np.int64)
        if self.name == "int32":
            if not fits_int32(max_value):
                raise InvalidParameterError(
                    f"dtype policy int32 cannot hold max value {max_value}"
                )
            return np.dtype(np.int32)
        return np.dtype(np.int32) if fits_int32(max_value) else np.dtype(np.int64)

    def index_dtype(self, num_vertices: int, num_edges: int) -> np.dtype:
        """Dtype for vertex/edge-id arrays: fits ``|V|``, ``|E|`` and the
        CSR slot count ``2|E|`` (indptr values)."""
        return self.resolve(max(int(num_vertices) + 1, 2 * int(num_edges)))

    def key_dtype(self, num_vertices: int) -> np.dtype:
        """Dtype for ``u·N + v`` scalar keys — guards the *product*.

        Even when ids fit int32, the key wraps once ``N² > 2³¹``; this is
        the latent overflow :meth:`CSRGraph.locate_slots` guards against
        by falling back to int64 keys.
        """
        n = max(int(num_vertices), 1)
        if n > int(np.sqrt(_I64_MAX)):  # pragma: no cover - 3e9+ vertices
            raise InvalidParameterError(
                f"keyed lookup over {n} vertices would overflow int64 keys"
            )
        max_key = n * n - 1
        if self.name == "int64" or not fits_int32(max_key):
            return np.dtype(np.int64)
        return np.dtype(np.int32)


class Workspace:
    """Reusable scratch-buffer arena with byte accounting.

    ``take(kind, size, dtype)`` returns a 1-D array view of at least
    ``size`` elements, reusing (and growing) one buffer per
    ``(kind, dtype)`` slot. The per-level SpNode/SpEdge loop requests
    the same kinds every level, so steady-state allocation is zero.

    ``high_water`` tracks the peak total bytes ever held — the number
    published as the ``repro.mem.workspace_high_water`` gauge.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}
        self.high_water: int = 0

    @property
    def current_bytes(self) -> int:
        return sum(int(b.nbytes) for b in self._buffers.values())

    def take(self, kind: str, size: int, dtype) -> np.ndarray:
        """A scratch array of exactly ``size`` elements of ``dtype``.

        Contents are unspecified (previous use leaks through); callers
        must fully overwrite. Two live buffers need distinct kinds.
        """
        if size < 0:
            raise InvalidParameterError(f"workspace size must be >= 0, got {size}")
        dt = np.dtype(dtype)
        key = (kind, dt)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            self._buffers[key] = buf = np.empty(size, dtype=dt)
            self.high_water = max(self.high_water, self.current_bytes)
        return buf[:size]

    def gather(self, kind: str, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """``values[indices]`` materialized into this workspace."""
        out = self.take(kind, indices.size, values.dtype)
        np.take(values, indices, out=out)
        return out

    def reset(self) -> None:
        """Drop all buffers (high-water mark is preserved)."""
        self._buffers.clear()


@dataclass
class ExecutionContext:
    """Backend + workers + tracing + dtype policy + workspace for one run.

    The single object threaded through every layer of the pipeline. Use
    :meth:`ensure` to normalize optional arguments::

        ctx = ExecutionContext.ensure(ctx)   # None -> serial context

    Kernels report barrier-synchronized rounds with :meth:`add_round`,
    which targets the innermost open :meth:`region` span; with no region
    open it is a no-op.

    ``backend`` is ``"serial"`` or ``"process"`` (or a
    :class:`~repro.parallel.shm.ProcessBackend` instance); after
    construction it holds ``None`` for serial execution or the
    ``ProcessBackend``. The context *owns* the process backend's worker
    processes and shared segments and releases them in :meth:`close`
    (or on leaving the context manager). A serial context, or a process
    context that never fanned out, needs no explicit close.
    """

    backend: str | ProcessBackend | None = "serial"
    num_workers: int = 1
    tracer: Tracer = field(default_factory=Tracer)
    dtype: DtypePolicy | str = "auto"
    workspace: Workspace = field(default_factory=Workspace)
    _regions: list[Span] = field(default_factory=list, repr=False)
    _closers: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        check_positive("num_workers", self.num_workers)
        if self.backend == "serial":
            self.backend = None
        elif self.backend == "process":
            self.backend = ProcessBackend()
        elif self.backend is not None and not isinstance(self.backend, ProcessBackend):
            raise BackendError(
                f"unknown backend {self.backend!r}; expected 'serial', 'process' "
                f"or a ProcessBackend"
            )
        self.dtype = DtypePolicy.of(self.dtype)

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    @classmethod
    def ensure(cls, obj=None) -> "ExecutionContext":
        """``obj`` itself, or a fresh serial context for ``None``."""
        if obj is None:
            return cls()
        if isinstance(obj, ExecutionContext):
            return obj
        raise InvalidParameterError(
            f"cannot build an ExecutionContext from {type(obj).__name__}"
        )

    def with_dtype(self, dtype: DtypePolicy | str) -> "ExecutionContext":
        """Copy of this context under a different dtype policy."""
        return replace(self, dtype=DtypePolicy.of(dtype), _regions=[], _closers=[])

    # ------------------------------------------------------------------
    # Dtype decisions
    # ------------------------------------------------------------------
    def index_dtype(self, num_vertices: int, num_edges: int) -> np.dtype:
        return self.dtype.index_dtype(num_vertices, num_edges)

    def edge_dtype(self, num_edges: int) -> np.dtype:
        """Dtype for arrays holding edge ids (comp, hook pairs, triples)."""
        return self.dtype.resolve(max(int(num_edges), 1))

    def key_dtype(self, num_vertices: int) -> np.dtype:
        return self.dtype.key_dtype(num_vertices)

    # ------------------------------------------------------------------
    # Execution + accounting
    # ------------------------------------------------------------------
    @contextmanager
    def region(
        self,
        name: str,
        work: int = 1,
        rounds: int = 1,
        intensity: str = "mixed",
        parallel: bool = True,
    ) -> Iterator[Span]:
        """Open an instrumented region span and yield it.

        ``work``/``rounds`` may be updated on the span's attrs (or via
        :meth:`add_round`) when they are only known after execution;
        both are floored at 1 when the span closes. The workspace
        high-water at exit is attached as ``ws_peak``.
        """
        with self.tracer.span(
            name, work=work, rounds=rounds, intensity=intensity, parallel=parallel
        ) as sp:
            self._regions.append(sp)
            try:
                yield sp
            finally:
                self._regions.pop()
                sp.set(
                    work=max(int(sp.attrs["work"]), 1),
                    rounds=max(int(sp.attrs["rounds"]), 1),
                    ws_peak=self.workspace.high_water,
                )

    def add_round(self, work: int) -> None:
        """Record one barrier-synchronized round of ``work`` items on the
        innermost region (no-op outside)."""
        if self._regions:
            attrs = self._regions[-1].attrs
            attrs["rounds"] += 1
            attrs["work"] += int(work)

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost open region (no-op outside)."""
        if self._regions:
            self._regions[-1].set(**attrs)

    @property
    def shared_pool(self):
        """The process backend's :class:`~repro.parallel.shm.SharedArrayPool`,
        or ``None`` on a serial context."""
        return self.backend.pool if isinstance(self.backend, ProcessBackend) else None

    def provenance(self) -> dict:
        """Execution facts for a run manifest (JSON-serializable).

        Captures the backend name, worker count, dtype policy, and the
        run's peak workspace / shared-memory bytes — the execution block
        of :func:`repro.obs.manifest.collect_manifest`.
        """
        pool = self.shared_pool
        return {
            "backend": "process" if isinstance(self.backend, ProcessBackend) else "serial",
            "num_workers": self.num_workers,
            "dtype_policy": self.dtype.name,
            "ws_peak": int(self.workspace.high_water),
            "shm_high_water": int(pool.high_water) if pool is not None else 0,
        }

    def partition_ranges(self, n: int, weights=None) -> list[tuple[int, int]]:
        """Contiguous worker ranges over ``range(n)``, empty ones dropped.

        Ranges are cut by the kernel's per-item work estimate when it
        passes ``weights`` (:func:`~repro.parallel.partition.weighted_ranges`)
        and by item count otherwise
        (:func:`~repro.parallel.partition.block_ranges`).
        """
        if weights is None:
            ranges = block_ranges(n, self.num_workers)
        else:
            ranges = weighted_ranges(weights, self.num_workers)
        return [(lo, hi) for lo, hi in ranges if hi > lo]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register_closer(self, closer) -> None:
        """Run ``closer()`` during :meth:`close`, *before* the backend.

        Resources layered on top of the context — most importantly an
        attached store's read-only memory maps
        (:class:`~repro.store.reader.AttachedStore`) — must be released
        before the backend unlinks its shared segments: platforms with
        strict unlink semantics (and same-process re-attach) otherwise
        see dangling handles. Closers run in reverse registration order
        and exactly once each.
        """
        self._closers.append(closer)

    def close(self) -> None:
        """Release the process backend's worker processes and shm segments.

        Registered closers (mmap releases, attached stores) run first,
        newest-first, so teardown unwinds in reverse acquisition order.
        """
        while self._closers:
            self._closers.pop()()
        if isinstance(self.backend, ProcessBackend):
            self.backend.close()

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
