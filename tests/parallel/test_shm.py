"""Unit tests for the shared-memory process backend (repro.parallel.shm)."""

import os
import warnings

import numpy as np
import pytest

from repro.errors import BackendError
from repro.parallel.context import ExecutionContext
from repro.parallel.shm import (
    ProcessBackend,
    SharedArrayPool,
    SharedHandle,
    active_process_backend,
    attach,
    export_array,
    import_array,
    process_backend_available,
)

needs_fork = pytest.mark.skipif(
    not process_backend_available(),
    reason="fork or POSIX shared memory unavailable",
)


# ----------------------------------------------------------------------
# module-level worker functions (pickled by reference into the pool)
# ----------------------------------------------------------------------

def _sum_range(h, lo, hi):
    return int(attach(h)[lo:hi].sum())


def _pid_task(_i):
    return os.getpid()


def _boom(flag):
    raise ValueError(f"worker boom {flag}")


def _roundtrip_double(h):
    return export_array(attach(h) * 2)


# ----------------------------------------------------------------------
# SharedHandle / export / import
# ----------------------------------------------------------------------

def test_shared_handle_size_and_nbytes():
    h = SharedHandle(name="x", dtype="<i8", shape=(3, 4))
    assert h.size == 12
    assert h.nbytes == 96


@pytest.mark.process_backend
@needs_fork
def test_export_import_round_trip():
    arr = np.arange(1000, dtype=np.int32).reshape(20, 50)
    handle = export_array(arr)
    out = import_array(handle)
    assert out.dtype == arr.dtype and out.shape == arr.shape
    assert np.array_equal(out, arr)
    # unlinked: attaching again must fail
    with pytest.raises(FileNotFoundError):
        import_array(handle)


@pytest.mark.process_backend
@needs_fork
def test_export_empty_array():
    handle = export_array(np.empty(0, dtype=np.int64))
    assert import_array(handle).size == 0


# ----------------------------------------------------------------------
# SharedArrayPool
# ----------------------------------------------------------------------

@pytest.mark.process_backend
@needs_fork
def test_pool_reuse_growth_and_high_water():
    pool = SharedArrayPool()
    try:
        v1, h1 = pool.take("a", 100, np.int64)
        assert v1.size == 100
        v2, h2 = pool.take("a", 50, np.int64)
        assert h2.name == h1.name  # same segment reused for the smaller ask
        v3, h3 = pool.take("a", 1000, np.int64)
        assert h3.name != h1.name  # grown: replaced segment
        assert pool.high_water >= 1000 * 8
        # distinct kinds and dtypes get distinct segments
        _, hb = pool.take("b", 10, np.int64)
        _, ha32 = pool.take("a", 10, np.int32)
        assert len({h3.name, hb.name, ha32.name}) == 3
    finally:
        pool.close()
    assert pool.current_bytes == 0


@pytest.mark.process_backend
@needs_fork
def test_pool_share_copies_values():
    pool = SharedArrayPool()
    try:
        src = np.arange(17, dtype=np.float64)
        view, handle = pool.share("s", src)
        assert np.array_equal(view, src)
        assert np.array_equal(attach(handle), src)
    finally:
        pool.close()


def test_pool_rejects_negative_shape():
    pool = SharedArrayPool()
    with pytest.raises(BackendError):
        pool.take("bad", (-1,), np.int64)
    pool.close()


# ----------------------------------------------------------------------
# ProcessBackend
# ----------------------------------------------------------------------

@pytest.mark.process_backend
@needs_fork
def test_map_tasks_order_and_values():
    backend = ProcessBackend(min_items=0)
    try:
        data = np.arange(900, dtype=np.int64)
        _, h = backend.pool.share("d", data)
        ranges = [(0, 300), (300, 600), (600, 900)]
        sums = backend.map_tasks(_sum_range, [(h, lo, hi) for lo, hi in ranges])
        assert sums == [int(data[lo:hi].sum()) for lo, hi in ranges]
    finally:
        backend.close()


@pytest.mark.process_backend
@needs_fork
def test_worker_pool_persists_across_invocations():
    backend = ProcessBackend(min_items=0)
    try:
        first = set(backend.map_tasks(_pid_task, [(0,), (1,)]))
        executor = backend._executor
        pids = set(first)
        for _ in range(3):
            pids |= set(backend.map_tasks(_pid_task, [(0,), (1,)]))
        # the executor is reused, every task lands on one of its (at
        # most num_workers) persistent processes, none on the coordinator
        assert backend._executor is executor
        assert len(pids) <= 2
        assert os.getpid() not in pids
    finally:
        backend.close()


@pytest.mark.process_backend
@needs_fork
def test_worker_exception_propagates_and_pool_survives():
    backend = ProcessBackend(min_items=0)
    try:
        with pytest.raises(ValueError, match="worker boom 7"):
            backend.map_tasks(_boom, [(7,)])
        # the pool is not poisoned: subsequent tasks still run
        assert backend.map_tasks(_pid_task, [(0,)])
    finally:
        backend.close()


@pytest.mark.process_backend
@needs_fork
def test_worker_export_import_protocol():
    backend = ProcessBackend(min_items=0)
    try:
        arr = np.arange(64, dtype=np.int64)
        _, h = backend.pool.share("x", arr)
        (out_h,) = backend.map_tasks(_roundtrip_double, [(h,)])
        assert np.array_equal(import_array(out_h), arr * 2)
    finally:
        backend.close()


def test_map_tasks_inline_fallback(monkeypatch):
    import repro.parallel.shm as shm

    monkeypatch.setattr(shm, "process_backend_available", lambda: False)
    backend = ProcessBackend(min_items=0)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = backend.map_tasks(_pid_task, [(0,), (1,)])
            backend.map_tasks(_pid_task, [(0,)])  # warning fires only once
        assert out == [os.getpid(), os.getpid()]
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "inline" in str(runtime[0].message)
    finally:
        backend.close()


def test_map_tasks_empty_and_run_contract():
    backend = ProcessBackend(min_items=0)
    try:
        assert backend.map_tasks(_pid_task, []) == []
        assert backend._executor is None  # no tasks, no pool spun up
    finally:
        backend.close()


@pytest.mark.process_backend
@needs_fork
def test_map_tasks_records_worker_spans():
    backend = ProcessBackend(min_items=0)
    ctx = ExecutionContext(backend=backend, num_workers=2)
    try:
        data = np.arange(100, dtype=np.int64)
        _, h = backend.pool.share("d", data)
        with ctx.region("Demo", work=100):
            backend.map_tasks(
                _sum_range, [(h, 0, 50), (h, 50, 100)], ctx=ctx, work=[50, 50]
            )
        spans = [s for s, _ in ctx.tracer.walk() if s.name.startswith("Worker[")]
        assert [s.name for s in spans] == ["Worker[0]", "Worker[1]"]
        assert all(s.attrs.get("work") == 50 for s in spans)
        # stable per-worker attribution attrs (the diff/report keying)
        assert [s.attrs.get("worker_id") for s in spans] == [0, 1]
        assert all(s.attrs.get("n_tasks") == 2 for s in spans)
        assert all(s.attrs.get("bytes_touched") == data.nbytes for s in spans)
        assert all(s.attrs.get("pid") not in (None, os.getpid()) for s in spans)
        # each worker span carries the kernel span recorded in-process
        assert all(
            [c.name for c in s.children] == ["sum_range"] for s in spans
        )
        demo = next(s for s, _ in ctx.tracer.walk() if s.name == "Demo")
        assert demo.attrs.get("workers") == 2
        assert demo.attrs.get("imbalance") >= 1.0
    finally:
        ctx.close()


# ----------------------------------------------------------------------
# gating + context integration
# ----------------------------------------------------------------------

def test_active_process_backend_gating():
    backend = ProcessBackend(min_items=100)
    ctx = ExecutionContext(backend=backend, num_workers=4)
    try:
        assert active_process_backend(None, 10**9) is None
        assert active_process_backend(ctx, 50) is None  # below min_items
        assert active_process_backend(ctx, 100) is backend
        serial_ctx = ExecutionContext(backend="serial")
        assert active_process_backend(serial_ctx, 10**9) is None
        one = ExecutionContext(backend=backend, num_workers=1)
        assert active_process_backend(one, 10**9) is None
    finally:
        ctx.close()


def test_get_backend_process_and_close_helper():
    ctx = ExecutionContext(backend="process", num_workers=2)
    assert isinstance(ctx.backend, ProcessBackend)
    assert ctx.shared_pool is ctx.backend.pool
    assert ctx.provenance()["backend"] == "process"
    ctx.close()  # no pool was spun up; must be a clean no-op
    ctx.close()


@pytest.mark.process_backend
@needs_fork
def test_execution_context_owns_backend_resources():
    backend = ProcessBackend(min_items=0)
    with ExecutionContext(backend=backend, num_workers=2) as ctx:
        assert ctx.shared_pool is backend.pool
        _, h = backend.pool.share("x", np.arange(4))
        assert backend.map_tasks(_sum_range, [(h, 0, 4)]) == [6]
    # context exit closed the backend: segments unlinked
    assert backend.pool.current_bytes == 0
    with pytest.raises(FileNotFoundError):
        attach(h)


def test_serial_context_has_no_shared_pool():
    ctx = ExecutionContext(backend="serial")
    assert ctx.shared_pool is None
    ctx.close()  # harmless on pool-less backends


# ----------------------------------------------------------------------
# in-process execution of the kernel worker functions (coverage of the
# worker bodies without forking)
# ----------------------------------------------------------------------

@pytest.mark.process_backend
@needs_fork
def test_kernel_workers_run_in_process():
    from repro.triangles.support import _w_support_partial
    from repro.truss.decompose import _w_decrement_partial

    pool = SharedArrayPool()
    try:
        m = 8
        uv = np.array([0, 1, 2, 0], dtype=np.int64)
        handles = [pool.share(k, uv)[1] for k in ("uv", "uw", "vw")]
        partials, out_h = pool.take("p", (1, m), np.int64)
        n = _w_support_partial(*handles, 0, 4, m, out_h, 0)
        assert n == 4
        assert np.array_equal(partials[0], 3 * np.bincount(uv, minlength=m))

        sides = np.array([3, 3, 1], dtype=np.int64)
        _, sides_h = pool.share("sides", sides)
        dec, dec_h = pool.take("dec", (1, m), np.int64)
        _w_decrement_partial(sides_h, 0, 3, m, dec_h, 0)
        assert np.array_equal(dec[0], np.bincount(sides, minlength=m))
    finally:
        pool.close()
