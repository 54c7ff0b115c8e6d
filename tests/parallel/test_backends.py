"""Unit tests for execution backends and the ExecutionContext defaults."""

import numpy as np
import pytest

from repro.errors import BackendError
from repro.parallel import ExecutionContext, get_backend, parallel_for
from repro.parallel.atomics import AtomicArray


def test_serial_backend_runs_once():
    calls = []
    parallel_for(10, lambda lo, hi, tid: calls.append((lo, hi, tid)), "serial")
    assert calls == [(0, 10, 0)]


def test_thread_backend_covers_range():
    out = np.zeros(1000, dtype=np.int64)

    def chunk(lo, hi, tid):
        out[lo:hi] += 1

    parallel_for(1000, chunk, "thread", num_workers=4)
    assert np.all(out == 1)


def test_thread_backend_propagates_exception():
    def chunk(lo, hi, tid):
        if tid == 1:
            raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        parallel_for(100, chunk, "thread", num_workers=3)


def test_thread_backend_single_worker_inline():
    tids = []
    parallel_for(5, lambda lo, hi, tid: tids.append(tid), "thread", num_workers=1)
    assert tids == [0]


def test_unknown_backend():
    with pytest.raises(BackendError):
        get_backend("gpu")


def test_policy_defaults_and_run():
    p = ExecutionContext.ensure(None)
    assert p.num_workers == 1
    seen = []
    p.run(3, lambda lo, hi, tid: seen.append((lo, hi)))
    assert seen == [(0, 3)]


def test_atomic_array_cas_and_min():
    a = AtomicArray(np.array([5, 10, 3]))
    assert a.compare_and_swap(0, 5, 1)
    assert not a.compare_and_swap(0, 5, 2)
    assert a.load(0) == 1
    assert a.fetch_min(1, 7) == 10
    assert a.fetch_min(1, 100) == 7
    assert a.load(1) == 7
    a.store(2, 42)
    assert a.load(2) == 42
    assert len(a) == 3


def test_atomic_array_concurrent_min():
    # many threads race to write minima; final value must be the global min
    a = AtomicArray(np.array([10**9]))
    values = np.random.default_rng(0).integers(0, 10**6, size=2000)

    def chunk(lo, hi, tid):
        for v in values[lo:hi]:
            a.fetch_min(0, int(v))

    parallel_for(values.size, chunk, "thread", num_workers=8)
    assert a.load(0) == int(values.min())


def test_thread_backend_pool_persists_and_closes():
    from repro.parallel.backends import ThreadBackend, close_backend

    backend = ThreadBackend()
    backend.run(100, lambda lo, hi, tid: None, num_workers=3)
    pool = backend._pool
    assert pool is not None
    backend.run(100, lambda lo, hi, tid: None, num_workers=2)
    assert backend._pool is pool  # reused, not rebuilt for fewer workers
    backend.run(100, lambda lo, hi, tid: None, num_workers=5)
    assert backend._pool is not pool  # grown
    close_backend(backend)
    assert backend._pool is None
    # close() is not terminal: the pool re-creates on next use
    backend.run(10, lambda lo, hi, tid: None, num_workers=2)
    assert backend._pool is not None
    backend.close()


def test_thread_backend_single_worker_never_builds_pool():
    from repro.parallel.backends import ThreadBackend

    backend = ThreadBackend()
    backend.run(10, lambda lo, hi, tid: None, num_workers=1)
    assert backend._pool is None
    backend.close()
