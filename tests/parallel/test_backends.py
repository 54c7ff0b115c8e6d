"""Unit tests for backend resolution and the ExecutionContext defaults."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import BackendError
from repro.parallel import ExecutionContext
from repro.parallel.atomics import AtomicArray
from repro.parallel.partition import block_ranges


def test_unknown_backend():
    for name in ("gpu", "thread"):
        with pytest.raises(BackendError, match="unknown backend"):
            ExecutionContext(backend=name)
    with pytest.raises(BackendError):
        ExecutionContext(backend=object())


def test_policy_defaults_and_run():
    p = ExecutionContext.ensure(None)
    assert p.num_workers == 1
    assert p.backend is None  # serial: every kernel runs its vectorized path
    assert p.shared_pool is None
    assert p.provenance()["backend"] == "serial"
    p.close()  # nothing to release


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

    def chunk(lo, hi):
        for v in values[lo:hi]:
            a.fetch_min(0, int(v))

    with ThreadPoolExecutor(max_workers=8) as pool:
        for fut in [pool.submit(chunk, lo, hi) for lo, hi in block_ranges(values.size, 8)]:
            fut.result()
    assert a.load(0) == int(values.min())
