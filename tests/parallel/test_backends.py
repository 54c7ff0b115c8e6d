"""Unit tests for backend resolution and the ExecutionContext defaults."""

import pytest

from repro.errors import BackendError
from repro.parallel import ExecutionContext


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
