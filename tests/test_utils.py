"""Unit tests for the utils package."""

import time

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.utils import (
    Timer,
    check_array_1d,
    check_in_range,
    check_nonnegative,
    check_positive,
    resolve_rng,
)


def test_timer_measures():
    with Timer() as t:
        time.sleep(0.01)
    assert t.elapsed >= 0.009


def test_timer_accumulates():
    t = Timer()
    t.start()
    t.stop()
    first = t.elapsed
    t.start()
    t.stop()
    assert t.elapsed >= first


def test_timer_stop_before_start():
    with pytest.raises(RuntimeError):
        Timer().stop()


def test_timer_start_while_running_raises():
    t = Timer()
    t.start()
    with pytest.raises(RuntimeError):
        t.start()  # a silent restart would discard the first origin
    # the failed start must not corrupt the running measurement
    t.stop()
    assert t.elapsed >= 0.0
    t.start()  # stopped timers restart fine
    t.stop()


def test_resolve_rng():
    r1 = resolve_rng(42)
    r2 = resolve_rng(42)
    assert r1.integers(0, 100) == r2.integers(0, 100)
    gen = np.random.default_rng(0)
    assert resolve_rng(gen) is gen
    assert resolve_rng(None) is not None


def test_validation_helpers():
    check_positive("x", 1)
    check_nonnegative("x", 0)
    check_in_range("x", 0.5, 0, 1)
    with pytest.raises(InvalidParameterError):
        check_positive("x", 0)
    with pytest.raises(InvalidParameterError):
        check_nonnegative("x", -1)
    with pytest.raises(InvalidParameterError):
        check_in_range("x", 2, 0, 1)


def test_check_array_1d():
    arr = check_array_1d("a", np.arange(3), "iu")
    assert arr.shape == (3,)
    with pytest.raises(InvalidParameterError):
        check_array_1d("a", np.zeros((2, 2)))
    with pytest.raises(InvalidParameterError):
        check_array_1d("a", np.zeros(3, dtype=float), "iu")
