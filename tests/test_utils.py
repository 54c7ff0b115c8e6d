"""Unit tests for the utils package."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.utils import (
    check_array_1d,
    check_in_range,
    check_nonnegative,
    check_positive,
    resolve_rng,
)


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
