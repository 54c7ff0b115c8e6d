"""Unit tests for work partitioners."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.parallel.context import ExecutionContext
from repro.parallel.partition import block_ranges, range_weights, weighted_ranges


def test_block_ranges_cover_and_balance():
    for n in (0, 1, 7, 100, 128):
        for parts in (1, 3, 8):
            ranges = block_ranges(n, parts)
            assert len(ranges) == parts
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            sizes = [hi - lo for lo, hi in ranges]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1
            # contiguous
            for (a, b), (c, d) in zip(ranges, ranges[1:]):
                assert b == c


def test_block_ranges_invalid():
    with pytest.raises(InvalidParameterError):
        block_ranges(10, 0)
    with pytest.raises(InvalidParameterError):
        block_ranges(-1, 2)


def _assert_cover(ranges, n, parts):
    assert len(ranges) == parts
    assert ranges[0][0] == 0 and ranges[-1][1] == n
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c


def test_weighted_ranges_cover_any_weights():
    rng = np.random.default_rng(0)
    for n in (0, 1, 7, 100, 1000):
        for parts in (1, 3, 8):
            w = rng.integers(0, 50, size=n)
            _assert_cover(weighted_ranges(w, parts), n, parts)


def test_weighted_ranges_balances_skewed_work():
    # one heavy hub at the front: item-count splitting gives worker 0
    # nearly all the work; weight splitting shares it near-evenly
    w = np.ones(1000)
    w[:10] = 500.0
    parts = 4
    ranges = weighted_ranges(w, parts)
    shares = [w[lo:hi].sum() for lo, hi in ranges]
    total = w.sum()
    assert max(shares) <= total / parts + w.max()
    blocked = [w[lo:hi].sum() for lo, hi in block_ranges(w.size, parts)]
    assert max(shares) < max(blocked)


def test_weighted_ranges_zero_weights_degrade_to_blocked():
    assert weighted_ranges(np.zeros(12), 4) == block_ranges(12, 4)
    assert weighted_ranges([], 3) == [(0, 0)] * 3


def test_weighted_ranges_validation():
    with pytest.raises(InvalidParameterError):
        weighted_ranges([1.0, -1.0], 2)
    with pytest.raises(InvalidParameterError):
        weighted_ranges(np.ones((2, 2)), 2)
    with pytest.raises(InvalidParameterError):
        weighted_ranges(np.ones(4), 0)


def test_partition_ranges_dispatch():
    """Kernel-supplied weights cut by work; no weights cut by count.
    Empty ranges are dropped."""
    w = np.array([10, 1, 1, 1, 1, 1, 1, 10])
    ctx = ExecutionContext(num_workers=2)
    assert ctx.partition_ranges(8, weights=w) == weighted_ranges(w, 2)
    assert ctx.partition_ranges(8) == block_ranges(8, 2)
    assert ExecutionContext(num_workers=4).partition_ranges(2) == [(0, 1), (1, 2)]


def test_range_weights_sums_per_range():
    w = np.arange(10)
    ranges = [(0, 3), (3, 3), (3, 10)]
    assert range_weights(w, ranges) == [3, 0, 42]
