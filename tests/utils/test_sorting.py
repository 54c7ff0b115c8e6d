"""The build's sort primitives against the NumPy calls they replace."""

import numpy as np
import pytest

from repro.utils.sorting import group_by, unique_counts, unique_sorted


def _inputs():
    """(int array, exclusive key bound) params covering the edge shapes."""
    rng = np.random.default_rng(7)
    steps = np.arange(1000, dtype=np.int64) // 3
    cases = [
        ("empty", np.empty(0, np.int64), 1),
        ("one", np.array([5], np.int64), 6),
        ("all_equal", np.full(1000, 3, np.int64), 4),
        ("sorted", steps, 334),
        ("reversed", steps[::-1].copy(), 334),
    ]
    for dt in (np.int32, np.int64):
        name = np.dtype(dt).name
        cases += [
            (f"few_{name}", rng.integers(0, 4, 5000).astype(dt), 4),
            (f"many_{name}", rng.integers(0, 300_000, 5000).astype(dt), 300_000),
            (f"wide_{name}", rng.integers(0, 2**31 - 1, 5000).astype(dt), 2**31 - 1),
        ]
    return [pytest.param(a, bound, id=label) for label, a, bound in cases]


def _check_group_by(keys, bound):
    """``group_by`` equals the stable argsort plus ``bincount`` + ``cumsum``."""
    order, offsets = group_by(keys, bound)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    want = np.zeros(bound + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=bound), out=want[1:])
    assert offsets.size == bound + 1
    assert np.array_equal(offsets, want)
    for arr in (order, offsets):
        assert arr.dtype in (np.dtype(np.int32), np.dtype(np.int64))
    # key k's positions are order[offsets[k]:offsets[k + 1]]
    assert np.array_equal(keys[order], np.repeat(np.arange(bound), np.diff(offsets)))


@pytest.mark.parametrize("a,bound", _inputs())
def test_unique_sorted_equals_np_unique(a, bound):
    got = unique_sorted(a)
    want = np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    values, counts = unique_counts(a)
    want_values, want_counts = np.unique(a, return_counts=True)
    for g, w in ((values, want_values), (counts, want_counts)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


# group_by allocates bound + 1 offsets, so the wide-bound cases stay out
@pytest.mark.parametrize(
    "a,bound", [p for p in _inputs() if p.values[1] <= 1 << 20]
)
def test_stable_order_equals_stable_argsort(a, bound):
    """The stable order ``group_by`` returns is the stable argsort."""
    _check_group_by(a, bound)


@pytest.mark.parametrize(
    "kmax,dtype",
    [(255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, None)],
)
def test_stable_order_small_keys_across_dtype_boundaries(kmax, dtype):
    """Trussness keys arrive as the narrowest unsigned dtype holding kmax."""
    rng = np.random.default_rng(kmax)
    keys = rng.integers(0, kmax + 1, 20_000).astype(dtype or np.int64)
    keys[:3] = (0, kmax, kmax)  # both ends of the range are present
    _check_group_by(keys, kmax + 1)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64])
@pytest.mark.parametrize(
    "shape", ["empty", "bound_1", "all_equal", "top_key", "random"]
)
def test_group_by_key_dtypes(dtype, shape):
    rng = np.random.default_rng(11)
    bound = 200
    keys = {
        "empty": np.empty(0),
        "bound_1": np.zeros(50),
        "all_equal": np.full(300, 17),
        "top_key": np.full(40, bound - 1),
        "random": rng.integers(0, bound, 3000),
    }[shape].astype(dtype)
    _check_group_by(keys, 1 if shape == "bound_1" else bound)


def test_group_by_empty_bound_zero():
    order, offsets = group_by(np.empty(0, np.int64), 0)
    assert order.size == 0
    assert np.array_equal(offsets, [0])


def test_unique_sorted_flattens_like_np_unique():
    a = np.array([[3, 1], [1, 2]], dtype=np.int64)
    assert np.array_equal(unique_sorted(a), np.unique(a))
