"""The build's sort primitives against the NumPy calls they replace."""

import numpy as np
import pytest

from repro.utils import sorting
from repro.utils.sorting import group_offsets, stable_order, unique_counts, unique_sorted


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


@pytest.mark.parametrize("a,bound", _inputs())
def test_stable_order_equals_stable_argsort(a, bound):
    got = stable_order(a, bound)
    want = np.argsort(a, kind="stable")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    if bound <= 1 << 20:  # the offsets hold bound + 1 entries
        offsets = group_offsets(a, bound)
        assert offsets.dtype == np.dtype(np.int64)
        assert offsets.size == bound + 1 and offsets[0] == 0
        # key k's positions are got[offsets[k]:offsets[k + 1]]
        assert np.array_equal(a[got], np.repeat(np.arange(bound), np.diff(offsets)))


def test_unique_sorted_flattens_like_np_unique():
    a = np.array([[3, 1], [1, 2]], dtype=np.int64)
    assert np.array_equal(unique_sorted(a), np.unique(a))


def test_stable_order_falls_back_when_packing_overflows(monkeypatch):
    a = np.random.default_rng(3).integers(0, 50, 1000).astype(np.int64)
    calls = []
    real = np.argsort

    def spy(keys, *args, **kwargs):
        calls.append(keys.dtype)
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(sorting.np, "argsort", spy)
    # 1000 positions take 10 low bits, so a bound of 2**54 packs past
    # 2**63; the helper must take the plain stable argsort of the keys
    got = stable_order(a, 2**54)
    assert calls == [np.dtype(np.int64)]
    assert np.array_equal(got, real(a, kind="stable"))
    # one bit less fits exactly: the largest key packs to 2**63 - 1 and
    # the packed sort runs without any argsort
    b = a.copy()
    b[0] = 2**53 - 1
    calls.clear()
    assert np.array_equal(stable_order(b, 2**53), real(b, kind="stable"))
    assert calls == []


@pytest.mark.parametrize(
    "kmax,dtype",
    [(255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, None)],
)
def test_stable_order_small_keys_across_dtype_boundaries(kmax, dtype, monkeypatch):
    rng = np.random.default_rng(kmax)
    keys = rng.integers(0, kmax + 1, 20_000).astype(np.int64)
    keys[:3] = (0, kmax, kmax)  # both ends of the range are present
    calls = []
    real = np.argsort

    def spy(k, *args, **kwargs):
        calls.append(k.dtype)
        return real(k, *args, **kwargs)

    monkeypatch.setattr(sorting.np, "argsort", spy)
    got = stable_order(keys, kmax + 1)
    assert np.array_equal(got, real(keys, kind="stable"))
    # kmax < 2**16 radix-sorts the narrowed keys; past it the packed sort
    # runs and no argsort is called
    assert calls == ([] if dtype is None else [np.dtype(dtype)])
