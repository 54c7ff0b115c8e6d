"""``EdgeList``'s compare-based order check against the keyed oracle.

For every input, either both construct (and the lazy ``keys`` equal the
oracle's), or both raise :class:`GraphConstructionError` with the same
message. Integer endpoints of any width get the int64 oracle's verdict;
float and bool endpoints are rejected before any cast.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError, InvalidParameterError
from repro.graph import EdgeList

from tests.graph.keyed_oracle import keyed_check


def _verdict(build, u, v, n):
    try:
        return "ok", build(u, v, n)
    except GraphConstructionError as exc:
        return "error", str(exc)


def assert_same_verdict(pairs, n, dtype=np.int64):
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    expected = _verdict(keyed_check, u, v, n)
    got = _verdict(EdgeList, u.astype(dtype), v.astype(dtype), n)
    assert got[0] == expected[0], (pairs, n, expected, got)
    if got[0] == "error":
        assert got[1] == expected[1], (pairs, n)
    else:
        assert got[1]._keys is None
        assert np.array_equal(got[1].keys, expected[1])
        assert got[1].keys.dtype == np.int64


def _shape(pairs, how):
    """Turn a raw pair list into one of the shapes the check must judge."""
    if how == "raw":
        return pairs
    if how == "sorted":  # sorted, duplicates and u >= v kept
        return sorted(pairs)
    canonical = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    if how == "canonical":
        return canonical
    if how == "duplicate" and canonical:
        i = len(canonical) // 2
        return canonical[: i + 1] + canonical[i:]
    if how == "swapped" and len(canonical) > 1:
        canonical[0], canonical[-1] = canonical[-1], canonical[0]
    return canonical


@settings(max_examples=400, deadline=None)
@given(
    raw=st.lists(st.tuples(st.integers(-2, 11), st.integers(-2, 11)), max_size=12),
    how=st.sampled_from(["raw", "sorted", "canonical", "duplicate", "swapped"]),
    n=st.integers(0, 12),
    dtype=st.sampled_from([np.int64, np.int32, np.int16]),
)
def test_order_check_matches_keyed_oracle(raw, how, n, dtype):
    assert_same_verdict(_shape(raw, how), n, dtype)


@pytest.mark.parametrize(
    "pairs, n",
    [
        ([], 0),
        ([], 5),
        ([(0, 1)], 2),
        ([(0, 1)], 1),  # v >= n
        ([(1, 1)], 3),  # u == v
        ([(2, 1)], 3),  # u > v
        ([(-1, 1)], 3),  # negative
        ([(0, 1), (0, 1)], 3),  # duplicate
        ([(0, 2), (0, 1)], 3),  # unsorted within a row
        ([(1, 2), (0, 2)], 3),  # unsorted rows
        ([(0, 1), (0, 2), (1, 2)], 3),
        ([(0, 2), (1, 2), (1, 3), (2, 3)], 4),
    ],
)
def test_order_check_edge_cases(pairs, n):
    assert_same_verdict(pairs, n)


@settings(max_examples=200, deadline=None)
@given(
    ends=st.lists(
        st.tuples(st.floats(-3, 12) | st.just(float("nan")), st.floats(-3, 12)),
        min_size=1, max_size=8,
    ),
    which=st.sampled_from(["u", "v", "both"]),
)
def test_float_endpoints_are_rejected_not_truncated(ends, which):
    fu = np.array([a for a, _ in ends])
    fv = np.array([b for _, b in ends])
    iu = np.arange(len(ends), dtype=np.int64)
    u = iu if which == "v" else fu
    v = iu + 1 if which == "u" else fv
    with pytest.raises(InvalidParameterError, match="dtype kind"):
        EdgeList(u, v, 20)


def test_float_and_bool_endpoints_raise_typed_errors():
    # 0.5 -> 0 and 1.7 -> 1 once built the edge (0, 1)
    with pytest.raises(InvalidParameterError, match="u must have dtype kind"):
        EdgeList(np.array([0.5]), np.array([1.7]), 3)
    with pytest.raises(InvalidParameterError, match="v must have dtype kind"):
        EdgeList(np.array([0]), np.array([1.0]), 3)
    with pytest.raises(InvalidParameterError, match="dtype kind"):
        EdgeList(np.array([False]), np.array([True]), 3)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_int32_and_int64_endpoints_are_kept_without_a_copy(dtype):
    u = np.array([0, 0, 1], dtype=dtype)
    v = np.array([1, 2, 2], dtype=dtype)
    edges = EdgeList(u, v, 3)
    assert edges.u.dtype == dtype and edges.v.dtype == dtype
    assert np.shares_memory(edges.u, u) and np.shares_memory(edges.v, v)
    assert np.array_equal(edges.edge_ids(v, u), [0, 1, 2])


def test_other_integer_kinds_are_widened_to_int64():
    edges = EdgeList(np.array([0, 1], np.uint16), np.array([1, 2], np.int8), 3)
    assert edges.u.dtype == edges.v.dtype == np.int64


def test_equal_lists_of_different_dtypes_hash_alike():
    wide = EdgeList(np.array([0, 0, 1]), np.array([1, 2, 2]), 3)
    narrow = EdgeList(np.array([0, 0, 1], np.int32), np.array([1, 2, 2], np.int32), 3)
    assert wide == narrow
    assert hash(wide) == hash(narrow)
    assert len({wide, narrow}) == 1


def test_empty_endpoints_of_any_dtype_are_no_edges():
    edges = EdgeList(np.empty(0), np.empty(0), 0)
    assert edges.num_edges == 0 and edges.u.dtype == np.int64
