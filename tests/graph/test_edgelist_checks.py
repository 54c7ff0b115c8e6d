"""``EdgeList``'s compare-based order check against the keyed oracle.

For every input, either both construct (and the lazy ``keys`` equal the
oracle's), or both raise :class:`GraphConstructionError` with the same
message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.graph import EdgeList

from tests.graph.keyed_oracle import keyed_check


def _verdict(build, u, v, n):
    try:
        return "ok", build(u, v, n)
    except GraphConstructionError as exc:
        return "error", str(exc)


def assert_same_verdict(pairs, n):
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    expected = _verdict(keyed_check, u, v, n)
    got = _verdict(EdgeList, u, v, n)
    assert got[0] == expected[0], (pairs, n, expected, got)
    if got[0] == "error":
        assert got[1] == expected[1], (pairs, n)
    else:
        assert got[1]._keys is None
        assert np.array_equal(got[1].keys, expected[1])


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
)
def test_order_check_matches_keyed_oracle(raw, how, n):
    assert_same_verdict(_shape(raw, how), n)


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
