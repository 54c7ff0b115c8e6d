"""Sort primitives for the index build's dedupes and group-bys.

Every dedupe and every group-by on the build path goes through the
functions here, because the NumPy calls they replace cost more than
the kernels around them:

* A plain ``np.unique(a)`` (NumPy ≥ 2.3) takes a hash-table path. On
  the build's large integer arrays that is an order of magnitude slower
  than the in-place sort plus adjacent-difference mask that
  :func:`unique_sorted` and :func:`unique_counts` do; they return the
  same sorted arrays.
* ``np.argsort(a, kind="stable")`` on 32- and 64-bit integers is a
  timsort. :func:`stable_order` gets the identical permutation from the
  vectorized ``np.sort`` of unique composite keys, or, for keys that
  fit 8 or 16 bits, from the radix sort NumPy runs on those dtypes;
  :func:`group_offsets` gives the CSR offsets of its groups.
"""

from __future__ import annotations

import numpy as np

_INT64_LIMIT = 1 << 63


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in ``s``."""
    first = np.empty(s.size, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return first


def unique_sorted(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of integer array ``a``; equals ``np.unique(a)``."""
    s = np.sort(a, axis=None)
    return s[_run_starts(s)]


def unique_counts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(a, return_counts=True)`` by the same sort and mask."""
    s = np.sort(a, axis=None)
    starts = np.flatnonzero(_run_starts(s))
    return s[starts], np.diff(starts, append=s.size)


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    Keys below 2¹⁶ are cast to the smallest unsigned dtype that holds
    ``bound - 1``, which NumPy stable-sorts with a radix sort. Larger
    keys are packed as ``key << b | position`` with ``2**b ≥ len(keys)``:
    the packed values are distinct, so their plain ascending sort is
    exactly the stable order, and the low ``b`` bits give the position
    back. If the packed value would not fit an int64 the plain stable
    argsort runs instead.
    """
    small = np.min_scalar_type(max(bound - 1, 0))
    if small.itemsize <= 2:
        return np.argsort(keys.astype(small), kind="stable")
    n = keys.size
    shift = max(n - 1, 0).bit_length()
    if bound << shift > _INT64_LIMIT:
        return np.argsort(keys, kind="stable")
    packed = keys.astype(np.int64)
    packed <<= shift
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    packed &= (1 << shift) - 1
    return packed


def group_offsets(keys: np.ndarray, bound: int) -> np.ndarray:
    """``int64[bound + 1]`` CSR offsets of integer keys in ``[0, bound)``.

    Key ``k``'s positions are ``stable_order(keys, bound)[offsets[k]:
    offsets[k + 1]]``.
    """
    offsets = np.zeros(bound + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=bound), out=offsets[1:])
    return offsets
