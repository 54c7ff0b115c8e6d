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
  timsort, yet every build group-by has keys in a known range
  ``[0, bound)``. :func:`group_by` groups them by counting instead: it
  is scipy.sparse's compiled COO→CSR conversion of the matrix with a
  one at ``(key, position)``, whose ``indices`` are exactly the stable
  argsort and whose ``indptr`` are the groups' offsets.

``scipy.sparse`` is imported inside :func:`group_by` only: the serve
stack imports this module and never groups, and the import costs about
22 MB resident.
"""

from __future__ import annotations

import numpy as np

_I32_MAX = np.iinfo(np.int32).max


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


def group_by(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable group-by of integer keys in ``[0, bound)``: ``(order, offsets)``.

    ``order`` equals ``np.argsort(keys, kind="stable")`` and ``offsets``
    are the ``bound + 1`` CSR offsets of its groups (``bincount`` then
    ``cumsum``): key ``k``'s positions are ``order[offsets[k]:offsets[k
    + 1]]``, ascending. The offsets are allocated for every key value,
    so ``bound`` must be a table size, not a hash range. Both arrays are
    int32 when ``len(keys)`` and ``bound`` fit it, else int64.
    """
    from scipy.sparse import coo_array

    n = keys.size
    dt = np.int32 if max(n, bound) <= _I32_MAX else np.int64
    positions = np.arange(n, dtype=dt)
    if n == 0:  # scipy would return its own index dtype
        return positions, np.zeros(bound + 1, dtype=dt)
    csr = coo_array(
        (np.ones(n, dtype=bool), (keys.astype(dt, copy=False), positions)),
        shape=(bound, n),
    ).tocsr()
    return csr.indices, csr.indptr
