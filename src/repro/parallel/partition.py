"""Contiguous work partitioners: item-count and work-balanced splits.

:func:`block_ranges` is OpenMP's ``schedule(static)`` item-count split;
:func:`weighted_ranges` implements the *triangle-balanced* split of
the eager k-truss load-balancing study (Blanco & Low,
arXiv:2009.07929): contiguous ranges are cut so each holds a
near-equal share of a per-item **work estimate** (for triangle
kernels: the wedge count, a prefix sum of degree products) instead of
a near-equal share of the items. On skewed degree distributions the
last block of an item-count split otherwise owns most of the wedges
and every other worker idles at the barrier.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.utils.validation import check_nonnegative, check_positive


def block_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous near-equal blocks.

    The first ``n % parts`` blocks get one extra item (OpenMP
    ``schedule(static)``). Empty blocks are included so thread ids map
    one-to-one onto blocks.
    """
    check_nonnegative("n", n)
    check_positive("parts", parts)
    base, extra = divmod(n, parts)
    out = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def weighted_ranges(weights, parts: int) -> list[tuple[int, int]]:
    """Split ``range(len(weights))`` into ``parts`` contiguous ranges of
    near-equal total *weight*.

    Cut points are placed where the weight prefix sum crosses each
    ``total · i / parts`` target, so a range's weight overshoots its
    ideal share by at most one item's weight. Weights must be
    non-negative; an all-zero estimate degrades to :func:`block_ranges`.
    Like :func:`block_ranges`, empty ranges are kept so range index maps
    one-to-one onto worker id, and the concatenation of the ranges in
    order is exactly ``range(n)`` — callers' "concatenate per-range
    results in order" reassembly stays bit-identical under any split.
    """
    check_positive("parts", parts)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise InvalidParameterError("weights must be a 1-D array")
    n = int(w.size)
    if n == 0:
        return [(0, 0) for _ in range(parts)]
    if w.min() < 0:
        raise InvalidParameterError("weights must be non-negative")
    prefix = np.cumsum(w)
    total = float(prefix[-1])
    if total <= 0:
        return block_ranges(n, parts)
    targets = total * np.arange(1, parts, dtype=np.float64) / parts
    cuts = np.searchsorted(prefix, targets, side="left")
    bounds = np.concatenate([[0], cuts, [n]]).astype(np.int64)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def range_weights(weights, ranges: list[tuple[int, int]]) -> list[int]:
    """Total estimated work per range — the ``work=`` attr of each task."""
    w = np.asarray(weights)
    return [int(w[lo:hi].sum()) for lo, hi in ranges]
