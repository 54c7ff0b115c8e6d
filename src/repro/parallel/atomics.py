"""Emulated atomic operations on NumPy arrays.

CPython has no lock-free CAS on array elements; :class:`AtomicArray`
provides the handful of atomics the CC algorithms need (CAS,
atomic-min, fetch-and-store) using a striped lock table, which keeps
contention low when many threads touch disjoint indices.

The *vectorized* algorithm paths do not use this class — they emulate
CRCW priority writes deterministically with ``np.minimum.at``. This
class backs :mod:`repro.cc.threaded`, whose racing Python threads
exercise the paper's §3.1 benign-race claim with real concurrency.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.utils.validation import check_positive


class AtomicArray:
    """A 1-D int64 array with emulated atomic element operations."""

    def __init__(self, values: np.ndarray, num_stripes: int = 64) -> None:
        check_positive("num_stripes", num_stripes)
        self.values = np.ascontiguousarray(values, dtype=np.int64)
        self._locks = [threading.Lock() for _ in range(num_stripes)]

    def _lock(self, idx: int) -> threading.Lock:
        return self._locks[idx % len(self._locks)]

    def load(self, idx: int) -> int:
        return int(self.values[idx])

    def store(self, idx: int, value: int) -> None:
        with self._lock(idx):
            self.values[idx] = value

    def compare_and_swap(self, idx: int, expected: int, new: int) -> bool:
        """Atomically set ``values[idx] = new`` iff it equals ``expected``."""
        with self._lock(idx):
            if self.values[idx] == expected:
                self.values[idx] = new
                return True
            return False

    def fetch_min(self, idx: int, value: int) -> int:
        """Atomically ``values[idx] = min(values[idx], value)``; returns prior value."""
        with self._lock(idx):
            old = int(self.values[idx])
            if value < old:
                self.values[idx] = value
            return old

    def __len__(self) -> int:
        return self.values.size
