"""Shared utilities: RNG helpers, validation."""

from repro.utils.validation import (
    check_array_1d,
    check_in_range,
    check_nonnegative,
    check_positive,
)
from repro.utils.rng import resolve_rng

__all__ = [
    "check_array_1d",
    "check_in_range",
    "check_nonnegative",
    "check_positive",
    "resolve_rng",
]
