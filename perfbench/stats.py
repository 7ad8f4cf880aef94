"""Percentiles by the nearest-rank rule, and the tail-sample rule."""

from __future__ import annotations

import math
from fractions import Fraction

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(sorted_values, p: float) -> float:
    return sorted_values[rank(len(sorted_values), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the p-th percentile's rank."""
    return n - rank(n, p)


def highest_percentile(n: int) -> float | None:
    """The highest percentile with at least MIN_BEYOND samples beyond it."""
    for p in PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def samples_needed(p: float) -> int:
    """Fewest samples for which `p` has MIN_BEYOND samples beyond it."""
    n = MIN_BEYOND
    while beyond(n, p) < MIN_BEYOND:
        n += 1
    return n
