"""Latency summaries."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest value with at least pct% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten samples above it.

    Returns (value, percentile, samples above it).  With too few samples for
    any percentile from 50 up, falls back to the median and reports how many
    samples lie above it.
    """
    for pct in range(99, 49, -1):
        value = percentile(values, pct)
        beyond = sum(v > value for v in values)
        if beyond >= MIN_BEYOND:
            return value, pct, beyond
    value = percentile(values, 50)
    return value, 50, sum(v > value for v in values)
