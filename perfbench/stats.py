"""The benchmark's own arithmetic: percentiles and failure accounting."""

from __future__ import annotations

import math
import statistics

#: Job or cell statuses that count as done.  Everything else -- a failed
#: job, a shed or refused request, a sweep gap -- counts as failed.
OK_STATUSES = frozenset({"served", "ok"})


def percentile(values, pct: float) -> float:
    """The ``pct``-th percentile of ``values``, linearly interpolated."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = (len(data) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def tail_percentile(n: int, beyond: int = 10) -> "int | None":
    """The highest whole percentile with at least ``beyond`` of ``n``
    samples above it, or None when ``n`` is too small for any."""
    # n * (100 - p) / 100 >= beyond  <=>  p <= 100 - 100 * beyond / n
    if n <= beyond:
        return None
    return 100 - math.ceil(100 * beyond / n)


def median(values) -> float:
    return statistics.median(values)


def failure_accounting(statuses) -> "tuple[int, int, float]":
    """``(attempted, failed, failed_frac)`` over per-job or per-cell
    statuses; anything not in :data:`OK_STATUSES` is a failure."""
    statuses = list(statuses)
    failed = sum(1 for s in statuses if s not in OK_STATUSES)
    attempted = len(statuses)
    return attempted, failed, (failed / attempted if attempted else 0.0)
