"""Percentiles and spreads, with the sample counts that qualify them."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

# a tail percentile is only reported as such when at least this many
# samples lie beyond it
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside 0..100")
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def beyond(values: Sequence[float], threshold: float) -> int:
    """How many samples lie strictly above threshold."""
    return sum(1 for v in values if v > threshold)


def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile from 50 to 99 that has at least
    TAIL_SAMPLES of n distinct samples beyond it, or None.

    `percentile` puts percentile p at rank (n - 1) * p / 100, so the
    samples beyond it are those ranked above floor of that.
    """
    for p in range(99, 49, -1):
        if n - 1 - math.floor((n - 1) * p / 100) >= TAIL_SAMPLES:
            return p
    return None


def latency_summary(values: Sequence[float]) -> Dict[str, object]:
    """p50 and p99 with sample counts, plus the deepest tail percentile that
    has TAIL_SAMPLES samples beyond it (p99 needs at least 1000 samples)."""
    n = len(values)
    out: Dict[str, object] = {"n": n}
    if not n:
        return out
    p99 = percentile(values, 99)
    out.update(p50=percentile(values, 50), p99=p99, p99_beyond=beyond(values, p99))
    tail = tail_percentile(n)
    if tail is not None:
        out.update(tail_pct=tail, tail=percentile(values, tail))
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
