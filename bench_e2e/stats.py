"""The benchmark's own arithmetic: the percentile rule, summaries, worsening."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it (p90 therefore needs n >= 100).
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th (upper-tail) percentile, or None when refused."""
    n = len(samples)
    if n * (100.0 - q) / 100.0 < MIN_SAMPLES_BEYOND:
        return None
    ordered = sorted(samples)
    rank = (n - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median (the reported value) with min, max and the sample count."""
    return {
        "value": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }


def worsening(before: float, after: float, better: str) -> float:
    """Share of ``before`` by which ``after`` is worse (negative: better)."""
    change = (after - before) / before
    return change if better == "lower" else -change
