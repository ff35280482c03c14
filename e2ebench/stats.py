"""Summary statistics for benchmark samples (stdlib only)."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(ordered: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of already sorted samples."""
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(
    samples: Sequence[float], *, min_beyond: int = 10
) -> Optional[Dict[str, float]]:
    """The highest candidate percentile with ``min_beyond`` samples above it.

    A percentile is only reported when at least ``min_beyond`` samples
    lie beyond its nearest rank, so the value is backed by real tail
    observations.  Returns ``{"percentile", "value", "beyond"}`` or None
    when even the median has too few samples beyond it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100.0 * count))
        beyond = count - rank
        if beyond >= min_beyond:
            return {
                "percentile": percentile,
                "value": ordered[rank - 1],
                "beyond": beyond,
            }
    return None


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles, tail percentile and sample count of ``samples``."""
    values: List[float] = list(samples)
    if not values:
        raise ValueError("no samples to summarize")
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "tail": tail_percentile(values),
    }
