"""Medians and quartiles, computed the way the benchmark driver computes them."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, sample count and inter-quartile spread as a share
    of the median (the number a metric's bound is compared with)."""
    q1, median, q3 = quartiles(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": spread}


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when there are none)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]
