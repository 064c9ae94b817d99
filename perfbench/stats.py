"""Order statistics used by the benchmark and by ``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that leaves at
    least ten samples beyond it.  With fewer than eleven samples no such
    percentile exists; the maximum is returned with percentile 100, and
    the sample count printed beside it says how much it is worth."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return float(ordered[-1]), 100.0
    k = n - 11  # exactly ten samples lie above ordered[k]
    return float(ordered[k]), 100.0 * (k + 1) / n


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
