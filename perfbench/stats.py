"""Order statistics for the benchmark's timings.

Percentiles use the nearest-rank rule: the q-th percentile of n sorted
samples is the sample at rank ceil(q/100 * n), so it is always a value
that was measured and exactly n - rank samples lie beyond it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    # round() first: 90 / 100 * 100 is 90.00000000000001 in binary
    # floating point, which ceil would push one rank too far.
    return max(1, math.ceil(round(q / 100 * n, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly beyond the q-th percentile's
    rank (a percentile is trustworthy when this is at least 10)."""
    return n - rank(n, q)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)
