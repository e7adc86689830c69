"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # samples a reported tail percentile needs past it


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile of ``values`` (0 < p < 100).

    The median is always defined. Any other percentile is refused with
    ValueError unless at least MIN_BEYOND samples lie beyond it on the tail
    side: a p99 over 500 samples rests on 5 values and is no tail estimate.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile {p} outside (0, 100)")
    if p == 50.0:
        return float(statistics.median(xs))
    rank = math.ceil(p / 100.0 * n)  # 1-based nearest rank
    beyond = n - rank if p > 50.0 else rank - 1
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} over {n} samples has {beyond} beyond it; need {MIN_BEYOND}"
        )
    return float(xs[rank - 1])


def median(values) -> float:
    return percentile(values, 50.0)
