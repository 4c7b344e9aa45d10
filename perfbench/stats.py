"""Order statistics for benchmark samples.

Percentiles use the nearest-rank definition: the q-th percentile of n
samples is the sample at rank ``ceil(q * n / 100)`` of the ascending
order.  A tail percentile is only worth reporting when enough samples
lie beyond it; :func:`tail_percentile` enforces the rule of at least
ten.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a percentile's rank before it is reported.
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    if n < 1:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q!r}")
    # Exact arithmetic: 0.99 * 1000 must give rank 990, not 991.
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank q-th percentile of ``values``."""
    return sorted(values)[_rank(q, len(values)) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the q-th percentile."""
    return n - _rank(q, n)


def tail_percentile(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The q-th percentile, or ``None`` when fewer than ``min_beyond``
    samples lie beyond it (the tail is then not resolved)."""
    if not values or samples_beyond(len(values), q) < min_beyond:
        return None
    return nearest_rank(values, q)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and interquartile distance as a share of the median, the
    way :func:`statistics.quantiles` cuts quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "iqr_share": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr_share": (q3 - q1) / median if median else 0.0}
