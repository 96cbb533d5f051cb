"""Summary statistics the benchmark reports.

Timings are summarised as a median plus the *tail*: the highest
percentile of a fixed ladder that still has at least ten samples beyond
it, so a tail is never read off a handful of points.  Each workload pins
its tail percentile once, from the number of samples every run of it is
guaranteed to collect (:func:`supported_percentile`), so every run --
and every commit -- reports the same percentile; the run then reports
the sample count beyond it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a percentile for it to count as resolved.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """One tail percentile: its value, rank and support."""

    percentile: float
    value: float
    #: samples strictly beyond the percentile's rank
    beyond: int
    #: False when fewer than ``MIN_BEYOND`` samples lie beyond it
    resolved: bool


def nearest_rank(n: int, percentile: float) -> int:
    """1-based nearest-rank index of ``percentile`` among ``n`` samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    # work in tenths of a percent so 99.9 stays exact
    tenths = int(round(percentile * 10))
    return max(1, -(-n * tenths // 1000))


def supported_percentile(n: int) -> float:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it
    among ``n`` samples (the median when none is: fewer than 20)."""
    for p in TAIL_LADDER:
        if n - nearest_rank(n, p) >= MIN_BEYOND:
            return p
    return 50.0


def samples_for(percentile: float) -> int:
    """The fewest samples that leave ``MIN_BEYOND`` beyond ``percentile``."""
    n = 1
    while n - nearest_rank(n, percentile) < MIN_BEYOND:
        n += 1
    return n


def tail(samples: Sequence[float], percentile: float) -> Tail:
    """``percentile`` of ``samples`` and how many samples lie beyond it.

    Uses the nearest-rank definition: the p-th percentile of ``n`` sorted
    samples is the one at rank ``ceil(n * p / 100)``, and the samples
    beyond it are the ``n - rank`` above that rank.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = nearest_rank(n, percentile)
    return Tail(percentile, ordered[rank - 1], n - rank, n - rank >= MIN_BEYOND)


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample (0.0 for an empty one)."""
    return float(statistics.median(samples)) if samples else 0.0


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean of a sample (0.0 for an empty one)."""
    return float(statistics.fmean(samples)) if samples else 0.0

