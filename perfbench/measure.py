"""Summary statistics shared by the benchmark's runner and its self-tests.

Timings are reported as a median plus the highest percentile of a fixed
ladder that still has at least ``MIN_BEYOND`` samples beyond it, so a
tail figure is never read off one or two outliers.  The chosen
percentile and its sample count travel with the value.
"""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first: p99/p95/p90, with p75
#: and p50 extending the ladder for workloads that deliver too
#: few answers for p90 (fewer than 100 delays).
TAIL_LADDER = (99, 95, 90, 75, 50)

#: A tail percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10


def median(values):
    """The median of a non-empty sequence."""
    return statistics.median(values)


def nearest_rank(ordered, pct):
    """The ``pct``-th percentile of sorted ``ordered`` (nearest-rank)."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """Pick the highest ladder percentile with ``min_beyond`` samples past it.

    Returns ``(pct, value, beyond)``.  With fewer samples than any rung
    needs, the maximum is returned as ``(100, max, 0)`` so the caller
    still gets a number and can see that it rests on no tail at all.
    """
    if not samples:
        raise ValueError("tail_percentile needs at least one sample")
    ordered = sorted(samples)
    for pct in ladder:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= min_beyond:
            return pct, value, beyond
    return 100, ordered[-1], 0


def pooled_tail(groups, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """The tail of several equal-sized sample groups, pooled.

    The percentile is the one :func:`tail_percentile` picks for a single
    group (the first), so it does not change with the number of groups a
    run fits in; its value is read off all groups' samples together.
    Returns ``(pct, value, beyond)`` with ``beyond`` counted in the pool.
    """
    pct = tail_percentile(groups[0], ladder, min_beyond)[0]
    pooled = sorted(sample for group in groups for sample in group)
    if pct == 100:
        return pct, pooled[-1], 0
    value, beyond = nearest_rank(pooled, pct)
    return pct, value, beyond


def relative_spread(values):
    """Interquartile distance as a share of the median (``quantiles(n=4)``)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (q3 - q1) / centre if centre else math.inf
