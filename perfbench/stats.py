"""Statistics helpers shared by run.py and aa.py.

Timings are reported as a median plus the highest percentile that
still has at least ten samples beyond it; `percentile` refuses any
percentile with fewer, so a tail figure is never read off a handful of
samples.
"""

import math
import statistics

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples beyond it."""


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile `q` (0 < q < 1) of `samples`.

    Raises TooFewSamples unless at least `min_beyond` samples lie
    strictly beyond the chosen rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile {q} outside (0, 1)")
    n = len(samples)
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    beyond = n - rank
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {beyond} beyond it, "
            f"need {min_beyond}")
    return sorted(samples)[rank - 1]


def highest_percentile(samples, candidates=(0.999, 0.99, 0.95, 0.9, 0.5)):
    """(q, value) for the highest candidate percentile `samples` supports,
    or None when even the median has too few samples beyond it."""
    for q in candidates:
        try:
            return q, percentile(samples, q)
        except TooFewSamples:
            continue
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def split_ticks(rows):
    """Splits hooked tick rows [wall_ns, actions, triggers] into the wall
    times of quiet ticks (no action executed) and action ticks."""
    quiet, action = [], []
    for wall_ns, actions, _triggers in rows:
        (action if actions > 0 else quiet).append(wall_ns)
    return quiet, action


def worse_by(parent_median, child_median, better):
    """Share by which `child_median` is worse than `parent_median`
    (negative when it is better)."""
    if parent_median == 0:
        return 0.0 if child_median == 0 else math.inf
    change = (child_median - parent_median) / parent_median
    return change if better == "lower" else -change


def median(values):
    return statistics.median(values)
