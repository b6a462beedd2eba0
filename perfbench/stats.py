"""Statistics of the benchmark: medians, quartile spreads, the tail rule
and the regression bound check.

Quartiles are `statistics.quantiles(values, n=4)` (the exclusive method),
so spreads computed here match any other consumer of the same numbers.
"""

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("spread of values whose median is 0")
    return (q3 - q1) / abs(q2)


def nearest_rank(values, pct):
    """The nearest-rank `pct` percentile and how many samples lie beyond
    its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values):
    """The highest percentile of `TAIL_LADDER` with at least
    `TAIL_MIN_BEYOND` samples beyond it: (percentile, value).  Raises
    when even the median has too few samples beyond it."""
    best = None
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(values, pct)
        if beyond >= TAIL_MIN_BEYOND:
            best = (pct, value)
    if best is None:
        raise ValueError(
            f"{len(values)} samples support no tail percentile "
            f"(each needs {TAIL_MIN_BEYOND} beyond it)"
        )
    return best


def worsening(base, new, better):
    """How much worse `new` is than `base`, as a share of `base` (negative
    when it is better)."""
    if base == 0:
        raise ValueError("worsening relative to a base of 0")
    if better == "lower":
        return (new - base) / abs(base)
    if better == "higher":
        return (base - new) / abs(base)
    raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")


def within_bound(base, new, bound, better):
    """Whether `new` is no worse than `base` by more than `bound`."""
    return worsening(base, new, better) <= bound
