"""The tail-latency rule shared by the benchmark driver and its self-tests."""

from __future__ import annotations

# A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values):
    """(value, percentile, beyond) for the highest percentile that leaves at
    least TAIL_BEYOND samples above it.

    With n sorted samples, the k-th smallest (1-based) has n - k samples
    beyond it, so the highest qualifying rank is k = n - TAIL_BEYOND and its
    percentile is 100 * k / n.  With too few samples no percentile qualifies;
    the maximum is returned with percentile 100 and its true beyond count 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    k = n - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0, 0
    return ordered[k - 1], 100.0 * k / n, n - k

