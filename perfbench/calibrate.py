"""Host-speed probes used to put end-to-end times on a fixed scale.

The benchmark shares its host with other tenants.  The same deterministic
work runs up to 40% slower or faster from one minute to the next, and CPU
time moves with wall time, so the slowdown is in the host, not in the
scheduler.  A probe is a fixed piece of pure-Python work that owes nothing
to the package: bitmask backtracking (N-queens), the same kind of
interpreter work as the kernels.

Timed work is cut into parts (graphs of a stream, parent expansions of the
level generator) and probed between blocks of parts; a call that cannot be
cut is bracketed by probes taken right before and right after it.  Dividing a time by the
probe median's ratio to REFERENCE_S gives reference seconds: the seconds it
would have taken on a host where the probe takes REFERENCE_S.  The raw
times and the factors are kept in the result file.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Median probe time on an idle 2.1 GHz Xeon core with CPython 3.11.
REFERENCE_S = 0.009
PROBES = 12  # before and again after a timed call that is not cut into parts
BLOCK = 10  # parts between probes
SIDE = 2  # probes on each side of a block whose median sets its slowdown


def _queens(n):
    full = (1 << n) - 1

    def walk(cols, d1, d2):
        if cols == full:
            return 1
        total = 0
        free = full & ~(cols | d1 | d2)
        while free:
            b = free & -free
            free ^= b
            total += walk(cols | b, ((d1 | b) << 1) & full, (d2 | b) >> 1)
        return total

    return walk(0, 0, 0)


def probe():
    """Seconds for one fixed piece of work."""
    t0 = perf_counter()
    for _ in range(4):
        if _queens(9) != 352:
            raise AssertionError("probe computed a wrong count")
    return perf_counter() - t0


def probes():
    return [probe() for _ in range(PROBES)]


def slowdown(samples):
    """Host slowdown against the reference: median probe / REFERENCE_S."""
    return statistics.median(samples) / REFERENCE_S


def block_slowdowns(samples):
    """Slowdown of each block between consecutive probes of a stream: the
    median of the SIDE probes on either side of it, over REFERENCE_S, so a
    lone probe hit by a burst of host load moves no block's slowdown."""
    out = []
    for block in range(len(samples) - 1):
        near = samples[max(0, block + 1 - SIDE):block + 1 + SIDE]
        out.append(statistics.median(near) / REFERENCE_S)
    return out

