"""The exact order statistic for LATTester's per-access tails.

:func:`percentile` is the exact **nearest-rank** percentile of a
sorted sample — the statistic behind Figure 3's per-access tail
latencies: the p-th percentile of n sorted samples is the element at
rank ``ceil(n * p)`` (1-based), i.e. the smallest sample such that at
least ``p`` of the distribution is at or below it.  Serving reports do
not sort samples: they read per-request percentiles from the
recorder's histogram (``obs.hist``), which uses the same rank
convention.

The previous ad-hoc version indexed ``int(n * p)``, which is a
0-based *upper* neighbour: for even n it returned the element *above*
the median (p50 of ``[1, 2, 3, 4]`` came back 3, not 2), and for
extreme percentiles it aliased the maximum one rank early (p99.999 of
100 000 samples returned ``max`` instead of the second-largest).
"""

import math


def percentile(sorted_samples, p):
    """Nearest-rank percentile of an ascending-sorted sequence.

    ``p`` is a fraction in ``[0, 1]``.  ``p=0`` returns the minimum,
    ``p=1`` the maximum; ranks are clamped to the valid range so tiny
    samples never index out of bounds.
    """
    n = len(sorted_samples)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError("percentile fraction must be in [0, 1], got %r"
                         % (p,))
    rank = math.ceil(n * p)          # 1-based nearest rank
    if rank < 1:
        rank = 1
    elif rank > n:
        rank = n
    return sorted_samples[rank - 1]


__all__ = ["percentile"]
