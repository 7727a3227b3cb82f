"""Deterministic log-linear latency histograms (HdrHistogram-style).

The always-on recorder needs a latency sketch that is

* **cheap** — classifying a value is one ``frexp`` plus integer
  arithmetic, no search;
* **fixed** — bucket boundaries depend only on the value, never on the
  data seen so far, so two histograms built on different workers (or
  different hosts) agree bucket-for-bucket;
* **exactly mergeable** — a merge is integer addition of sparse count
  dicts: associative, commutative, lossless.  Merging the per-client
  histograms of a ``--jobs 4`` run gives byte-identically the
  histogram a serial run records.

The scheme is the log-linear one HdrHistogram popularized: the value's
binary exponent picks a major bucket, and ``SUB_BUCKETS`` linear
sub-buckets split each power of two.  With 32 sub-buckets every bucket
spans at most ``1/32`` (3.125%) of its value, so any quantile read
from bucket midpoints is within ±1.6% of the exact sample — the bound
the obs tests enforce against exact-sample percentiles.

Everything is pure Python floats/ints on virtual-time nanoseconds;
there is no wall clock and no randomness anywhere in this module.
"""

from math import ceil, frexp

#: Linear sub-buckets per power of two (must be a power of two).
SUB_BUCKETS = 32
_SHIFT = 5                    # log2(SUB_BUCKETS)
#: Offset added to the binary exponent so indexes stay positive for
#: any representable positive double (exponents reach -1074).
_E_OFFSET = 1100

#: Index 0 is reserved for values <= 0 (a latency can legitimately be
#: 0.0 when a request completes in the same virtual instant).
ZERO_BUCKET = 0


def bucket_index(value):
    """The fixed bucket index of ``value`` (virtual ns, float).

    ``frexp`` gives ``value = m * 2**e`` with ``m in [0.5, 1)``; the
    sub-bucket is the linear position of ``m`` inside that octave.
    """
    if value <= 0.0:
        return ZERO_BUCKET
    m, e = frexp(value)
    return ((e + _E_OFFSET) << _SHIFT) + int((m - 0.5) * (2.0 * SUB_BUCKETS))


def bucket_bounds(index):
    """The ``[lo, hi)`` value range of a bucket index."""
    if index == ZERO_BUCKET:
        return (0.0, 0.0)
    e = (index >> _SHIFT) - _E_OFFSET
    sub = index & (SUB_BUCKETS - 1)
    base = 2.0 ** (e - 1)
    width = base / SUB_BUCKETS
    lo = base + sub * width
    return (lo, lo + width)


def bucket_midpoint(index):
    """The representative value of a bucket (its midpoint)."""
    lo, hi = bucket_bounds(index)
    return (lo + hi) / 2.0


class LatencyHistogram:
    """A sparse log-linear histogram with exact merge.

    Counts live in a plain ``{index: count}`` dict; only touched
    buckets exist, so a quick run's histogram is a handful of entries.
    """

    __slots__ = ("counts",)

    def __init__(self, counts=None):
        self.counts = dict(counts) if counts else {}

    # -- recording ----------------------------------------------------

    def record(self, value):
        idx = bucket_index(value)
        counts = self.counts
        counts[idx] = counts.get(idx, 0) + 1

    def record_many(self, values):
        """Bulk fold an iterable of values (the post-loop ingest path)."""
        counts = self.counts
        for value in values:
            if value <= 0.0:
                idx = ZERO_BUCKET
            else:
                m, e = frexp(value)
                idx = ((e + _E_OFFSET) << _SHIFT) \
                    + int((m - 0.5) * (2.0 * SUB_BUCKETS))
            counts[idx] = counts.get(idx, 0) + 1

    # -- merging ------------------------------------------------------

    def merge(self, other):
        """Add ``other``'s counts into this histogram (exact)."""
        counts = self.counts
        for idx, n in other.counts.items():
            counts[idx] = counts.get(idx, 0) + n
        return self

    def copy(self):
        return LatencyHistogram(self.counts)

    # -- queries ------------------------------------------------------

    def total(self):
        return sum(self.counts.values())

    def percentile(self, frac):
        """Nearest-rank percentile, read from bucket midpoints.

        Matches :func:`repro.lattester.stats.percentile`'s rank
        convention (1-based ``ceil(n * p)``), so the histogram answer
        for a quantile lands in the same bucket as the exact sample.
        """
        total = self.total()
        if total == 0:
            return 0.0
        rank = ceil(total * frac)
        if rank < 1:
            rank = 1
        elif rank > total:
            rank = total
        cumulative = 0
        for idx in sorted(self.counts):
            cumulative += self.counts[idx]
            if cumulative >= rank:
                return bucket_midpoint(idx)
        return bucket_midpoint(max(self.counts))

    def max_value(self):
        """Upper bound of the highest occupied bucket (0.0 if empty)."""
        if not self.counts:
            return 0.0
        return bucket_bounds(max(self.counts))[1]

    # -- serialization ------------------------------------------------

    def to_dict(self):
        """JSON-able form; count keys are strings for strict JSON."""
        return {
            "sub_buckets": SUB_BUCKETS,
            "counts": {str(idx): self.counts[idx]
                       for idx in sorted(self.counts)},
        }

    @classmethod
    def from_dict(cls, data):
        if data.get("sub_buckets") != SUB_BUCKETS:
            raise ValueError(
                "histogram recorded with sub_buckets=%r; this build "
                "uses %d" % (data.get("sub_buckets"), SUB_BUCKETS))
        return cls({int(idx): int(n)
                    for idx, n in data.get("counts", {}).items()})

    def __len__(self):
        return len(self.counts)

    def __eq__(self, other):
        return isinstance(other, LatencyHistogram) \
            and self.counts == other.counts
