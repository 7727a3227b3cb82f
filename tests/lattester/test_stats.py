"""Tests for the shared nearest-rank percentile helper.

Regression tests for the off-by-one the old ad-hoc ``_percentile``
had: ``int(n * p)`` *rounds the rank down* and over-reads by one
element (p50 of [1,2,3,4] returned 3, and p100 could index past the
end but for its clamp).  Nearest-rank is ``ceil(n * p)`` 1-based.
"""

import pytest

from repro.lattester import percentile


class TestPercentile:
    def test_single_sample(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.999) == 7.0

    def test_two_samples(self):
        assert percentile([1.0, 2.0], 0.5) == 1.0     # ceil(1.0) = rank 1
        assert percentile([1.0, 2.0], 0.51) == 2.0    # ceil(1.02) = rank 2

    def test_even_n_median(self):
        # The historical bug: int(4 * 0.5) = index 2 -> 3.0.
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_exact_rank_boundaries(self):
        data = [float(i) for i in range(1, 11)]
        assert percentile(data, 0.1) == 1.0
        assert percentile(data, 0.9) == 9.0
        assert percentile(data, 0.91) == 10.0
        assert percentile(data, 1.0) == 10.0

    def test_extreme_p_does_not_alias_max(self):
        # 100k samples: p99999 must pick rank 99999, not the maximum.
        n = 100_000
        data = [float(i) for i in range(1, n + 1)]
        assert percentile(data, 0.99999) == 99999.0
        assert percentile(data, 1.0) == float(n)

    def test_tiny_p_clamps_to_first(self):
        assert percentile([5.0, 6.0, 7.0], 1e-9) == 5.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_p_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 1.1)


class TestTailUsesSharedHelper:
    def test_tail_results_consistent(self):
        from repro.lattester.tail import hotspot_tail

        result = hotspot_tail(ops=2000)
        assert result.p50_ns <= result.p999_ns <= result.p9999_ns
        assert result.p9999_ns <= result.p99999_ns <= result.max_ns
