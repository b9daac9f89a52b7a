"""Unit tests for the statistics helpers (paper §4.1 methodology)."""

import math

import pytest

from repro.util.stats import (
    confidence_interval,
    geometric_mean,
    nearest_rank,
    normalize_series,
    summarize,
)


class TestSummarize:
    def test_mean_and_bounds(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.n == 5
        assert s.mean == pytest.approx(3.0)
        assert s.minimum == 1.0 and s.maximum == 5.0

    def test_stdev_matches_textbook(self):
        s = summarize([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert s.stdev == pytest.approx(2.138, abs=1e-3)

    def test_single_sample_has_zero_interval(self):
        s = summarize([42.0])
        assert s.mean == 42.0
        assert s.ci_halfwidth == 0.0

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ci_contains_mean(self):
        s = summarize([10.0, 12.0, 9.0, 11.0, 13.0])
        assert s.ci_low < s.mean < s.ci_high
        assert s.ci_high - s.mean == pytest.approx(s.ci_halfwidth)

    def test_ci_90_matches_t_table(self):
        # n=5, dof=4 -> t = 2.132; stdev of [1..5] = sqrt(2.5)
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        expected = 2.132 * math.sqrt(2.5) / math.sqrt(5)
        assert s.ci_halfwidth == pytest.approx(expected, rel=1e-3)

    def test_constant_sample(self):
        s = summarize([7.0] * 10)
        assert s.stdev == 0.0
        assert s.ci_halfwidth == 0.0

    def test_interval_shrinks_with_n(self):
        narrow = summarize([1.0, 2.0] * 50)
        wide = summarize([1.0, 2.0] * 2)
        assert narrow.ci_halfwidth < wide.ci_halfwidth

    def test_str_rendering(self):
        assert "n=3" in str(summarize([1.0, 2.0, 3.0]))


class TestTCritical:
    def test_z_fallback_beyond_table(self):
        from repro.util.stats import _T90, _Z90, _t_critical

        assert _t_critical(len(_T90)) == _T90[-1]
        assert _t_critical(len(_T90) + 1) == _Z90

    def test_table_matches_scipy(self):
        """Table-vs-exact parity: the embedded values are scipy's
        quantiles rounded to the table's precision."""
        scipy_stats = pytest.importorskip("scipy.stats")
        from repro.util.stats import _T90

        for dof, tabulated in enumerate(_T90, start=1):
            exact = float(scipy_stats.t.ppf(0.95, dof))
            assert tabulated == pytest.approx(exact, abs=2e-3), dof


class TestConfidenceInterval:
    def test_returns_low_high(self):
        lo, hi = confidence_interval([5.0, 6.0, 7.0])
        assert lo < 6.0 < hi


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])


class TestNormalize:
    def test_divides_by_baseline(self):
        assert normalize_series([2.0, 4.0], 2.0) == [1.0, 2.0]

    def test_zero_baseline_raises(self):
        with pytest.raises(ValueError):
            normalize_series([1.0], 0.0)


class TestNearestRank:
    """Edge cases of the integer nearest-rank percentile: the latency
    reports are built on it, so 0-/1-sample tiers must be handled
    loudly (raise) or exactly (single sample), never approximately."""

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50, 100)

    def test_single_sample_is_every_percentile(self):
        # ceil(1 * p) == 1 for any p in (0, 1]: the only sample is
        # simultaneously the p50, p99, p999 and p100.
        for numer, denom in ((1, 100), (50, 100), (99, 100),
                             (999, 1000), (1, 1)):
            assert nearest_rank([42], numer, denom) == 42

    def test_two_samples(self):
        assert nearest_rank([10, 20], 50, 100) == 10
        assert nearest_rank([10, 20], 99, 100) == 20

    def test_p100_is_max(self):
        assert nearest_rank([1, 2, 3], 100, 100) == 3
        assert nearest_rank([1, 2, 3], 1, 1) == 3

    def test_zero_percentile_raises(self):
        with pytest.raises(ValueError):
            nearest_rank([1, 2, 3], 0, 100)

    def test_over_100_percent_raises(self):
        with pytest.raises(ValueError):
            nearest_rank([1, 2, 3], 101, 100)

    def test_textbook_p50(self):
        # NIST example: nearest-rank p50 of n=4 is the 2nd value.
        assert nearest_rank([15, 20, 35, 50], 50, 100) == 20

    def test_no_float_drift_at_scale(self):
        # 10_000_000 * 999 / 1000 is exactly representable either way,
        # but (n * numer + denom - 1) // denom must stay pure-integer:
        # verify a rank where float rounding would misplace the index.
        n = 10_000_001
        samples = range(1, n + 1)
        rank = (n * 999 + 1000 - 1) // 1000
        assert nearest_rank(samples, 999, 1000) == rank
