"""Tests for batch means, CIs, and warm-up procedures."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from repro.analysis.stats import (
    _T_975,
    _t_critical,
    batch_means,
    batch_means_ci,
    relative_half_width,
    suggest_warmup_index,
    welch_moving_average,
)


class TestBatchMeans:
    def test_splits_evenly(self):
        obs = np.arange(40, dtype=float)
        means = batch_means(obs, n_batches=4)
        assert len(means) == 4
        assert means[0] == pytest.approx(np.mean(np.arange(10)))

    def test_drops_remainder(self):
        obs = np.arange(43, dtype=float)
        means = batch_means(obs, n_batches=4)
        assert len(means) == 4
        # Remainder (3 obs) ignored: last batch is obs[30:40].
        assert means[-1] == pytest.approx(np.mean(np.arange(30, 40)))

    def test_short_series_clamps_batch_count(self):
        # 3 observations, 4 batches requested: clamp to 3 one-obs batches.
        means = batch_means(np.arange(3, dtype=float), n_batches=4)
        assert list(means) == [0.0, 1.0, 2.0]

    def test_two_observations_still_work(self):
        means = batch_means(np.array([1.0, 3.0]), n_batches=20)
        assert list(means) == [1.0, 3.0]

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="too few"):
            batch_means(np.array([5.0]), n_batches=4)

    def test_needs_two_batches(self):
        with pytest.raises(ValueError):
            batch_means(np.arange(10, dtype=float), n_batches=1)


class TestBatchMeansCI:
    def test_ci_contains_true_mean_iid(self, rng):
        obs = rng.normal(100.0, 10.0, size=10_000)
        lo, hi = batch_means_ci(obs, n_batches=20)
        assert lo < 100.0 < hi
        assert hi - lo < 2.0  # tight at n=10k

    def test_coverage_rate_near_nominal(self):
        # 95% CI should contain the mean in ~95% of replications.
        hits = 0
        n_rep = 200
        for k in range(n_rep):
            obs = np.random.default_rng(k).normal(5.0, 2.0, size=800)
            lo, hi = batch_means_ci(obs, n_batches=16)
            hits += lo <= 5.0 <= hi
        assert hits / n_rep > 0.88

    def test_degenerate_inputs(self):
        assert batch_means_ci(np.array([])) == (0.0, 0.0)
        assert batch_means_ci(np.array([3.0])) == (3.0, 3.0)
        lo, hi = batch_means_ci(np.full(100, 7.0))
        assert lo == hi == 7.0

    def test_small_sample_falls_back(self):
        obs = np.array([1.0, 2.0, 3.0, 4.0])
        lo, hi = batch_means_ci(obs, n_batches=20)
        assert lo < 2.5 < hi

    def test_never_nan_for_any_short_series(self):
        # Regression: series shorter than n_batches used to be able to
        # reach NaN through downstream consumers; the CI is now always a
        # finite interval.
        for n in range(0, 45):
            lo, hi = batch_means_ci(np.arange(n, dtype=float), n_batches=20)
            assert math.isfinite(lo) and math.isfinite(hi)
            assert lo <= hi

    def test_nonfinite_observations_dropped(self):
        obs = np.array([1.0, math.nan, math.inf, 2.0, -math.inf, 3.0])
        lo, hi = batch_means_ci(obs)
        assert math.isfinite(lo) and math.isfinite(hi)
        assert lo <= 2.0 <= hi  # estimated from the finite subset {1,2,3}
        # all-non-finite input degrades to the zero interval, not NaN
        assert batch_means_ci(np.array([math.nan, math.inf])) == (0.0, 0.0)

    def test_memoized_t_quantile_is_bit_identical(self):
        for confidence in (0.90, 0.95, 0.99):
            q = 0.5 + confidence / 2.0
            for df in range(1, 201):
                expected = float(sps.t.ppf(q, df=df))
                assert _t_critical(q, df) == expected
                assert _t_critical(q, df) == expected  # the cached value

    def test_pinned_table_is_scipy_bit_for_bit(self):
        assert len(_T_975) == 38
        for df, value in enumerate(_T_975, start=1):
            assert value == float(sps.t.ppf(0.975, df=df)), df

    @pytest.mark.parametrize("n", [2, 3, 17, 39])
    def test_small_sample_ci_uses_scipys_quantile(self, n):
        # Below 40 observations the CI is a t-interval on the raw sample
        # at df = n - 1, read from the table.
        obs = np.random.default_rng(n).normal(5.0, 2.0, size=n)
        sem = float(obs.std(ddof=1) / math.sqrt(n))
        t = float(sps.t.ppf(0.975, df=n - 1))
        mean = float(obs.mean())
        assert batch_means_ci(obs) == (mean - t * sem, mean + t * sem)

    def test_ci_uses_the_direct_t_quantile(self):
        obs = np.random.default_rng(3).normal(5.0, 2.0, size=400)
        means = batch_means(obs, 20)
        sem = float(means.std(ddof=1) / math.sqrt(20))
        t = float(sps.t.ppf(0.975, df=19))
        mean = float(means.mean())
        assert batch_means_ci(obs, 20) == (mean - t * sem, mean + t * sem)


class TestRelativeHalfWidth:
    def test_decreases_with_sample_size(self, rng):
        small = relative_half_width(rng.normal(10, 2, 200))
        large = relative_half_width(rng.normal(10, 2, 20_000))
        assert large < small

    def test_empty_is_inf(self):
        assert relative_half_width(np.array([])) == math.inf

    def test_zero_mean_is_inf(self):
        assert relative_half_width(np.zeros(100)) == math.inf

    def test_nonfinite_series_is_inf_not_nan(self):
        # Saturated sweep points report inf delays; the stopping criterion
        # must degrade to "no precision" rather than NaN.
        assert relative_half_width(np.array([math.inf, math.inf])) == math.inf
        assert relative_half_width(np.full(10, math.nan)) == math.inf

    def test_short_series_is_finite(self):
        value = relative_half_width(np.array([9.0, 10.0, 11.0]), n_batches=20)
        assert math.isfinite(value) and value > 0.0


class TestWelch:
    def test_moving_average_smooths(self, rng):
        noisy = rng.normal(0, 1, 500) + 10.0
        smooth = welch_moving_average(noisy, window=20)
        assert smooth.std() < noisy.std()
        assert len(smooth) == len(noisy)

    def test_endpoint_windows_shrink(self):
        obs = np.arange(10, dtype=float)
        smooth = welch_moving_average(obs, window=3)
        assert smooth[0] == obs[0]  # window of size 1 at the edge
        assert smooth[-1] == obs[-1]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            welch_moving_average(np.arange(5.0), window=0)

    def test_warmup_index_detects_transient(self, rng):
        # Exponential transient decaying into a stationary level.
        n = 2000
        transient = 50.0 * np.exp(-np.arange(n) / 100.0)
        obs = 100.0 + transient + rng.normal(0, 1.0, n)
        idx = suggest_warmup_index(obs, window=25, tolerance=0.02)
        assert 100 < idx < 1200

    def test_warmup_index_stationary_series(self, rng):
        obs = 10.0 + rng.normal(0, 0.01, 500)
        assert suggest_warmup_index(obs) < 50

    def test_warmup_index_tiny_series(self):
        assert suggest_warmup_index(np.arange(5.0)) == 0
