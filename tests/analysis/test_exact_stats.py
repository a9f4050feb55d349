"""Oracle tests: the lean statistics equal NumPy's own calls bit for bit.

``linear_percentiles`` must reproduce ``np.percentile`` and
``batch_means_ci`` its historical ``.mean()``/``.std(ddof=1)`` form
exactly — summaries are golden-pinned at rtol 0, so "close" is a
regression.
"""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import stats as sps

from repro.analysis.stats import batch_means, batch_means_ci, linear_percentiles

#: Row counts around every edge: one row, the 8-value pairwise-sum block,
#: the 2 * n_batches fallback threshold, the 128-value pairwise-sum
#: unroll, and a long run.
SIZES = (1, 2, 8, 9, 39, 40, 41, 128, 129, 10_000)

PERCENTS = (50.0, 95.0, 99.0)


def bits(x):
    """Exact identity: the float's bytes (NaN compared as NaN)."""
    return "nan" if math.isnan(x) else np.float64(x).tobytes()


def reference_ci(observations, n_batches=20, confidence=0.95):
    """``batch_means_ci`` as written with NumPy's ``.mean()``/``.std()``."""
    obs = np.asarray(observations, dtype=np.float64)
    obs = obs[np.isfinite(obs)]
    if len(obs) == 0:
        return (0.0, 0.0)
    if len(obs) == 1:
        return (float(obs[0]), float(obs[0]))
    if len(obs) < 2 * n_batches:
        sample = obs
    else:
        size = len(obs) // n_batches
        sample = obs[:size * n_batches].reshape(n_batches, size).mean(axis=1)
    mean = float(sample.mean())
    sem = float(sample.std(ddof=1) / math.sqrt(len(sample)))
    if sem == 0.0:
        return (mean, mean)
    t = float(sps.t.ppf(0.5 + confidence / 2.0, df=len(sample) - 1))
    return (mean - t * sem, mean + t * sem)


def samples(n, seed):
    """Three shapes of ``n`` values: spread over 1e-3..1e6, heavy ties,
    and exponential delays."""
    rng = np.random.default_rng(seed)
    return (
        10.0 ** rng.uniform(-3.0, 6.0, n),
        rng.integers(0, 4, n).astype(np.float64) * 2.5,
        rng.exponential(250.0, n),
    )


def assert_matches_numpy(x):
    got = linear_percentiles(x, PERCENTS)
    want = np.percentile(x, PERCENTS).tolist()
    assert [bits(v) for v in got] == [bits(v) for v in want]


finite_values = st.lists(
    st.one_of(
        st.floats(min_value=1e-3, max_value=1e6),
        st.sampled_from([1e-3, 1.0, 7.25, 1e6]),  # ties
    ),
    min_size=1, max_size=300,
)


class TestLinearPercentiles:
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_np_percentile(self, n):
        for x in samples(n, seed=n):
            assert_matches_numpy(x)

    @given(finite_values)
    @settings(max_examples=300, deadline=None)
    def test_equals_np_percentile_hypothesis(self, values):
        assert_matches_numpy(np.array(values))

    @given(finite_values, st.lists(st.floats(min_value=0.0, max_value=100.0),
                                   min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_any_percent(self, values, percents):
        x = np.array(values)
        got = linear_percentiles(x, percents)
        want = np.percentile(x, percents).tolist()
        assert [bits(v) for v in got] == [bits(v) for v in want]

    def test_clamps_at_the_maximum(self):
        x = np.array([3.0, 1.0, 2.0])
        assert linear_percentiles(x, (100.0,)) == [3.0]
        assert linear_percentiles(np.array([4.0]), PERCENTS) == [4.0] * 3

    def test_nan_propagates_like_numpy(self):
        x = np.array([1.0, np.nan, 3.0, 2.0])
        got = linear_percentiles(x, PERCENTS)
        assert all(math.isnan(v) for v in got)
        assert np.isnan(np.percentile(x, PERCENTS)).all()

    def test_infinite_maximum_like_numpy(self):
        # inf - inf: NumPy's interpolation yields NaN above the maximum's
        # neighbour, and so must the replay.
        with np.errstate(invalid="ignore"):
            assert_matches_numpy(np.array([1.0, 2.0, np.inf]))

    def test_input_not_modified(self):
        x = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        linear_percentiles(x, PERCENTS)
        assert x.tolist() == [5.0, 1.0, 4.0, 2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            linear_percentiles(np.array([]), PERCENTS)


class TestExactBatchMeansCI:
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_mean_std_form(self, n):
        for x in samples(n, seed=1000 + n):
            got = batch_means_ci(x)
            assert [bits(v) for v in got] == [bits(v) for v in reference_ci(x)]

    @given(finite_values, st.integers(min_value=2, max_value=30))
    @settings(max_examples=300, deadline=None)
    def test_equals_mean_std_form_hypothesis(self, values, n_batches):
        x = np.array(values)
        got = batch_means_ci(x, n_batches=n_batches)
        want = reference_ci(x, n_batches=n_batches)
        assert [bits(v) for v in got] == [bits(v) for v in want]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("n", (1, 2, 41, 129))
    def test_nonfinite_filter(self, bad, n):
        x = samples(n, seed=n)[0]
        x[:: max(1, n // 3)] = bad
        got = batch_means_ci(x)
        assert [bits(v) for v in got] == [bits(v) for v in reference_ci(x)]

    def test_all_nonfinite(self):
        assert batch_means_ci(np.array([np.nan, np.inf, -np.inf])) == (0.0, 0.0)

    @pytest.mark.parametrize("n", (40, 41, 128, 129, 10_000))
    def test_batch_means_equal_mean_axis1(self, n):
        x = samples(n, seed=7 + n)[0]
        size = n // 20
        want = x[:size * 20].reshape(20, size).mean(axis=1)
        assert batch_means(x).tobytes() == want.tobytes()
