"""Tests for fractal-dimension estimation and miss-ratio prediction."""

import numpy as np
import pytest

from repro.cache.fractal import (
    FractalFit,
    estimate_fractal_dimension,
    predict_miss_ratio,
)
from repro.cache.hierarchy import CacheLevelConfig
from repro.cache.simulator import CacheSimulator
from repro.cache.traces import sequential_trace, zipf_trace


class TestEstimation:
    def test_sweeping_walk_dimension_one(self):
        # Sequential trace: every reference is a new line -> u = R, D = 1.
        trace = sequential_trace(5_000, stride_bytes=64)
        fit = estimate_fractal_dimension(trace, line_bytes=64)
        assert fit.dimension == pytest.approx(1.0, abs=0.05)
        assert fit.r_squared > 0.999

    def test_zipf_walk_sticky(self, rng):
        trace = zipf_trace(50_000, 512 * 1024, rng=rng, skew=1.4)
        fit = estimate_fractal_dimension(trace, line_bytes=64)
        assert fit.dimension > 1.2  # reuse-heavy
        assert fit.r_squared > 0.95

    def test_higher_skew_higher_dimension(self):
        mild = zipf_trace(40_000, 512 * 1024,
                          rng=np.random.default_rng(1), skew=1.15)
        sticky = zipf_trace(40_000, 512 * 1024,
                            rng=np.random.default_rng(1), skew=2.2)
        d_mild = estimate_fractal_dimension(mild, 64).dimension
        d_sticky = estimate_fractal_dimension(sticky, 64).dimension
        assert d_sticky > d_mild

    def test_fit_evaluates(self):
        fit = FractalFit(W=2.0, dimension=1.25, r_squared=1.0, line_bytes=64)
        u = fit.unique_lines(10_000.0)
        assert u == pytest.approx(2.0 * 10_000.0 ** 0.8)

    def test_references_to_fill_inverts(self):
        fit = FractalFit(W=2.0, dimension=1.25, r_squared=1.0, line_bytes=64)
        R = fit.references_to_fill(1024)
        assert fit.unique_lines(R) == pytest.approx(1024.0, rel=1e-9)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="too short"):
            estimate_fractal_dimension(np.arange(5))
        with pytest.raises(ValueError, match="power of two"):
            estimate_fractal_dimension(np.arange(100), line_bytes=48)
        with pytest.raises(ValueError, match="out of range"):
            estimate_fractal_dimension(np.arange(100), checkpoints=[500])


class TestMissRatioPrediction:
    def test_sweeping_walk_always_misses(self):
        trace = sequential_trace(5_000, stride_bytes=64)
        fit = estimate_fractal_dimension(trace, line_bytes=64)
        assert predict_miss_ratio(fit, cache_lines=256) == pytest.approx(
            1.0, abs=0.05
        )

    def test_prediction_close_to_simulation_zipf(self, rng):
        # The [26] application: predict LRU miss ratio from D alone and
        # compare against the exact trace-driven simulator.
        trace = zipf_trace(80_000, 1 << 20, rng=rng, skew=1.4,
                           granule_bytes=64)
        line = 64
        fit = estimate_fractal_dimension(trace, line_bytes=line)
        config = CacheLevelConfig(size_bytes=256 * line, line_bytes=line,
                                  associativity=256)  # fully associative
        sim = CacheSimulator(config)
        measured = sim.access_trace(trace).miss_ratio
        predicted = predict_miss_ratio(fit, cache_lines=256)
        assert predicted == pytest.approx(measured, abs=0.15)

    def test_bigger_cache_lower_predicted_misses(self, rng):
        trace = zipf_trace(40_000, 512 * 1024, rng=rng, skew=1.3)
        fit = estimate_fractal_dimension(trace, line_bytes=64)
        small = predict_miss_ratio(fit, cache_lines=64)
        large = predict_miss_ratio(fit, cache_lines=4096)
        assert large < small

    def test_tiny_cache_saturates(self):
        fit = FractalFit(W=5.0, dimension=1.3, r_squared=1.0, line_bytes=64)
        assert predict_miss_ratio(fit, cache_lines=1) == 1.0

    def test_validation(self):
        fit = FractalFit(W=1.0, dimension=1.2, r_squared=1.0, line_bytes=64)
        with pytest.raises(ValueError):
            predict_miss_ratio(fit, cache_lines=0)
        with pytest.raises(ValueError):
            fit.references_to_fill(0)
