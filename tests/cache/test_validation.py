"""Tests for the fit-and-compare validation pipeline."""

import numpy as np
import pytest

from repro.cache.footprint import MVS_WORKLOAD, FootprintFunction
from repro.cache.hierarchy import R4400_L1D
from repro.cache.traces import uniform_trace, zipf_trace
from repro.cache.validation import (
    FootprintSample,
    compare_flush_model,
    fit_footprint_constants,
    measure_footprint_samples,
)


class TestMeasureSamples:
    def test_counts_unique_lines(self, rng):
        trace = np.array([0, 16, 32, 48, 0, 16], dtype=np.int64)
        samples = measure_footprint_samples(trace, [4, 6], [16, 32])
        by_key = {(s.references, s.line_bytes): s.unique_lines for s in samples}
        assert by_key[(4, 16)] == 4   # 0,16,32,48 are distinct 16B lines
        assert by_key[(6, 16)] == 4
        assert by_key[(4, 32)] == 2   # lines {0,1}
        assert by_key[(6, 32)] == 2

    def test_validates_line_size(self, rng):
        with pytest.raises(ValueError, match="power of two"):
            measure_footprint_samples(np.arange(10), [5], [48])

    def test_validates_reference_counts(self):
        with pytest.raises(ValueError, match="out of range"):
            measure_footprint_samples(np.arange(10), [11], [16])


class TestFit:
    def test_recovers_exact_model_generated_samples(self):
        # Generate synthetic u values straight from a known constant set;
        # the least-squares fit must recover the constants (exact linear
        # system in log space).
        truth = FootprintFunction(W=1.8, a=0.05, b=0.8, log10_d=-0.1)
        samples = []
        for L in (16, 32, 128):
            for R in (10**3, 10**4, 10**5, 10**6):
                samples.append(FootprintSample(
                    references=R, line_bytes=L,
                    unique_lines=int(round(truth.unique_lines(R, L))),
                ))
        fitted = fit_footprint_constants(samples)
        assert fitted.W == pytest.approx(truth.W, rel=0.05)
        assert fitted.a == pytest.approx(truth.a, abs=0.02)
        assert fitted.b == pytest.approx(truth.b, abs=0.02)
        assert fitted.log10_d == pytest.approx(truth.log10_d, abs=0.02)

    def test_fits_zipf_trace_reasonably(self, rng):
        trace = zipf_trace(40_000, 128 * 1024, rng=rng, skew=1.3)
        checkpoints = [100, 1000, 10_000, 40_000]
        samples = measure_footprint_samples(trace, checkpoints, (16, 32, 128))
        fitted = fit_footprint_constants(samples)
        # Every sample within 40% (power-law form is approximate for Zipf).
        for s in samples:
            u = fitted.unique_lines(s.references, s.line_bytes)
            assert u == pytest.approx(s.unique_lines, rel=0.4)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_footprint_constants([
                FootprintSample(10, 16, 5),
            ])

    def test_requires_spanning_samples(self):
        samples = [FootprintSample(10, 16, 5), FootprintSample(20, 16, 9),
                   FootprintSample(40, 16, 15), FootprintSample(80, 16, 25)]
        with pytest.raises(ValueError, match="span"):
            fit_footprint_constants(samples)


class TestCompareFlush:
    def test_agreement_on_zipf_trace(self, rng):
        # For a power-law-locality trace (the family the SST form models),
        # fit then compare: analytic and simulated flush fractions agree.
        # The footprint must be address-disjoint from the displacing
        # stream (the model's independence assumption): otherwise the
        # displacing trace re-warms footprint lines it shares.
        ws = 256 * 1024
        trace = zipf_trace(40_000, ws, rng=rng, skew=1.3)
        checkpoints = [300, 1000, 3000, 10_000, 40_000]
        samples = measure_footprint_samples(trace, checkpoints, (16, 32, 128))
        fitted = fit_footprint_constants(samples)
        footprint = uniform_trace(1500, 8192, rng=rng, base_address=1 << 24)
        displacing = zipf_trace(40_000, ws, rng=rng, skew=1.3)
        cmp = compare_flush_model(R4400_L1D, fitted, footprint, displacing,
                                  checkpoints)
        assert cmp.mean_abs_error < 0.08
        assert cmp.max_abs_error < 0.15

    def test_uniform_trace_sanity(self, rng):
        # The SST power law only approximates a uniform trace's
        # coupon-collector saturation; require loose agreement only.
        ws = 64 * 1024
        trace = uniform_trace(30_000, ws, rng=rng)
        checkpoints = [300, 1000, 3000, 10_000, 30_000]
        samples = measure_footprint_samples(trace, checkpoints, (16, 32, 128))
        fitted = fit_footprint_constants(samples)
        footprint = uniform_trace(1500, 8192, rng=rng, base_address=1 << 24)
        displacing = uniform_trace(30_000, ws, rng=rng)
        cmp = compare_flush_model(R4400_L1D, fitted, footprint, displacing,
                                  checkpoints)
        assert cmp.max_abs_error < 0.3

    def test_checkpoint_validation(self, rng):
        footprint = uniform_trace(10, 512, rng=rng)
        displacing = uniform_trace(100, 4096, rng=rng)
        with pytest.raises(ValueError, match="out of range"):
            compare_flush_model(R4400_L1D, MVS_WORKLOAD, footprint,
                                displacing, [101])

    def test_empty_comparison_stats(self):
        from repro.cache.validation import FlushComparison
        c = FlushComparison((), (), ())
        assert c.max_abs_error == 0.0
        assert c.mean_abs_error == 0.0

    def test_monotone_measured_fractions(self, rng):
        footprint = uniform_trace(800, 4096, rng=rng)
        displacing = uniform_trace(20_000, 64 * 1024, rng=rng)
        checkpoints = [0, 100, 1000, 10_000, 20_000]
        cmp = compare_flush_model(R4400_L1D, MVS_WORKLOAD, footprint,
                                  displacing, checkpoints)
        measured = list(cmp.measured)
        assert measured == sorted(measured)
