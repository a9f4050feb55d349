"""Tests for the set-occupancy flush model."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.flush import (
    flushed_fraction,
    flushed_fraction_poisson,
    survival_fraction,
)


class TestDirectMapped:
    def test_matches_closed_form(self):
        # F = 1 - (1 - 1/S)^n for direct-mapped caches (the paper's case).
        S, n = 512, 700.0
        expected = 1.0 - (1.0 - 1.0 / S) ** n
        assert flushed_fraction(n, S, 1) == pytest.approx(expected, rel=1e-12)

    def test_zero_intervening_lines(self):
        assert flushed_fraction(0.0, 512, 1) == 0.0

    def test_saturates_to_one(self):
        assert flushed_fraction(1e9, 512, 1) == pytest.approx(1.0)

    def test_single_set_cache(self):
        # One direct-mapped set: any single line flushes everything.
        assert flushed_fraction(1.0, 1, 1) == pytest.approx(1.0)

    def test_fractional_lines_continuous(self):
        a = flushed_fraction(10.0, 512, 1)
        b = flushed_fraction(10.5, 512, 1)
        c = flushed_fraction(11.0, 512, 1)
        assert a < b < c


class TestSetAssociative:
    def test_zero_below_associativity(self):
        # Fewer intervening lines than ways cannot evict under LRU.
        assert flushed_fraction(1.0, 128, 2) == 0.0
        assert flushed_fraction(3.0, 128, 4) == 0.0

    def test_higher_associativity_flushes_less(self):
        n = 1000.0
        f1 = flushed_fraction(n, 256, 1)
        f2 = flushed_fraction(n, 256, 2)
        f4 = flushed_fraction(n, 256, 4)
        assert f1 > f2 > f4

    def test_binomial_tail_identity(self):
        # P(X >= 2) = 1 - P(0) - P(1) for Binomial(n, p), small n exact.
        S, n, A = 8, 12, 2
        p = 1.0 / S
        expected = 1.0 - (1 - p) ** n - n * p * (1 - p) ** (n - 1)
        assert flushed_fraction(float(n), S, A) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("A", [2, 4])
    def test_equals_the_incomplete_beta_expression(self, A):
        from scipy import special
        n = np.array([0.0, 1.0, 3.0, 4.0, 17.5, 1000.0, 2.5e6])
        S = 512
        expected = np.clip(np.where(
            n > A - 1,
            special.betainc(A, np.maximum(n - A + 1.0, 1e-12), 1.0 / S),
            0.0), 0.0, 1.0)
        assert np.array_equal(flushed_fraction(n, S, A), expected)
        assert flushed_fraction(1000.0, S, A) == float(expected[5])


class TestPoissonLimit:
    def test_close_to_binomial_for_small_p(self):
        n, S = 5000.0, 4096
        exact = flushed_fraction(n, S, 1)
        approx = flushed_fraction_poisson(n, S, 1)
        assert approx == pytest.approx(exact, abs=1e-3)

    def test_poisson_assoc_form(self):
        from scipy import special
        n, S, A = 5000.0, 512, 2
        assert flushed_fraction_poisson(n, S, A) == pytest.approx(
            float(special.gammainc(A, n / S))
        )

    @pytest.mark.parametrize("A", [1, 2, 4])
    def test_equals_the_incomplete_gamma_expression(self, A):
        from scipy import special
        n = np.array([0.0, 3.0, 900.0, 5000.0, 2.5e6])
        S = 512
        expected = np.clip(special.gammainc(float(A), n / S), 0.0, 1.0)
        assert np.array_equal(flushed_fraction_poisson(n, S, A), expected)
        assert flushed_fraction_poisson(900.0, S, A) == float(expected[2])


class TestValidationAndShapes:
    def test_rejects_bad_sets(self):
        with pytest.raises(ValueError, match="n_sets"):
            flushed_fraction(1.0, 0, 1)

    def test_rejects_bad_associativity(self):
        with pytest.raises(ValueError, match="associativity"):
            flushed_fraction(1.0, 8, 0)

    def test_rejects_negative_lines(self):
        with pytest.raises(ValueError, match="non-negative"):
            flushed_fraction(-1.0, 8, 1)

    def test_vectorized(self):
        n = np.array([0.0, 10.0, 100.0, 1e6])
        out = flushed_fraction(n, 512, 1)
        assert out.shape == (4,)
        assert out[0] == 0.0 and out[-1] == pytest.approx(1.0)
        assert np.all(np.diff(out) >= 0)

    def test_survival_is_complement(self):
        n = 300.0
        assert survival_fraction(n, 512, 1) == pytest.approx(
            1.0 - flushed_fraction(n, 512, 1)
        )

    @given(
        n=st.floats(min_value=0.0, max_value=1e8),
        S=st.sampled_from([64, 512, 8192]),
        A=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_in_unit_interval(self, n, S, A):
        f = flushed_fraction(n, S, A)
        assert 0.0 <= f <= 1.0

    @given(
        n=st.floats(min_value=0.0, max_value=1e6),
        extra=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_monotone_in_lines(self, n, extra):
        assert flushed_fraction(n + extra, 512, 1) >= flushed_fraction(n, 512, 1) - 1e-12
