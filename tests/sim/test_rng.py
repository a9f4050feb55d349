"""Tests for reproducible RNG stream management."""

import numpy as np
import pytest

from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_streams(self):
        a = RandomStreams(42).arrivals(3).random(10)
        b = RandomStreams(42).arrivals(3).random(10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).arrivals(0).random(10)
        b = RandomStreams(2).arrivals(0).random(10)
        assert not np.array_equal(a, b)

    def test_different_keys_independent(self):
        rs = RandomStreams(42)
        a = rs.arrivals(0).random(10)
        b = rs.arrivals(1).random(10)
        assert not np.array_equal(a, b)

    def test_key_order_does_not_matter(self):
        rs1 = RandomStreams(7)
        _ = rs1.scheduling  # request scheduling first
        a = rs1.arrivals(5).random(5)
        rs2 = RandomStreams(7)
        b = rs2.arrivals(5).random(5)  # request arrivals first
        assert np.array_equal(a, b)

    def test_generator_cached(self):
        rs = RandomStreams(1)
        assert rs.arrivals(0) is rs.arrivals(0)
        assert rs.scheduling is rs.scheduling

    def test_string_keys_stable(self):
        a = RandomStreams(9).get("custom", "key").random(4)
        b = RandomStreams(9).get("custom", "key").random(4)
        assert np.array_equal(a, b)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            RandomStreams(-1)
        with pytest.raises(ValueError):
            RandomStreams("seed")
