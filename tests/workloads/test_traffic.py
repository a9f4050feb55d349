"""Tests for traffic specs and the fixed packet size."""

import pytest

from repro.workloads.arrivals import BatchPoissonSpec, PoissonSpec
from repro.workloads.traffic import FixedSize, TrafficSpec


class TestSizeModels:
    def test_fixed_size(self):
        assert FixedSize(512).size_bytes == 512
        assert FixedSize().size_bytes == 0

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedSize(-1)


class TestTrafficSpec:
    def test_homogeneous_poisson(self):
        t = TrafficSpec.homogeneous_poisson(8, 16_000.0)
        assert t.n_streams == 8
        assert t.total_rate_pps == pytest.approx(16_000.0)
        assert all(isinstance(s, PoissonSpec) for s in t.stream_specs)
        assert all(s.rate_pps == pytest.approx(2_000.0) for s in t.stream_specs)

    def test_one_bursty_among_smooth(self):
        t = TrafficSpec.one_bursty_among_smooth(4, 8_000.0, mean_batch=8.0)
        assert isinstance(t.stream_specs[0], BatchPoissonSpec)
        assert t.stream_specs[0].mean_batch == 8.0
        assert all(isinstance(s, PoissonSpec) for s in t.stream_specs[1:])
        assert t.total_rate_pps == pytest.approx(8_000.0)

    def test_single_stream(self):
        t = TrafficSpec.single_stream(5_000.0)
        assert t.n_streams == 1
        assert t.total_rate_pps == pytest.approx(5_000.0)

    def test_needs_streams(self):
        with pytest.raises(ValueError):
            TrafficSpec(())
        with pytest.raises(ValueError):
            TrafficSpec.homogeneous_poisson(0, 100.0)

    def test_custom_mix(self):
        t = TrafficSpec(
            (PoissonSpec(100.0), BatchPoissonSpec(300.0, 4.0)),
        )
        assert t.total_rate_pps == pytest.approx(400.0)


class TestHeterogeneous:
    def test_rates_respected(self):
        t = TrafficSpec.heterogeneous([100.0, 5_000.0, 400.0])
        assert t.n_streams == 3
        assert t.total_rate_pps == pytest.approx(5_500.0)
        assert t.stream_specs[1].rate_pps == pytest.approx(5_000.0)

    def test_needs_rates(self):
        with pytest.raises(ValueError):
            TrafficSpec.heterogeneous([])
