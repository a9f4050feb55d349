"""Tests for trace-replay arrivals."""

import numpy as np
import pytest

from repro.workloads.replay import ReplaySpec


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReplaySpec(times_us=())

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            ReplaySpec(times_us=(10.0, 5.0))

    def test_nonpositive_first_rejected(self):
        with pytest.raises(ValueError, match="after time 0"):
            ReplaySpec(times_us=(0.0, 5.0))

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            ReplaySpec(times_us=(1.0,), time_scale=0.0)


class TestReplay:
    def test_exact_times_reproduced(self, rng):
        spec = ReplaySpec(times_us=(10.0, 25.0, 70.0), loop=False)
        p = spec.build(rng)
        times = []
        t = 0.0
        for _ in range(3):
            gap, size = p.next_batch()
            t += gap
            times.append(t)
            assert size == 1
        assert times == [10.0, 25.0, 70.0]

    def test_exhausted_one_shot_goes_infinite(self, rng):
        spec = ReplaySpec(times_us=(10.0,), loop=False)
        p = spec.build(rng)
        p.next_batch()
        gap, _ = p.next_batch()
        assert gap == float("inf")

    def test_loop_preserves_internal_spacing(self, rng):
        spec = ReplaySpec(times_us=(10.0, 30.0), loop=True)
        p = spec.build(rng)
        gaps = [p.next_batch()[0] for _ in range(5)]
        # First cycle: 10, 20. Pad = span/(n-1) = 30. Next cycle starts at
        # 30+30+10 = 70 -> gap 40, then 20 again.
        assert gaps[0] == pytest.approx(10.0)
        assert gaps[1] == pytest.approx(20.0)
        assert gaps[3] == pytest.approx(20.0)

    def test_time_scale_speeds_up(self, rng):
        base = ReplaySpec(times_us=(100.0, 200.0), loop=False)
        fast = ReplaySpec(times_us=(100.0, 200.0), loop=False, time_scale=0.5)
        g_base = base.build(rng).next_batch()[0]
        g_fast = fast.build(rng).next_batch()[0]
        assert g_fast == pytest.approx(g_base / 2.0)

    def test_mean_rate_one_shot(self):
        spec = ReplaySpec(times_us=(10.0, 20.0, 40.0), loop=False)
        assert spec.mean_rate_pps == pytest.approx(3 / 40.0 * 1e6)

    def test_mean_rate_matches_empirical_looped(self, rng):
        times = tuple(np.sort(np.random.default_rng(0).uniform(1, 10_000, 50)))
        spec = ReplaySpec.from_array(times, loop=True)
        p = spec.build(rng)
        horizon = 2e6
        n = sum(1 for _ in p.iter_batches(horizon))
        assert n / horizon * 1e6 == pytest.approx(spec.mean_rate_pps, rel=0.05)

    def test_usable_in_simulation(self, rng):
        from repro.sim.system import run_simulation
        from repro.workloads.traffic import TrafficSpec

        from ..conftest import fast_config
        times = tuple(float(t) for t in range(100, 50_000, 500))
        traffic = TrafficSpec((ReplaySpec(times_us=times, loop=True),))
        s = run_simulation(fast_config(traffic=traffic, duration_us=100_000,
                                       warmup_us=10_000))
        assert s.n_packets > 50
