"""Tests for the analytic delay predictor (vs simulation and structurally)."""

import math

import pytest

from repro.analysis.predictor import AnalyticPredictor
from repro.sim.system import SystemConfig, run_simulation
from repro.workloads.traffic import TrafficSpec


@pytest.fixture(scope="module")
def predictor():
    return AnalyticPredictor()


class TestStructure:
    def test_unsupported_policy(self, predictor):
        with pytest.raises(ValueError, match="supports"):
            predictor.predict("hybrid", 1_000.0, 8)

    def test_input_validation(self, predictor):
        with pytest.raises(ValueError):
            predictor.predict("mru", 0.0, 8)
        with pytest.raises(ValueError):
            predictor.predict("mru", 1_000.0, 0)

    def test_queue_structures(self, predictor):
        wired = predictor.predict("wired-streams", 8_000.0, 8)
        shared = predictor.predict("fcfs", 8_000.0, 8)
        assert wired.queue_structure == "M/D/1 per processor"
        assert shared.queue_structure == "M/D/c shared"

    def test_overload_marked_unstable(self, predictor):
        p = predictor.predict("fcfs", 500_000.0, 8)
        assert not p.stable
        assert math.isinf(p.mean_delay_us)
        assert math.isinf(p.queueing_us)

    def test_delay_increases_with_rate(self, predictor):
        delays = [
            predictor.predict("ips-wired", r, 8).mean_delay_us
            for r in (4_000, 16_000, 32_000)
        ]
        assert delays == sorted(delays)

    def test_v0_reduces_service(self, predictor):
        loaded = predictor.predict("wired-streams", 8_000.0, 8, intensity=1.0)
        clean = predictor.predict("wired-streams", 8_000.0, 8, intensity=0.0)
        assert clean.service_us < loaded.service_us

    def test_ips_service_below_locking_wired(self, predictor):
        lk = predictor.predict("wired-streams", 16_000.0, 8)
        ips = predictor.predict("ips-wired", 16_000.0, 8)
        assert ips.service_us < lk.service_us

    def test_affinity_service_below_baseline(self, predictor):
        base = predictor.predict("fcfs", 8_000.0, 8)
        mru = predictor.predict("mru", 8_000.0, 8)
        assert mru.service_us < base.service_us


class TestAgreementWithSimulation:
    """Predictor within ~15 % of the simulator at moderate utilization
    (it is deliberately conservative near saturation)."""

    CASES = (
        ("wired-streams", "locking", "wired-streams"),
        ("ips-wired", "ips", "ips-wired"),
        ("fcfs", "locking", "fcfs"),
        ("mru", "locking", "mru"),
    )

    @pytest.mark.parametrize("policy,paradigm,sim_policy", CASES)
    def test_moderate_load_agreement(self, predictor, policy, paradigm,
                                     sim_policy):
        rate = 8_000.0
        prediction = predictor.predict(policy, rate, 8)
        cfg = SystemConfig(
            traffic=TrafficSpec.homogeneous_poisson(8, rate),
            paradigm=paradigm, policy=sim_policy,
            duration_us=600_000, warmup_us=100_000, seed=3,
        )
        simulated = run_simulation(cfg)
        assert prediction.mean_delay_us == pytest.approx(
            simulated.mean_delay_us, rel=0.15
        )
        assert prediction.service_us == pytest.approx(
            simulated.mean_exec_us, rel=0.12
        )

    def test_capacity_ordering_matches_e09(self, predictor):
        caps = {
            policy: predictor.capacity_pps(policy, 16)
            for policy in ("fcfs", "wired-streams", "ips-wired")
        }
        assert caps["ips-wired"] > caps["wired-streams"] > caps["fcfs"]

    def test_capacity_magnitude(self, predictor):
        # 8 CPUs at ~160-200 us/packet -> capacity in the tens of kpps.
        cap = predictor.capacity_pps("ips-wired", 16)
        assert 30_000 < cap < 70_000
