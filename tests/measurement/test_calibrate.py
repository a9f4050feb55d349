"""Tests for the calibration pipeline."""

import pytest

from repro.core.params import PAPER_COSTS, ProtocolCosts
from repro.measurement.calibrate import (
    calibrated_paper_costs,
    derive_composition,
    derive_costs,
    scale_to_target,
)


class TestDeriveCosts:
    def test_bounds_ordered(self):
        costs = derive_costs()
        assert costs.t_warm_us < costs.t_l2_us < costs.t_cold_us

    def test_overheads_from_template(self):
        costs = derive_costs()
        assert costs.lock_overhead_us == PAPER_COSTS.lock_overhead_us
        assert costs.checksum_bytes_per_us == PAPER_COSTS.checksum_bytes_per_us

    def test_custom_template(self):
        template = ProtocolCosts(dispatch_us=9.0)
        costs = derive_costs(template=template)
        assert costs.dispatch_us == 9.0


class TestScaleToTarget:
    def test_anchors_t_cold(self):
        measured = ProtocolCosts(t_warm_us=100.0, t_l2_us=150.0, t_cold_us=200.0)
        scaled = scale_to_target(measured, 284.3)
        assert scaled.t_cold_us == pytest.approx(284.3)

    def test_preserves_ratios(self):
        measured = ProtocolCosts(t_warm_us=100.0, t_l2_us=150.0, t_cold_us=200.0)
        scaled = scale_to_target(measured, 284.3)
        assert scaled.t_warm_us / scaled.t_cold_us == pytest.approx(0.5)
        assert scaled.t_l2_us / scaled.t_cold_us == pytest.approx(0.75)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            scale_to_target(PAPER_COSTS, 0.0)


class TestDeriveComposition:
    def test_weights_sum_to_one(self):
        comp = derive_composition()
        total = comp.code_global + comp.stream_state + comp.thread_stack
        assert total == pytest.approx(1.0)

    def test_code_dominates_default_layout(self):
        # The default layout gives code+globals the largest region.
        comp = derive_composition()
        assert comp.code_global > comp.stream_state


class TestFullPipeline:
    def test_calibrated_costs_near_paper_presets(self):
        costs, comp = calibrated_paper_costs()
        assert costs.t_cold_us == pytest.approx(284.3)
        # The simulated platform's measured bounds land near the presets.
        assert costs.t_warm_us == pytest.approx(PAPER_COSTS.t_warm_us, rel=0.1)
        assert costs.t_l2_us == pytest.approx(PAPER_COSTS.t_l2_us, rel=0.1)
        # And the V=0 affinity-benefit bound sits in the published band.
        assert 0.40 <= costs.max_affinity_benefit <= 0.50

    def test_calibrated_costs_usable_in_simulation(self):
        from repro.sim.system import run_simulation

        from ..conftest import fast_config
        costs, comp = calibrated_paper_costs()
        s = run_simulation(fast_config(costs=costs, composition=comp,
                                       duration_us=80_000, warmup_us=10_000))
        assert s.n_packets > 0
        assert s.mean_exec_us > costs.t_warm_us
