"""Tests for execution tracing, attribution, and simulator invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.exec_model import ComponentState
from repro.core.params import PAPER_COSTS
from repro.sim.entities import Packet
from repro.sim.system import NetworkProcessingSystem
from repro.sim.trace import ExecutionTracer
from repro.workloads.traffic import TrafficSpec

from ..conftest import fast_config


def traced_system(**overrides) -> NetworkProcessingSystem:
    system = NetworkProcessingSystem(
        fast_config(trace=True, duration_us=100_000, warmup_us=10_000,
                    **overrides)
    )
    system.run()
    return system


class TestRecording:
    def test_every_service_recorded(self):
        system = traced_system()
        # Records cover all services started (completions + in-flight).
        assert len(system.tracer) >= system.metrics.completions

    def test_tracing_off_by_default(self):
        system = NetworkProcessingSystem(fast_config(duration_us=50_000,
                                                     warmup_us=5_000))
        system.run()
        assert system.tracer is None

    def test_record_fields(self):
        system = traced_system()
        r = system.tracer.records[0]
        assert r.exec_time_us > 0
        assert r.end_us == pytest.approx(
            r.start_us + r.lock_wait_us + r.exec_time_us
        )
        # First packet of a stream is always stream-cold.
        assert r.stream_was_cold

    def test_to_rows_shape(self):
        system = traced_system()
        rows = system.tracer.to_rows()
        assert len(rows) == len(system.tracer)
        assert {"packet_id", "processor_id", "exec_time_us"} <= set(rows[0])


class TestDiagnostics:
    def test_wired_streams_never_migrate(self):
        system = traced_system(policy="wired-streams")
        assert system.tracer.migration_rate() == 0.0

    def test_fcfs_migrates_heavily(self):
        system = traced_system(policy="fcfs",
                               traffic=TrafficSpec.homogeneous_poisson(8, 8_000))
        # Random placement on 8 CPUs: ~7/8 of services migrate.
        assert system.tracer.migration_rate() > 0.5

    def test_cold_fraction_wired_near_zero(self):
        system = traced_system(policy="wired-streams")
        # Only each stream's first packet is cold.
        assert system.tracer.cold_fraction() < 0.05

    def test_attribution_sums_to_mean_penalty(self):
        system = traced_system()
        attribution = system.tracer.component_attribution()
        mean_exec = sum(
            r.exec_time_us for r in system.tracer.records
        ) / len(system.tracer)
        reconstructed = (
            PAPER_COSTS.t_warm_us + PAPER_COSTS.dispatch_us
            + PAPER_COSTS.lock_overhead_us
            + attribution["code_global"] + attribution["stream_state"]
            + attribution["thread_stack"]
        )
        assert reconstructed == pytest.approx(mean_exec, rel=1e-6)

    def test_empty_tracer_diagnostics(self, model):
        t = ExecutionTracer(model)
        assert t.cold_fraction() == 0.0
        assert t.migration_rate() == 0.0
        assert t.component_attribution()["lock_wait"] == 0.0


class TestInvariants:
    def test_no_overlap_all_policies(self):
        for paradigm, policy in (
            ("locking", "fcfs"), ("locking", "mru"), ("locking", "pools"),
            ("locking", "wired-streams"), ("locking", "hybrid"),
            ("ips", "ips-wired"), ("ips", "ips-mru"),
        ):
            system = traced_system(paradigm=paradigm, policy=policy)
            system.tracer.check_no_overlap()

    def test_overlap_detection_works(self, model):
        t = ExecutionTracer(model)
        pk = Packet(packet_id=0, stream_id=0, arrival_us=0.0)
        pk.processor_id = 0
        state = ComponentState()
        t.record(pk, state, 0.0, 100.0, 0.0)
        t.record(pk, state, 0.0, 100.0, 50.0)  # overlaps
        with pytest.raises(AssertionError, match="double-booked"):
            t.check_no_overlap()

    def test_utilization_from_trace_matches_metrics(self):
        system = traced_system(policy="wired-streams")
        horizon = system.config.duration_us
        for p in range(4):
            from_trace = system.tracer.utilization_from_trace(p, horizon)
            from_proc = system.processors[p].utilization(horizon)
            # Trace intervals include lock waits; allow that slack.
            assert from_trace == pytest.approx(from_proc, abs=0.05)

    def test_utilization_validates_horizon(self, model):
        with pytest.raises(ValueError):
            ExecutionTracer(model).utilization_from_trace(0, 0.0)

    @given(seed=st.integers(min_value=0, max_value=500),
           policy=st.sampled_from(["fcfs", "mru", "wired-streams",
                                   "pools", "hybrid"]))
    @settings(max_examples=12, deadline=None)
    def test_property_no_overlap_random_configs(self, seed, policy):
        system = NetworkProcessingSystem(fast_config(
            trace=True, policy=policy, seed=seed,
            duration_us=40_000, warmup_us=4_000,
            traffic=TrafficSpec.homogeneous_poisson(6, 20_000),
        ))
        system.run()
        system.tracer.check_no_overlap()
