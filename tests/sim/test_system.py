"""Integration tests: full simulations, queueing validation, invariants."""

import gc
import weakref

import pytest

from repro.analysis.mg1 import md1_mean_delay
from repro.core.params import PAPER_COSTS, PlatformConfig
from repro.core.policies import LOCKING_POLICIES
from repro.sim import batch
from repro.sim.system import NetworkProcessingSystem, SystemConfig, run_simulation
from repro.workloads.sessions import SessionChurnSpec
from repro.workloads.traffic import TrafficSpec

from ..conftest import fast_config


class TestConfigValidation:
    def test_bad_paradigm(self):
        with pytest.raises(ValueError, match="paradigm"):
            fast_config(paradigm="threads")

    def test_bad_intensity(self):
        with pytest.raises(ValueError, match="intensity"):
            fast_config(nonprotocol_intensity=-0.1)

    def test_bad_warmup(self):
        with pytest.raises(ValueError, match="warmup"):
            fast_config(duration_us=100.0, warmup_us=100.0)

    def test_bad_stacks(self):
        with pytest.raises(ValueError, match="n_stacks"):
            fast_config(paradigm="ips", policy="ips-wired", n_stacks=0)

    def test_policy_type_mismatch(self):
        from repro.core.policies import IPSWiredPolicy
        cfg = fast_config(policy=IPSWiredPolicy())
        with pytest.raises(TypeError, match="LockingPolicy"):
            NetworkProcessingSystem(cfg)

    def test_with_updates_functionally(self):
        cfg = fast_config()
        cfg2 = cfg.with_(seed=99)
        assert cfg2.seed == 99 and cfg.seed == 7

    def test_default_stacks_equals_processors(self):
        cfg = fast_config(paradigm="ips", policy="ips-wired")
        assert cfg.effective_n_stacks == cfg.platform.n_processors

    def test_single_use(self):
        system = NetworkProcessingSystem(fast_config())
        system.run()
        with pytest.raises(RuntimeError, match="single-use"):
            system.run()


class TestConservationAndDeterminism:
    def test_arrivals_equal_completions_plus_backlog(self):
        system = NetworkProcessingSystem(fast_config())
        system.run()
        m = system.metrics
        assert m.arrivals == m.completions + m.backlog

    def test_same_seed_same_results(self):
        a = run_simulation(fast_config(seed=11))
        b = run_simulation(fast_config(seed=11))
        assert a.mean_delay_us == b.mean_delay_us
        assert a.n_packets == b.n_packets

    def test_different_seeds_differ(self):
        a = run_simulation(fast_config(seed=11))
        b = run_simulation(fast_config(seed=12))
        assert a.mean_delay_us != b.mean_delay_us

    def test_common_random_numbers_across_policies(self):
        # Same seed, different policy: identical arrival counts.
        a = run_simulation(fast_config(policy="fcfs"))
        b = run_simulation(fast_config(policy="mru"))
        assert a.n_packets == b.n_packets

    def test_all_locking_policies_run(self):
        for name in LOCKING_POLICIES:
            s = run_simulation(fast_config(policy=name, duration_us=60_000,
                                           warmup_us=10_000))
            assert s.n_packets > 0, name

    def test_ips_policies_run(self):
        for name in ("ips-wired", "ips-mru"):
            s = run_simulation(fast_config(paradigm="ips", policy=name,
                                           duration_us=60_000, warmup_us=10_000))
            assert s.n_packets > 0, name

    @pytest.mark.parametrize("engine", ["auto", "scalar"])
    def test_fixed_size_run_never_creates_the_sizes_substream(
            self, engine, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        system = NetworkProcessingSystem(fast_config(duration_us=30_000,
                                                     warmup_us=5_000))
        system.run()
        assert system.metrics.arrivals > 0
        # Every packet carries the config's fixed payload, so a run draws
        # only arrival gaps and scheduler tie-breaks: no other substream.
        arrivals = {("arrivals", s)
                    for s in range(system.config.traffic.n_streams)}
        assert arrivals <= set(system.rngs._cache) <= (
            arrivals | {("scheduling",)})


class TestQueueingValidation:
    """Degenerate configurations against closed-form queueing results."""

    def test_md1_single_processor_locking(self):
        # One CPU, V=0: after the first packet everything is warm and
        # service is deterministic t_warm + dispatch + lock_overhead.
        service = (PAPER_COSTS.t_warm_us + PAPER_COSTS.dispatch_us
                   + PAPER_COSTS.lock_overhead_us)
        rate = 0.7 / service  # rho = 0.7, packets/us
        cfg = SystemConfig(
            traffic=TrafficSpec.single_stream(rate * 1e6),
            paradigm="locking", policy="fcfs",
            platform=PlatformConfig(n_processors=1),
            nonprotocol_intensity=0.0,
            duration_us=4_000_000.0, warmup_us=400_000.0, seed=3,
        )
        s = run_simulation(cfg)
        expected = md1_mean_delay(rate, service)
        assert s.mean_exec_us == pytest.approx(service, rel=1e-3)
        assert s.mean_delay_us == pytest.approx(expected, rel=0.08)

    def test_md1_single_stack_ips(self):
        service = PAPER_COSTS.t_warm_us + PAPER_COSTS.dispatch_us
        rate = 0.6 / service
        cfg = SystemConfig(
            traffic=TrafficSpec.single_stream(rate * 1e6),
            paradigm="ips", policy="ips-wired",
            platform=PlatformConfig(n_processors=1),
            nonprotocol_intensity=0.0,
            duration_us=4_000_000.0, warmup_us=400_000.0, seed=3,
        )
        s = run_simulation(cfg)
        expected = md1_mean_delay(rate, service)
        assert s.mean_delay_us == pytest.approx(expected, rel=0.08)

    def test_multiserver_less_delay_than_single(self):
        # Work conservation sanity: 4 CPUs at the same total load beat 1.
        mk = lambda n: SystemConfig(
            traffic=TrafficSpec.homogeneous_poisson(4, 8_000.0),
            paradigm="locking", policy="fcfs",
            platform=PlatformConfig(n_processors=n),
            nonprotocol_intensity=0.0,
            duration_us=500_000.0, warmup_us=100_000.0, seed=5,
        )
        d1 = run_simulation(mk(1)).mean_delay_us
        d4 = run_simulation(mk(4)).mean_delay_us
        assert d4 < d1


class TestModelEffects:
    """The cache-affinity mechanics show through end to end."""

    def test_v0_affinity_runs_fully_warm(self):
        # Wired streams + V=0: every packet after the first per stream is
        # completely warm *except* the shared writable state, which other
        # processors' protocol executions keep migrating away (the Locking
        # penalty IPS avoids).
        from repro.core.params import PAPER_COMPOSITION
        cfg = fast_config(policy="wired-streams", nonprotocol_intensity=0.0,
                          traffic=TrafficSpec.homogeneous_poisson(8, 4_000.0),
                          duration_us=400_000, warmup_us=80_000)
        s = run_simulation(cfg)
        warm_service = (PAPER_COSTS.t_warm_us + PAPER_COSTS.dispatch_us
                        + PAPER_COSTS.lock_overhead_us)
        shared_penalty = (
            PAPER_COMPOSITION.code_global
            * PAPER_COMPOSITION.shared_writable_of_code
            * (PAPER_COSTS.t_cold_us - PAPER_COSTS.t_warm_us)
        )
        assert s.mean_exec_us == pytest.approx(
            warm_service + shared_penalty, rel=0.03
        )

    def test_v0_single_proc_truly_warm(self):
        # One processor, ONE stream, V=0: no migration, no displacement by
        # other streams' protocol references -> exactly the warm bound.
        # (With several streams, each one's state is displaced by the
        # others' executions on the shared processor — see the wired test.)
        cfg = fast_config(
            policy="mru", nonprotocol_intensity=0.0,
            traffic=TrafficSpec.single_stream(3_000.0),
            platform=PlatformConfig(n_processors=1),
            duration_us=400_000, warmup_us=80_000,
        )
        s = run_simulation(cfg)
        warm_service = (PAPER_COSTS.t_warm_us + PAPER_COSTS.dispatch_us
                        + PAPER_COSTS.lock_overhead_us)
        assert s.mean_exec_us == pytest.approx(warm_service, rel=0.02)

    def test_higher_intensity_higher_exec_time(self):
        lo = run_simulation(fast_config(nonprotocol_intensity=0.1))
        hi = run_simulation(fast_config(nonprotocol_intensity=1.0))
        assert hi.mean_exec_us > lo.mean_exec_us

    def test_affinity_beats_baseline_exec_time(self):
        base = run_simulation(fast_config(policy="fcfs"))
        mru = run_simulation(fast_config(policy="mru"))
        assert mru.mean_exec_us < base.mean_exec_us

    def test_ips_avoids_lock_overhead(self):
        # Neutralize the shared-writable migration penalty so the Locking
        # vs IPS service gap isolates the per-packet locking cost.
        from repro.core.params import FootprintComposition
        no_shared = FootprintComposition(shared_writable_of_code=0.0)
        lk = run_simulation(fast_config(policy="wired-streams",
                                        composition=no_shared,
                                        nonprotocol_intensity=0.0))
        ips = run_simulation(fast_config(paradigm="ips", policy="ips-wired",
                                         composition=no_shared,
                                         nonprotocol_intensity=0.0))
        assert lk.mean_exec_us - ips.mean_exec_us == pytest.approx(
            PAPER_COSTS.lock_overhead_us, rel=0.15
        )

    def test_fixed_overhead_added(self):
        base = run_simulation(fast_config())
        loaded = run_simulation(fast_config(fixed_overhead_us=139.0))
        assert loaded.mean_exec_us - base.mean_exec_us == pytest.approx(
            139.0, rel=0.05
        )

    def test_data_touching_charges_payload(self):
        from repro.workloads.traffic import FixedSize
        traffic = TrafficSpec.homogeneous_poisson(
            4, 4_000.0, size_model=FixedSize(3200)
        )
        base = run_simulation(fast_config(traffic=traffic))
        touched = run_simulation(fast_config(traffic=traffic, data_touching=True))
        assert touched.mean_exec_us - base.mean_exec_us == pytest.approx(
            3200 / PAPER_COSTS.checksum_bytes_per_us, rel=0.05
        )


class TestIPSSemantics:
    def test_wired_stream_processor_binding(self):
        cfg = fast_config(policy="wired-streams",
                          traffic=TrafficSpec.homogeneous_poisson(8, 6_000.0))
        system = NetworkProcessingSystem(cfg)
        system.run()
        for rec in system.metrics.records:
            assert rec.processor_id == rec.stream_id % 8

    def test_ips_wired_stack_binding(self):
        cfg = fast_config(paradigm="ips", policy="ips-wired", n_stacks=4,
                          traffic=TrafficSpec.homogeneous_poisson(8, 6_000.0))
        system = NetworkProcessingSystem(cfg)
        system.run()
        for rec in system.metrics.records:
            assert rec.processor_id == (rec.stream_id % 4) % 8

    def test_ips_stream_fifo_per_stack(self):
        # A stack is serial: its packets complete in arrival order.
        cfg = fast_config(paradigm="ips", policy="ips-mru",
                          traffic=TrafficSpec.homogeneous_poisson(4, 10_000.0))
        system = NetworkProcessingSystem(cfg)
        system.run()
        by_stack = {}
        for rec in system.metrics.records:
            by_stack.setdefault(rec.stream_id % 8, []).append(rec)
        for recs in by_stack.values():
            completions = [r.completion_us for r in recs]
            arrivals = [r.arrival_us for r in recs]
            assert arrivals == sorted(arrivals)
            assert completions == sorted(completions)

    def test_lock_waits_zero_under_ips(self):
        s = run_simulation(fast_config(paradigm="ips", policy="ips-wired"))
        assert s.mean_lock_wait_us == 0.0

    def test_locking_sees_contention_at_high_rate(self):
        cfg = fast_config(
            traffic=TrafficSpec.homogeneous_poisson(8, 38_000.0),
            duration_us=200_000, warmup_us=30_000,
        )
        s = run_simulation(cfg)
        assert s.mean_lock_wait_us > 0.0


class TestRunSimulationFreesTheSystem:
    """A finished run is reclaimed by reference counting alone."""

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize("paradigm,policy", [
        ("locking", "mru"), ("locking", "pools"), ("ips", "ips-mru"),
    ])
    def test_system_is_dead_on_return(self, engine, paradigm, policy,
                                      monkeypatch):
        self._assert_freed(monkeypatch, engine, fast_config(
            paradigm=paradigm, policy=policy, duration_us=30_000.0,
            warmup_us=5_000.0))

    def test_churned_sessions_are_freed(self, monkeypatch):
        churn = SessionChurnSpec(sessions_per_second=400.0,
                                 mean_lifetime_us=5_000.0,
                                 per_stream_rate_pps=2_000.0)
        self._assert_freed(monkeypatch, "auto", fast_config(
            churn=churn, duration_us=30_000.0, warmup_us=5_000.0))

    @staticmethod
    def _assert_freed(monkeypatch, engine, config):
        monkeypatch.setenv(batch.ENGINE_ENV, engine)
        built = []
        run = NetworkProcessingSystem.run

        def spy(system):
            built.append(weakref.ref(system))
            return run(system)

        monkeypatch.setattr(NetworkProcessingSystem, "run", spy)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            summary = run_simulation(config)
            assert built and built[0]() is None
        finally:
            if was_enabled:
                gc.enable()
        assert summary.n_packets > 0
