"""Edge-case tests for the dispatchers (misuse guards, fairness)."""

import pytest

from repro.core.policies import IPSPolicy, LockingPolicy
from repro.sim.system import NetworkProcessingSystem
from repro.workloads.traffic import TrafficSpec

from ..conftest import fast_config


class GreedyBadPolicy(LockingPolicy):
    """Dispatches to processor 0 even when it is busy (misuse)."""

    name = "greedy-bad"

    def __init__(self):
        super().__init__()
        self._queue = []

    def on_arrival(self, packet):
        self._queue.append(packet)

    def next_dispatch(self):
        if self._queue:
            return 0, self._queue.pop(0)
        return None

    def queued(self):
        return len(self._queue)


class BadIPSPolicy(IPSPolicy):
    """Chooses a busy processor (misuse)."""

    name = "bad-ips"

    def select_processor(self, stack_id, view, stack_last_proc):
        return 0  # regardless of idleness


class TestMisuseGuards:
    def test_locking_dispatch_to_busy_processor_raises(self):
        cfg = fast_config(policy=GreedyBadPolicy(),
                          traffic=TrafficSpec.homogeneous_poisson(4, 40_000),
                          duration_us=50_000, warmup_us=5_000)
        system = NetworkProcessingSystem(cfg)
        with pytest.raises(RuntimeError, match="busy processor"):
            system.run()

    def test_ips_policy_choosing_busy_processor_raises(self):
        cfg = fast_config(paradigm="ips", policy=BadIPSPolicy(),
                          traffic=TrafficSpec.homogeneous_poisson(4, 40_000),
                          duration_us=50_000, warmup_us=5_000)
        system = NetworkProcessingSystem(cfg)
        with pytest.raises(RuntimeError, match="busy processor"):
            system.run()


class TestIPSFairness:
    def test_stacks_served_in_head_arrival_order(self):
        # With one processor and many stacks, the IPS dispatcher serves
        # whichever runnable stack has the earliest waiting packet —
        # global FCFS across stacks.
        from repro.core.params import PlatformConfig
        cfg = fast_config(
            paradigm="ips", policy="ips-mru", n_stacks=4,
            platform=PlatformConfig(n_processors=1),
            traffic=TrafficSpec.homogeneous_poisson(4, 9_000),
            duration_us=150_000, warmup_us=20_000,
        )
        system = NetworkProcessingSystem(cfg)
        system.run()
        starts = [
            (r.service_start_us, r.arrival_us)
            for r in system.metrics.records
        ]
        starts.sort()
        # Service order should never start a packet that arrived later
        # than a still-waiting earlier packet by more than one service
        # time (head-of-line FCFS across stacks, modulo in-flight work).
        arrivals_in_service_order = [a for _, a in starts]
        inversions = sum(
            1
            for x, y in zip(arrivals_in_service_order,
                            arrivals_in_service_order[1:])
            if x > y + 200.0  # tolerance: one max service time
        )
        assert inversions == 0

    def test_all_stacks_make_progress(self):
        cfg = fast_config(
            paradigm="ips", policy="ips-wired", n_stacks=4,
            traffic=TrafficSpec.homogeneous_poisson(8, 12_000),
            duration_us=150_000, warmup_us=20_000,
        )
        system = NetworkProcessingSystem(cfg)
        system.run()
        stacks_seen = {r.stream_id % 4 for r in system.metrics.records}
        assert stacks_seen == {0, 1, 2, 3}


class TestSeedRobustness:
    """Key orderings hold across seeds, not just the default one."""

    @pytest.mark.parametrize("seed", [2, 23, 101])
    def test_mru_beats_fcfs(self, seed):
        from repro.sim.system import run_simulation
        base = fast_config(seed=seed, duration_us=200_000, warmup_us=30_000,
                           traffic=TrafficSpec.homogeneous_poisson(8, 12_000))
        fcfs = run_simulation(base.with_(policy="fcfs"))
        mru = run_simulation(base.with_(policy="mru"))
        assert mru.mean_delay_us < fcfs.mean_delay_us

    @pytest.mark.parametrize("seed", [2, 23])
    def test_ips_wired_lower_service_than_locking(self, seed):
        from repro.sim.system import run_simulation
        base = fast_config(seed=seed, duration_us=200_000, warmup_us=30_000,
                           traffic=TrafficSpec.homogeneous_poisson(8, 12_000))
        lk = run_simulation(base.with_(policy="wired-streams"))
        ips = run_simulation(base.with_(paradigm="ips", policy="ips-wired"))
        assert ips.mean_exec_us < lk.mean_exec_us
