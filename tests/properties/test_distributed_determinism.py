"""Exactly-once under chaos — property-based contract for `distributed`.

The distributed backend promises that *any* interleaving of duplicate
delivery, dropped frames (→ lease expiry → re-execution), and worker
death converges to results bit-identical to ``--backend serial``, with
every task committed exactly once.  Hypothesis drives the fault mix and
the fault plan's seed (each seed is a different deterministic
interleaving of the same fault kinds), and demands bit-identity plus
clean commit accounting.

Fault rates are bounded by ``max_faulty_attempts`` so every drawn plan
is guaranteed to converge: the adversary gets the first messages of
every stream and the first leases of every agent, then the machinery
must recover.  Worker death may exhaust the fleet budget and fall back
to the local warm backend — that path must be just as invisible.
"""

from __future__ import annotations

import functools
from typing import Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.runner import DistributedOptions, FaultPlan, SweepRunner
from repro.runner.faults import _scenario_grid
from repro.sim.system import SystemConfig, run_simulation


@functools.lru_cache(maxsize=1)
def _grid() -> Tuple[SystemConfig, ...]:
    return tuple(_scenario_grid(4, seed=7))


@functools.lru_cache(maxsize=1)
def _reference() -> Tuple[object, ...]:
    return tuple(run_simulation(c) for c in _grid())


@pytest.mark.slow
class TestDistributedChaosBitIdentity:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=1, max_value=10_000),
        duplicate=st.sampled_from([0.0, 1.0]),
        drop=st.sampled_from([0.0, 0.5]),
        kill=st.sampled_from([0.0, 0.4]),
    )
    # Three agent respawns under fresh worker ids: the fault budget must
    # hold per task, or one task loses all six attempts to chaos.
    @example(seed=874, duplicate=0.0, drop=0.5, kill=0.4)
    def test_chaos_interleavings_converge_to_serial(
            self, seed, duplicate, drop, kill):
        grid, ref = _grid(), _reference()
        plan = FaultPlan(seed=seed, duplicate=duplicate, drop=drop,
                         kill=kill, max_faulty_attempts=2)
        runner = SweepRunner(
            jobs=2, backend="distributed", retries=5, backoff_base_s=0.0,
            fault_plan=plan,
            distributed_options=DistributedOptions(
                lease_timeout_s=0.6, idle_poll_s=0.1, tick_s=0.02))
        try:
            results = runner.run_many(list(grid))
        finally:
            runner.close()
        assert results == list(ref)
        # Exactly-once commit accounting: every task committed once, no
        # failures, and nothing double-counted however many duplicates,
        # expiries, or respawns the interleaving produced.
        assert runner.stats.failures == 0
        assert runner.stats.executed == len(grid)

    def test_drop_everything_once_still_converges(self):
        # The deterministic worst case of the drop dimension: the FIRST
        # message of every (worker, type) stream vanishes — every hello,
        # every grant, every result.  Recovery must come from idle
        # re-hellos and lease expiry alone.
        grid, ref = _grid(), _reference()
        plan = FaultPlan(seed=3, drop=1.0, max_faulty_attempts=1)
        runner = SweepRunner(
            jobs=2, backend="distributed", retries=5, backoff_base_s=0.0,
            fault_plan=plan,
            distributed_options=DistributedOptions(
                lease_timeout_s=0.5, idle_poll_s=0.1, tick_s=0.02))
        try:
            results = runner.run_many(list(grid))
        finally:
            runner.close()
        assert results == list(ref)
        assert runner.stats.lease_expiries >= 1
        assert runner.stats.failures == 0
        assert runner.stats.executed == len(grid)
