"""Differential and metamorphic properties of the scheduling-policy zoo.

Three layers of evidence that the zoo policies (``flow-steer``,
``work-steal``, ``grouped``), the paper's ``hybrid`` and the
unaffinitized ``ips-random`` reference are implemented correctly in
*both* engines:

- **differential**: Hypothesis-driven deep-state equality of the fused
  batched engine against the scalar reference, across workload shapes
  (Poisson, deterministic, all-streams-tied), processor counts and policy
  parameters — the same bit-identity contract as
  ``test_batch_equivalence``, pointed at the policies whose fused loops
  carry per-processor queues, steal rules or random idle draws (the tied
  and staggered shapes make victim ties, MRU thief ties and random idle
  draws occur);
- **metamorphic**: parameter limits where a zoo policy must degenerate
  into a paper policy decision for decision (``grouped`` with one group
  per processor == ``wired-streams``; ``flow-steer`` that never
  rebalances == ``wired-streams``), and configurations that cannot
  reorder (static wiring, a single processor) must report exactly zero
  reordering and zero migrations;
- **determinism**: identically-seeded runs are bit-identical even when
  executed by a parallel sweep runner, which is what makes the
  RNG draw-order contract (victim before thief) observable.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.params import PlatformConfig
from repro.runner import SweepRunner
from repro.sim import batch
from repro.sim.system import NetworkProcessingSystem, SystemConfig, run_simulation
from repro.workloads.arrivals import DeterministicSpec, PoissonSpec
from repro.workloads.traffic import FixedSize, TrafficSpec

from .test_batch_equivalence import _run_both, _system_state

# ----------------------------------------------------------------------
# Differential: batched == scalar, deep state, across the zoo
# ----------------------------------------------------------------------

_zoo_policy = st.one_of(
    st.builds(
        lambda t: ("flow-steer", {"rebalance_threshold": t}),
        st.integers(min_value=0, max_value=3),
    ),
    st.builds(
        lambda g: ("grouped", {"n_groups": g}),
        st.integers(min_value=1, max_value=8),
    ),
    st.builds(
        lambda t: ("work-steal", {"steal_threshold": t}),
        st.integers(min_value=1, max_value=4),
    ),
    st.builds(
        lambda t: ("hybrid", {"overflow_threshold": t}),
        st.integers(min_value=1, max_value=4),
    ),
    st.just(("ips-random", {})),
)


def _paradigm(policy: str) -> str:
    return "ips" if policy.startswith("ips-") else "locking"


def _traffic(shape: str, n_streams: int, per_stream_pps: float) -> TrafficSpec:
    if shape == "poisson":
        specs = tuple(PoissonSpec(per_stream_pps) for _ in range(n_streams))
    elif shape == "staggered":
        specs = tuple(
            DeterministicSpec(per_stream_pps, phase_us=3.0 * i)
            for i in range(n_streams)
        )
    else:  # "tied": every stream arrives at identical float timestamps
        specs = tuple(
            DeterministicSpec(per_stream_pps, phase_us=5.0)
            for _ in range(n_streams)
        )
    return TrafficSpec(stream_specs=specs, size_model=FixedSize(1024))


@given(
    policy_kwargs=_zoo_policy,
    shape=st.sampled_from(["poisson", "staggered", "tied"]),
    n_procs=st.integers(min_value=1, max_value=6),
    n_streams=st.integers(min_value=1, max_value=6),
    rate=st.floats(min_value=500.0, max_value=14_000.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_zoo_batched_equals_scalar_deep_state(
    policy_kwargs, shape, n_procs, n_streams, rate, seed,
):
    policy, kwargs = policy_kwargs
    config = dict(
        platform=PlatformConfig(n_processors=n_procs),
        paradigm=_paradigm(policy), policy=policy, policy_kwargs=kwargs,
        traffic=_traffic(shape, n_streams, rate / n_streams),
        duration_us=50_000.0, warmup_us=5_000.0, seed=seed,
    )
    states = {}
    import os
    old = os.environ.get(batch.ENGINE_ENV)
    try:
        for mode in ("scalar", "batched"):
            os.environ[batch.ENGINE_ENV] = mode
            system = NetworkProcessingSystem(SystemConfig(**config))
            states[mode] = _system_state(system, system.run())
    finally:
        if old is None:
            os.environ.pop(batch.ENGINE_ENV, None)
        else:
            os.environ[batch.ENGINE_ENV] = old
    assert states["scalar"] == states["batched"]


@pytest.mark.parametrize("policy,kwargs", [
    ("flow-steer", {"rebalance_threshold": 0}),
    ("grouped", {"n_groups": 3}),
    ("work-steal", {"steal_threshold": 2}),
    ("hybrid", {"overflow_threshold": 3}),
    ("ips-random", {}),
])
def test_zoo_saturated_batched_equals_scalar(policy, kwargs, monkeypatch):
    """Deep overload: exercises the fused loops' bulk-arrival sweep, the
    steal at a completion after it, and the end-of-run per-processor
    queue fold."""
    states = _run_both(
        dict(paradigm=_paradigm(policy), policy=policy, policy_kwargs=kwargs,
             traffic=_traffic("staggered", 8, 11_000.0),
             duration_us=80_000.0, warmup_us=20_000.0, seed=5),
        monkeypatch,
    )
    assert states["scalar"] == states["batched"]


@pytest.mark.parametrize("shape", ["tied", "staggered"])
@pytest.mark.parametrize("policy,kwargs", [
    ("work-steal", {"steal_threshold": 1}),
    ("hybrid", {"overflow_threshold": 1}),
    ("ips-random", {}),
])
def test_draw_points_batched_equals_scalar(policy, kwargs, shape, monkeypatch):
    """Six streams on four processors, in lockstep: two processors home
    two streams each, so their queues overflow while others idle — MRU
    thief ties draw at arrivals, ``work-steal``'s tied victims draw at
    completions, and ``ips-random`` moves a backlogged stack to a random
    idle processor at a completion.  A fused loop that skips any one of
    these draws fails here."""
    states = _run_both(
        dict(platform=PlatformConfig(n_processors=4),
             paradigm=_paradigm(policy), policy=policy, policy_kwargs=kwargs,
             traffic=_traffic(shape, 6, 20_000.0 / 6),
             duration_us=50_000.0, warmup_us=5_000.0, seed=3),
        monkeypatch,
    )
    assert states["scalar"] == states["batched"]
    assert states["batched"].get("steals", 1) > 0


# ----------------------------------------------------------------------
# Metamorphic: degeneracies and impossibility results
# ----------------------------------------------------------------------

def _summary(policy, policy_kwargs=None, n_procs=4, seed=11, rate=36_000.0):
    config = SystemConfig(
        platform=PlatformConfig(n_processors=n_procs),
        paradigm="locking", policy=policy,
        policy_kwargs=policy_kwargs or {},
        traffic=_traffic("poisson", 8, rate / 8),
        duration_us=60_000.0, warmup_us=5_000.0, seed=seed,
    )
    return run_simulation(config)


class TestMetamorphicDegeneracies:
    def test_grouped_one_group_per_processor_is_wired(self):
        wired = _summary("wired-streams")
        grouped = _summary("grouped", {"n_groups": 4})
        assert grouped == wired  # bit-identical, not approximately

    def test_flow_steer_without_rebalance_is_wired(self):
        wired = _summary("wired-streams")
        steer = _summary("flow-steer", {"rebalance_threshold": 10**9})
        assert steer == wired

    def test_static_wiring_never_reorders(self):
        wired = _summary("wired-streams")
        assert wired.n_packets > 0
        assert wired.out_of_order_total == 0
        assert wired.migrations_total == 0
        assert wired.ooo_depth_counts == {}

    def test_aggressive_flow_steer_does_reorder(self):
        # The sanity complement: the zero above is meaningful because
        # the same workload under aggressive re-steering is nonzero.
        steer = _summary("flow-steer", {"rebalance_threshold": 0})
        assert steer.out_of_order_total > 0
        assert steer.migrations_total > 0

    @pytest.mark.parametrize("policy", ["flow-steer", "work-steal",
                                        "grouped", "mru", "fcfs"])
    def test_single_processor_cannot_reorder(self, policy):
        s = _summary(policy, n_procs=1, rate=8_000.0)
        assert s.n_packets > 0
        assert s.out_of_order_total == 0
        assert s.migrations_total == 0


# ----------------------------------------------------------------------
# Determinism under parallel execution
# ----------------------------------------------------------------------

class TestSeededDeterminism:
    def test_work_steal_bit_identical_across_parallel_workers(self):
        """Two identically-seeded work-stealing runs executed by a 4-way
        parallel sweep must be bit-identical (the victim-before-thief
        draw-order contract makes the RNG schedule reproducible)."""
        config = SystemConfig(
            platform=PlatformConfig(n_processors=4),
            paradigm="locking", policy="work-steal",
            traffic=_traffic("poisson", 2, 22_000.0),
            duration_us=60_000.0, warmup_us=5_000.0, seed=9,
        )
        runner = SweepRunner(jobs=4, cache=None)
        first, second = runner.run_many([config, config])
        assert first == second
        serial = run_simulation(config)
        assert first == serial

    @pytest.mark.parametrize("policy,kwargs", [
        ("flow-steer", {}), ("grouped", {}), ("work-steal", {}),
    ])
    def test_zoo_repeat_runs_identical(self, policy, kwargs):
        a = _summary(policy, kwargs)
        b = _summary(policy, kwargs)
        assert a == b
