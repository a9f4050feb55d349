"""Property tests: the batched execution paths equal the scalar ones.

Two layers (``docs/PERFORMANCE.md``):

- system: full runs under ``REPRO_ENGINE=batched`` vs ``scalar``,
  compared on summaries, metrics columns, queue/backlog state and model
  counters — over randomized workloads, over batch-Poisson and
  packet-train arrivals (a batch is one event of several packets), and
  over an adversarial all-streams-tied deterministic workload that forces
  the exact cross-stream-tie merge fallback (``_merge_with_push_order``);
- support: every registered policy on every fused arrival spec runs
  fused.

Equality is asserted exactly (``==``, no tolerance): the batched engine's
contract is bit-identity, not approximation.
"""

from __future__ import annotations

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.hierarchy import sgi_challenge_hierarchy
from repro.core.params import PlatformConfig
from repro.core.policies import IPS_POLICIES, LOCKING_POLICIES, MRUPolicy
from repro.sim import batch
from repro.sim.system import NetworkProcessingSystem, SystemConfig
from repro.workloads.arrivals import BatchPoissonSpec, DeterministicSpec, PoissonSpec
from repro.workloads.packet_train import PacketTrainSpec
from repro.workloads.traffic import FixedSize, TrafficSpec

# ----------------------------------------------------------------------
# System layer
# ----------------------------------------------------------------------

def _system_state(system, summary):
    """Deep observable state of a finished run (exact-comparable)."""
    m = system.metrics
    m._flush_block()
    d = system.dispatcher
    state = {
        "summary": summary,
        "cols": (
            list(m._col_stream), list(m._col_arrival), list(m._col_start),
            list(m._col_completion), list(m._col_exec),
            list(m._col_lock_wait), list(m._col_proc),
        ),
        "counts": (m.arrivals, m.completions, m.backlog, m.max_backlog),
        "heap": sorted((t, q) for (t, q, _r) in system.sim._heap),
        "events": system.sim._events_processed,
        "now": system.sim._now,
        "packet_counter": system._packet_counter,
        "idle": list(d._idle),
        # Same draw count on the scheduling substream (reading it creates
        # a fresh one where neither engine drew).
        "sched_rng": system.rngs.scheduling.bit_generator.state,
        "model": (
            system.model._n_fast_calls, system.model._n_analytic_hits,
            system.model._n_cache_hits, system.model._n_flush_computes,
        ),
        "procs": [
            (p.busy, p._ref_clock, p.nonprotocol_us, p.protocol_busy_us,
             dict(p._last_touch))
            for p in system.processors
        ],
    }
    if hasattr(d, "threads"):
        pol = d.policy
        # MRU-family policies keep one shared queue; the per-processor
        # queue policies keep one list of per-processor (or per-group)
        # queues.
        queues = [pol._queue] if hasattr(pol, "_queue") else pol._queues
        state["queue"] = [
            [(p.packet_id, p.stream_id, p.arrival_us) for p in q]
            for q in queues
        ]
        state["free_threads"] = list(d.threads._free)
        state["thread_last_proc"] = dict(d.threads._last_proc)
        state["migrations"] = d.migrations
        state["stream_last_proc"] = dict(d._stream_last_proc)
        for counter in ("resteers", "steals"):
            if hasattr(pol, counter):
                state[counter] = getattr(pol, counter)
        if hasattr(pol, "_steer"):
            state["steer"] = dict(pol._steer)
    else:
        state["queues"] = [
            [(p.packet_id, p.stream_id, p.arrival_us) for p in q]
            for q in d._queues
        ]
        state["migrations"] = d.migrations
        state["stream_last_proc"] = dict(d._stream_last_proc)
        state["stack_busy"] = list(d._stack_busy)
        state["stack_last_proc"] = dict(d._stack_last_proc)
    return state


def _run_both(config_kwargs, monkeypatch_env):
    states = {}
    for mode in ("scalar", "batched"):
        monkeypatch_env.setenv(batch.ENGINE_ENV, mode)
        system = NetworkProcessingSystem(SystemConfig(**config_kwargs))
        summary = system.run()
        states[mode] = _system_state(system, summary)
    return states


_CASES = [
    ("locking", "mru"),
    ("locking", "fcfs"),
    ("locking", "stream-mru"),
    ("locking", "wired-streams"),
    ("locking", "pools"),
    ("locking", "flow-steer"),
    ("locking", "grouped"),
    ("locking", "hybrid"),
    ("locking", "work-steal"),
    ("ips", "ips-mru"),
    ("ips", "ips-wired"),
    ("ips", "ips-random"),
]


@pytest.mark.parametrize("paradigm,policy", _CASES)
def test_full_system_batched_equals_scalar(paradigm, policy, monkeypatch):
    """Poisson workload, both engines, deep state equality."""
    traffic = TrafficSpec(
        stream_specs=tuple(PoissonSpec(2_500.0) for _ in range(4)),
        size_model=FixedSize(1024),
    )
    states = _run_both(
        dict(paradigm=paradigm, policy=policy, traffic=traffic,
             duration_us=120_000.0, warmup_us=20_000.0, seed=3),
        monkeypatch,
    )
    assert states["scalar"] == states["batched"]


@pytest.mark.parametrize("n_stacks", [2, 6])
@pytest.mark.parametrize("policy", sorted(IPS_POLICIES))
def test_ips_stack_count_batched_equals_scalar(policy, n_stacks, monkeypatch):
    """IPS with fewer and with more stacks than its 4 processors: the
    per-stack serving-context tables are sized by the stack count, not
    the processor count, and ``ips-wired`` wires stack ``k`` to processor
    ``k mod 4`` (with 6 stacks, two processors own two stacks each)."""
    traffic = TrafficSpec(
        stream_specs=tuple(PoissonSpec(3_000.0) for _ in range(8)),
        size_model=FixedSize(1024),
    )
    states = _run_both(
        dict(paradigm="ips", policy=policy, traffic=traffic,
             n_stacks=n_stacks, platform=PlatformConfig(n_processors=4),
             duration_us=100_000.0, warmup_us=10_000.0, seed=6),
        monkeypatch,
    )
    assert states["scalar"] == states["batched"]
    assert len(states["batched"]["stack_busy"]) == n_stacks
    # Every stack served work and has a last processor.
    assert None not in states["batched"]["stack_last_proc"].values()


@pytest.mark.parametrize("paradigm,policy", [
    ("locking", "mru"), ("locking", "pools"), ("ips", "ips-mru"),
    ("locking", "fcfs"),
])
def test_set_associative_batched_equals_scalar(paradigm, policy, monkeypatch):
    """2-way cache levels, one policy per thread model and paradigm: the
    penalty kernel takes the binomial model instead of the direct-mapped
    closed form."""
    hierarchy = sgi_challenge_hierarchy()
    two_way = dataclasses.replace(hierarchy, levels=tuple(
        dataclasses.replace(level, associativity=2)
        for level in hierarchy.levels))
    traffic = TrafficSpec(
        stream_specs=tuple(PoissonSpec(2_500.0) for _ in range(4)),
        size_model=FixedSize(1024),
    )
    states = _run_both(
        dict(paradigm=paradigm, policy=policy, traffic=traffic,
             platform=PlatformConfig(hierarchy=two_way),
             duration_us=120_000.0, warmup_us=20_000.0, seed=3),
        monkeypatch,
    )
    assert states["scalar"] == states["batched"]
    _calls, analytic, _hits, computes = states["batched"]["model"]
    assert analytic > 0 and computes > 0


@pytest.mark.parametrize("paradigm,policy", [
    ("locking", "mru"), ("locking", "wired-streams"), ("locking", "pools"),
    ("locking", "flow-steer"), ("locking", "grouped"), ("locking", "hybrid"),
    ("locking", "work-steal"), ("ips", "ips-mru"), ("ips", "ips-random"),
    ("locking", "fcfs"), ("locking", "stream-mru"),
])
def test_saturated_batched_equals_scalar(paradigm, policy, monkeypatch):
    """Deep-overload deterministic workload (the benchmark's regime):
    exercises the bulk-arrival sweep and the end-of-run queue fold."""
    traffic = TrafficSpec(
        stream_specs=tuple(
            DeterministicSpec(12_500.0, phase_us=7.0 * i) for i in range(8)
        ),
        size_model=FixedSize(1024),
    )
    states = _run_both(
        dict(paradigm=paradigm, policy=policy, traffic=traffic,
             duration_us=100_000.0, warmup_us=40_000.0, seed=2),
        monkeypatch,
    )
    assert states["scalar"] == states["batched"]


@pytest.mark.parametrize("paradigm,policy", [
    ("locking", "mru"), ("locking", "fcfs"), ("locking", "wired-streams"),
    ("locking", "pools"), ("locking", "flow-steer"), ("locking", "grouped"),
    ("ips", "ips-wired"), ("locking", "stream-mru"),
])
def test_exact_cross_stream_ties_batched_equals_scalar(
    paradigm, policy, monkeypatch,
):
    """Every stream arrives at identical float timestamps (equal rate,
    equal phase): the stable-argsort merge cannot order these, so the
    pregenerator must fall back to ``_merge_with_push_order`` — the
    per-event engine's push order — to stay bit-identical."""
    traffic = TrafficSpec(
        stream_specs=tuple(
            DeterministicSpec(1_000.0, phase_us=5.0) for _ in range(6)
        ),
        size_model=FixedSize(1024),
    )
    states = _run_both(
        dict(paradigm=paradigm, policy=policy, traffic=traffic,
             duration_us=80_000.0, warmup_us=10_000.0, seed=4),
        monkeypatch,
    )
    assert states["scalar"] == states["batched"]
    # The workload genuinely produced cross-stream ties (6 streams share
    # every timestamp), so the fallback path was the one under test.
    arrivals = states["batched"]["cols"][1]
    assert len(arrivals) != len(set(arrivals))


@given(
    paradigm_policy=st.sampled_from(_CASES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_streams=st.integers(min_value=1, max_value=6),
    rate=st.floats(min_value=200.0, max_value=12_000.0),
    deterministic=st.booleans(),
    data_touching=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_randomized_workloads_batched_equals_scalar(
    paradigm_policy, seed, n_streams, rate, deterministic, data_touching,
):
    """Randomized short workloads across the supported config space."""
    paradigm, policy = paradigm_policy
    per_stream = rate / n_streams
    if deterministic:
        specs = tuple(
            DeterministicSpec(per_stream, phase_us=3.0 * i)
            for i in range(n_streams)
        )
    else:
        specs = tuple(PoissonSpec(per_stream) for _ in range(n_streams))
    traffic = TrafficSpec(stream_specs=specs, size_model=FixedSize(512))
    kwargs = dict(
        paradigm=paradigm, policy=policy, traffic=traffic,
        duration_us=60_000.0, warmup_us=5_000.0, seed=seed,
        data_touching=data_touching,
    )
    states = {}
    import os
    old = os.environ.get(batch.ENGINE_ENV)
    try:
        for mode in ("scalar", "batched"):
            os.environ[batch.ENGINE_ENV] = mode
            system = NetworkProcessingSystem(SystemConfig(**kwargs))
            summary = system.run()
            states[mode] = _system_state(system, summary)
    finally:
        if old is None:
            os.environ.pop(batch.ENGINE_ENV, None)
        else:
            os.environ[batch.ENGINE_ENV] = old
    assert states["scalar"] == states["batched"]


#: Batched arrival shapes: geometric bursts, packet trains with spaced
#: cars, and trains whose cars arrive together (``inter_car_us=0``: each
#: car is its own one-packet event at the same time as the previous one,
#: an exact same-stream tie).
_BATCH_SPECS = {
    "burst": lambda rate: BatchPoissonSpec(rate, mean_batch=4.0),
    "train": lambda rate: PacketTrainSpec.for_rate(rate, 5.0, 20.0),
    "train-tied": lambda rate: PacketTrainSpec.for_rate(rate, 5.0, 0.0),
}


@pytest.mark.parametrize("shape", sorted(_BATCH_SPECS))
@pytest.mark.parametrize("paradigm,policy", [
    ("locking", "mru"), ("locking", "wired-streams"), ("ips", "ips-wired"),
    ("locking", "fcfs"), ("locking", "stream-mru"),
])
def test_batched_arrivals_batched_equals_scalar(
    paradigm, policy, shape, monkeypatch,
):
    """Batch-Poisson and packet-train arrivals (E13's grids): a batch
    expands to same-time packets but stays one event (one stamp, one
    ``seq`` step, one ``_events_processed`` count)."""
    traffic = TrafficSpec(
        stream_specs=tuple(_BATCH_SPECS[shape](3_000.0) for _ in range(4)),
        size_model=FixedSize(1024),
    )
    states = _run_both(
        dict(paradigm=paradigm, policy=policy, traffic=traffic,
             duration_us=100_000.0, warmup_us=10_000.0, seed=5),
        monkeypatch,
    )
    assert states["scalar"] == states["batched"]
    arrivals, completions = states["batched"]["counts"][:2]
    if shape == "burst":
        # Some batch held several packets: fewer events than packets.
        assert states["batched"]["events"] < arrivals + completions
    else:
        assert states["batched"]["events"] == arrivals + completions
    if shape != "train":
        # Same-time packets of one stream really occurred.
        times = states["batched"]["cols"][1]
        assert len(times) != len(set(times))


@given(
    paradigm_policy=st.sampled_from(_CASES),
    shape=st.sampled_from(sorted(_BATCH_SPECS)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_streams=st.integers(min_value=1, max_value=5),
    rate=st.floats(min_value=500.0, max_value=14_000.0),
)
@settings(max_examples=12, deadline=None)
def test_randomized_batched_arrivals_batched_equals_scalar(
    paradigm_policy, shape, seed, n_streams, rate,
):
    paradigm, policy = paradigm_policy
    specs = tuple(
        _BATCH_SPECS[shape](rate / n_streams) for _ in range(n_streams)
    )
    kwargs = dict(
        paradigm=paradigm, policy=policy,
        traffic=TrafficSpec(stream_specs=specs, size_model=FixedSize(512)),
        duration_us=50_000.0, warmup_us=5_000.0, seed=seed,
    )
    # Hypothesis reuses function-scoped fixtures across examples, so each
    # example patches the environment in its own context.
    with pytest.MonkeyPatch.context() as mp:
        states = _run_both(kwargs, mp)
    assert states["scalar"] == states["batched"]


def test_push_order_merge_expands_batches():
    """The exact-tie merge emits a batch's packets together, in scalar
    push order, with every packet but the batch's last marked as a
    continuation (``stream_id - n_streams``)."""
    # Stream 0: batches at t=1 (2 packets) and t=2 (1); stream 1: t=1 (1)
    # and t=2 (3).  Initial pushes go in stream order; stream 0 fires
    # first at t=1, so it also re-pushes (and fires at t=2) first.
    times, sids = batch._merge_with_push_order(
        np.array([1.0, 2.0, 1.0, 2.0]), np.array([2, 1, 1, 3]), [2, 2],
    )
    assert times == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    assert sids == [-2, 0, 1, 0, -1, -1, 1]


_GUARD_SPECS = {
    "poisson": PoissonSpec(2_000.0),
    "deterministic": DeterministicSpec(2_000.0, phase_us=3.0),
    "burst": BatchPoissonSpec(2_000.0, mean_batch=3.0),
    "train": PacketTrainSpec.for_rate(2_000.0, 4.0, 10.0),
}


@pytest.mark.parametrize("spec", sorted(_GUARD_SPECS))
@pytest.mark.parametrize("paradigm,policy", [
    *(("locking", name) for name in LOCKING_POLICIES),
    *(("ips", name) for name in IPS_POLICIES),
])
def test_no_silent_fallback(paradigm, policy, spec):
    """Every registered policy on every fused arrival spec runs fused: a
    change that quietly drops a pair back to the scalar engine fails
    here."""
    traffic = TrafficSpec(
        stream_specs=(_GUARD_SPECS[spec],) * 3, size_model=FixedSize(1024),
    )
    system = NetworkProcessingSystem(SystemConfig(
        paradigm=paradigm, policy=policy, traffic=traffic,
        duration_us=10_000.0, warmup_us=1_000.0, seed=1,
    ))
    assert batch.unsupported_reason(system) is None


def test_policy_subclass_is_not_fused():
    """The support check matches exact policy types: a subclass may
    override behaviour the fused loops inline, so it runs scalar."""
    class CustomMRU(MRUPolicy):
        pass

    traffic = TrafficSpec(
        stream_specs=(PoissonSpec(1_000.0),), size_model=FixedSize(1024),
    )
    system = NetworkProcessingSystem(SystemConfig(
        paradigm="locking", policy="mru", traffic=traffic,
        duration_us=10_000.0, warmup_us=1_000.0, seed=1,
    ))
    system.dispatcher.policy = CustomMRU()
    assert batch.unsupported_reason(system) == "locking policy 'mru' is not fused"


def test_unsupported_config_falls_back_to_scalar(monkeypatch):
    """Configs outside the fused core's support matrix run scalar under
    auto mode and raise under forced batched mode."""
    traffic = TrafficSpec(
        stream_specs=(PoissonSpec(1_000.0),), size_model=FixedSize(1024),
    )
    kwargs = dict(paradigm="locking", policy="mru", traffic=traffic,
                  duration_us=20_000.0, warmup_us=1_000.0, seed=1,
                  check_invariants=True)
    monkeypatch.setenv(batch.ENGINE_ENV, "auto")
    system = NetworkProcessingSystem(SystemConfig(**kwargs))
    assert batch.unsupported_reason(system) is not None
    system.run()  # scalar fallback, no error
    monkeypatch.setenv(batch.ENGINE_ENV, "batched")
    system = NetworkProcessingSystem(SystemConfig(**kwargs))
    with pytest.raises(RuntimeError, match="not supported by the fused core"):
        system.run()


def _stealing_run(policy, policy_kwargs, monkeypatch):
    traffic = TrafficSpec(
        stream_specs=tuple(PoissonSpec(4_000.0) for _ in range(2)),
        size_model=FixedSize(1024),
    )
    kwargs = dict(paradigm="locking", policy=policy,
                  policy_kwargs=policy_kwargs, traffic=traffic,
                  duration_us=60_000.0, warmup_us=1_000.0, seed=1)
    system = NetworkProcessingSystem(SystemConfig(**kwargs))
    assert batch.unsupported_reason(system) is None
    # Forced batched mode raises on a fallback, so this runs fused.
    return _run_both(kwargs, monkeypatch)


def test_work_steal_fused_equals_scalar(monkeypatch):
    """Work stealing runs fused and matches the scalar reference in deep
    state: queues, the ``steals`` counter, the free list and the
    scheduling substream (a victim tie draws before a thief tie)."""
    states = _stealing_run("work-steal", {"steal_threshold": 1}, monkeypatch)
    assert states["scalar"] == states["batched"]
    assert states["batched"]["steals"] > 0


def test_hybrid_fused_equals_scalar(monkeypatch):
    """Hybrid's overflow steal serves a busy processor's queue from an
    idle thief; it runs fused and matches the scalar reference in deep
    state, steals included."""
    states = _stealing_run("hybrid", {"overflow_threshold": 1}, monkeypatch)
    assert states["scalar"] == states["batched"]
    assert states["batched"]["steals"] > 0
