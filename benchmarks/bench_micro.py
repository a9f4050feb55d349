"""Micro-benchmarks of the reproduction's hot paths.

These characterize the library itself (not the paper's platform): the
per-packet cost of the analytic model, the discrete-event core, the
trace-driven cache simulator, and the Python protocol fast path.  Useful
for catching performance regressions in the simulator — the experiment
sweeps execute millions of these operations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.hierarchy import sgi_challenge_hierarchy
from repro.cache.simulator import CacheSimulator
from repro.cache.traces import zipf_trace
from repro.core.exec_model import ComponentState, ExecutionTimeModel
from repro.core.params import PAPER_COMPOSITION, PAPER_COSTS
from repro.sim.engine import Simulator
from repro.sim.system import run_simulation
from repro.workloads.traffic import TrafficSpec
from repro.xkernel.driver import StreamEndpoint
from repro.xkernel.stack import ReceiveFastPath


def test_exec_model_scalar_evaluation(benchmark):
    """Per-packet execution-time evaluation (the simulator's inner loop)."""
    model = ExecutionTimeModel(PAPER_COSTS, PAPER_COMPOSITION,
                               sgi_challenge_hierarchy())
    state = ComponentState(code_refs=5_000.0, stream_refs=20_000.0,
                           thread_refs=float("inf"))
    out = benchmark(lambda: model.execution_time_us(state, locking=True))
    assert PAPER_COSTS.t_warm_us < out < PAPER_COSTS.t_cold_us + 50.0


def test_exec_model_vectorized_curve(benchmark):
    """Vectorized t(x) evaluation over a 1000-point sweep."""
    model = ExecutionTimeModel(PAPER_COSTS, PAPER_COMPOSITION,
                               sgi_challenge_hierarchy())
    xs = np.logspace(0, 7, 1000)
    out = benchmark(lambda: model.execution_time_after_idle(xs))
    assert out.shape == (1000,)


def test_event_engine_throughput(benchmark):
    """Schedule + fire 10k chained events."""
    def run():
        sim = Simulator()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run_until(2e4)
        return sim.events_processed

    assert benchmark(run) == 10_000


def test_cache_simulator_trace(benchmark):
    """Exact LRU simulation of a 50k-reference Zipf trace."""
    from repro.cache.hierarchy import R4400_L1D
    trace = zipf_trace(50_000, 256 * 1024,
                       rng=np.random.default_rng(1), skew=1.3)

    def run():
        sim = CacheSimulator(R4400_L1D)
        return sim.access_trace(trace).misses

    assert benchmark(run) > 0


def test_xkernel_fast_path_packets_per_second(benchmark):
    """Python UDP/IP/FDDI receive processing, 64 B packets."""
    streams = [StreamEndpoint(f"10.2.0.{i+1}", 6000 + i, 7100 + i)
               for i in range(4)]
    fp = ReceiveFastPath.build(streams)
    frames = fp.driver.round_robin(512, payload_bytes=64)
    idx = [0]

    def one():
        fp.graph.receive(frames[idx[0] & 511])
        idx[0] += 1

    benchmark(one)


def test_simulation_packets_per_second(benchmark):
    """End-to-end DES throughput: one 100 ms simulated run."""
    cfg_kwargs = dict(
        traffic=TrafficSpec.homogeneous_poisson(8, 20_000.0),
        paradigm="locking", policy="mru",
        duration_us=100_000.0, warmup_us=10_000.0, seed=2,
    )
    from repro.sim.system import SystemConfig

    def run():
        return run_simulation(SystemConfig(**cfg_kwargs)).n_packets

    assert benchmark.pedantic(run, rounds=3, iterations=1) > 1000


def _recurring_states():
    """The handful of states the simulator's hot loop keeps revisiting."""
    inf = float("inf")
    return [
        ComponentState(code_refs=0.0, stream_refs=0.0, thread_refs=0.0),
        ComponentState(code_refs=inf, stream_refs=inf, thread_refs=inf),
        ComponentState(code_refs=0.0, stream_refs=inf, thread_refs=0.0),
        ComponentState(code_refs=5_000.0, stream_refs=20_000.0,
                       thread_refs=inf, shared_invalidated=True),
    ]


def test_component_penalty_fast_path(benchmark):
    """Per-state penalty lookup on the fast path (analytic states, dedup,
    the bounded per-count memo)."""
    model = ExecutionTimeModel(PAPER_COSTS, PAPER_COMPOSITION,
                               sgi_challenge_hierarchy())
    states = _recurring_states() * 250

    def run():
        total = 0.0
        for s in states:
            total += model.component_penalty_us(s)
        return total

    assert benchmark(run) > 0


def test_component_penalty_uncached(benchmark):
    """Same lookup through the reference computation — the before/after
    comparison."""
    model = ExecutionTimeModel(PAPER_COSTS, PAPER_COMPOSITION,
                               sgi_challenge_hierarchy())
    states = _recurring_states() * 250

    def run():
        total = 0.0
        for s in states:
            total += model._component_penalty_uncached(s)
        return total

    assert benchmark(run) > 0
