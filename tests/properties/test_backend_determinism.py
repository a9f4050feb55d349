"""Execution backends can never affect results — property-based contract.

The affinity machinery (MRU routing, fair-share splitting, idle stealing,
chunked dispatch, warm model reuse) exists purely for wall-clock: every
config carries its own seed, so *where* and *in what grouping* a task
runs must be invisible in the output.  Hypothesis drives the adversarial
levers — submission order, routing mode (including ``scatter``, which
deliberately destroys affinity), and forced chunk sizes — and demands
bit-identity with the serial reference.

A separate deterministic case forces idle stealing (more workers than one
key's fair share leaves a worker with an empty queue, so its first
dispatch must steal) and checks the steal is observable in the counters
while the results stay untouched.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.runner import SweepRunner, WarmOptions
from repro.sim.system import SystemConfig, run_simulation

from ..conftest import fast_config


def _cfg(**overrides) -> SystemConfig:
    overrides.setdefault("duration_us", 25_000.0)
    overrides.setdefault("warmup_us", 5_000.0)
    return fast_config(**overrides)


#: Two workload families (distinct affinity keys) interleaved, so routing
#: has real grouping decisions to make.
@functools.lru_cache(maxsize=1)
def _grid() -> Tuple[SystemConfig, ...]:
    out: List[SystemConfig] = []
    for seed in (1, 2, 3):
        out.append(_cfg(seed=seed))
        out.append(_cfg(seed=seed, paradigm="ips", policy="ips-mru"))
    return tuple(out)


@functools.lru_cache(maxsize=1)
def _reference() -> Tuple[object, ...]:
    return tuple(run_simulation(c) for c in _grid())


@pytest.mark.slow
class TestBackendBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        order=st.permutations(range(6)),
        route=st.sampled_from(["affinity", "scatter"]),
        chunk=st.sampled_from([None, 1, 3]),
    )
    def test_order_backend_routing_chunking_invisible(
            self, order, route, chunk):
        grid, ref = _grid(), _reference()
        runner = SweepRunner(
            jobs=2, backend="warm",
            warm_options=WarmOptions(route=route, chunk_tasks=chunk))
        try:
            got = runner.run_many([grid[i] for i in order])
        finally:
            runner.close()
        assert got == [ref[i] for i in order]

    def test_forced_steal_is_counted_and_invisible(self):
        # One affinity key, 5 tasks, 4 workers: fair share is 2, so at
        # least one worker starts with an empty queue and its first
        # dispatch must steal from a peer's tail.
        configs = [_cfg(seed=s) for s in (1, 2, 3, 4, 5)]
        serial = SweepRunner(jobs=0).run_many(configs)
        runner = SweepRunner(jobs=4, backend="warm",
                             warm_options=WarmOptions(chunk_tasks=1))
        try:
            assert runner.run_many(configs) == serial
            assert runner.stats.steals >= 1
        finally:
            runner.close()

    def test_serial_backend_is_the_reference(self):
        # jobs<=1 always routes through the serial backend, whatever the
        # configured backend name says.
        grid, ref = _grid(), _reference()
        runner = SweepRunner(jobs=1, backend="warm")
        assert runner.run_many(list(grid)) == list(ref)
        assert runner.stats.chunks == 0
