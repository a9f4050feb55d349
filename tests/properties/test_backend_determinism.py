"""Execution backends can never affect results — property-based contract.

The warm machinery (one shared task queue, chunked dispatch) exists
purely for wall-clock: every config carries its own seed,
so *where* and *in what grouping* a task runs must be invisible in the
output.  Hypothesis drives the adversarial levers — submission order and
forced chunk sizes (the sizer's constants patched) — and demands
bit-identity with the serial reference.

A separate deterministic case makes chunks mix configs with different
exec-model parameters inside one worker, and demands the same.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.params import PAPER_COSTS
from repro.runner import SweepRunner
from repro.runner.backends import fleet as fleet_mod
from repro.sim.system import SystemConfig, run_simulation

from ..conftest import fast_config


def _cfg(**overrides) -> SystemConfig:
    overrides.setdefault("duration_us", 25_000.0)
    overrides.setdefault("warmup_us", 5_000.0)
    return fast_config(**overrides)


#: Two workload families interleaved, so chunks mix paradigms and
#: policies.  24 tasks on 2 workers x 2 slots give a per-batch chunk cap
#: of ceil(24 / 8) = 3, so every forced chunk size below survives it.
#: The first fill sends four one-task probes (the sizer has measured
#: nothing yet); every later chunk takes the forced size.
_PROBES = 4


def _force_chunks(mp: pytest.MonkeyPatch, size: int) -> None:
    """Make every post-probe warm lease ``size`` tasks: the sizing
    target out of reach, the cap at ``size``."""
    mp.setattr(fleet_mod, "_TARGET_CHUNK_S", 1e9)
    mp.setattr(fleet_mod, "_MAX_LEASE_TASKS", size)

@functools.lru_cache(maxsize=1)
def _grid() -> Tuple[SystemConfig, ...]:
    out: List[SystemConfig] = []
    for seed in range(1, 13):
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
        order=st.permutations(range(24)),
        chunk=st.sampled_from([None, 1, 3]),
    )
    def test_order_backend_routing_chunking_invisible(self, order, chunk):
        grid, ref = _grid(), _reference()
        # Hypothesis reuses function-scoped fixtures across examples, so
        # each example patches in its own context.
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                _force_chunks(mp, chunk)
            runner = SweepRunner(jobs=2, backend="warm")
            try:
                got = runner.run_many([grid[i] for i in order])
            finally:
                runner.close()
        assert got == [ref[i] for i in order]
        if chunk is not None:
            # A forced size is dispatched as given after the probes: 20
            # more one-task chunks, or 7 chunks of up to three tasks that
            # each mix configs.
            assert runner.stats.chunks == \
                _PROBES + -(-(len(grid) - _PROBES) // chunk)

    def test_chunks_mixing_exec_model_params_are_invisible(self, monkeypatch):
        # 16 tasks on 2 workers x 2 slots: after the four probes, chunks
        # of 2 adjacent tasks, each pairing the paper's costs with a
        # doubled t_cold.
        costly = dataclasses.replace(
            PAPER_COSTS, t_cold_us=PAPER_COSTS.t_cold_us * 2)
        configs = [_cfg(seed=s, costs=costly if s % 2 else PAPER_COSTS)
                   for s in range(16)]
        serial = SweepRunner(jobs=0).run_many(configs)
        _force_chunks(monkeypatch, 2)
        runner = SweepRunner(jobs=2, backend="warm")
        try:
            assert runner.run_many(configs) == serial
            assert runner.stats.chunks == _PROBES + (16 - _PROBES) // 2
        finally:
            runner.close()

    def test_serial_backend_is_the_reference(self):
        # jobs<=1 always routes through the serial backend, whatever the
        # configured backend name says.
        grid, ref = _grid(), _reference()
        runner = SweepRunner(jobs=1, backend="warm")
        assert runner.run_many(list(grid)) == list(ref)
        assert runner.stats.chunks == 0
