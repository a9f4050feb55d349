"""Bit-identity of vectorized arrival pregeneration.

The simulator pregenerates per-stream interarrival gaps and batch sizes
in chunks (:meth:`ArrivalProcess.next_batches_array`) instead of drawing one
batch per arrival event.  The hot-path overhaul is only admissible
because the chunked draws reproduce the event-by-event draw sequence
*bit for bit* from the same RNG state — these tests enforce that
contract for every :class:`ArrivalProcess` type, across seeds and chunk
splits (including the churned-session draw order: lifetime first, then
gaps, from the per-session RNG substream).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.arrivals import (
    ArrivalProcess,
    BatchPoissonSpec,
    DeterministicSpec,
    OnOffSpec,
    PoissonSpec,
)
from repro.workloads.packet_train import PacketTrainSpec
from repro.workloads.replay import ReplaySpec

SEEDS = [0, 1, 12345, 987654321]

#: Chunk splits summing to 64: even, uneven, and degenerate (all-ones
#: equals the historical one-draw-per-event scheme by construction).
SPLITS = [
    [64],
    [16, 16, 16, 16],
    [1, 2, 3, 58],
    [63, 1],
    [1] * 64,
]

SPECS = {
    "poisson": PoissonSpec(5_000.0),
    "deterministic": DeterministicSpec(2_000.0, phase_us=37.5),
    "batch_poisson": BatchPoissonSpec(5_000.0, mean_batch=6.0),
    "onoff": OnOffSpec(peak_rate_pps=8_000.0, mean_on_us=700.0,
                       mean_off_us=450.0),
    "packet_train": PacketTrainSpec(mean_train_len=5.0, inter_car_us=12.0,
                                    inter_train_us=900.0,
                                    exponential_car_gaps=True),
    "replay": ReplaySpec(times_us=(10.0, 12.0, 47.0, 200.0), loop=True),
}


def drain_scalar(process: ArrivalProcess, n: int):
    """The historical event-by-event draw sequence."""
    gaps, sizes = [], []
    for _ in range(n):
        gap, size = process.next_batch()
        gaps.append(gap)
        sizes.append(size)
    return gaps, sizes


def drain_chunked(process: ArrivalProcess, split):
    """The pregenerated sequence, refilled chunk by chunk."""
    gaps, sizes = [], []
    for n in split:
        chunk_gaps, chunk_sizes = process.next_batches_array(n)
        assert chunk_gaps.dtype == np.float64 and len(chunk_gaps) == n
        gaps.extend(chunk_gaps.tolist())
        sizes.extend(chunk_sizes.tolist() if chunk_sizes is not None
                     else [1] * n)
    return gaps, sizes


@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("split", SPLITS, ids=lambda s: "+".join(map(str, s[:4])) + ("..." if len(s) > 4 else ""))
def test_chunked_equals_scalar_bitwise(spec_name, seed, split):
    """next_batches_array chunks == repeated next_batch, value for value.

    Equality is exact (``==`` on floats, no tolerance): the simulator's
    golden regression baseline depends on the draws being bit-identical,
    not merely close.
    """
    spec = SPECS[spec_name]
    scalar = spec.build(np.random.default_rng(seed))
    chunked = spec.build(np.random.default_rng(seed))
    n = sum(split)
    want_gaps, want_sizes = drain_scalar(scalar, n)
    got_gaps, got_sizes = drain_chunked(chunked, split)
    assert got_gaps == want_gaps
    assert got_sizes == want_sizes


@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_rng_state_identical_after_chunking(spec_name):
    """After equal draw counts, both samplers' RNGs are in the same state
    (nothing downstream of the stream substream can ever diverge)."""
    spec = SPECS[spec_name]
    rng_a = np.random.default_rng(77)
    rng_b = np.random.default_rng(77)
    drain_scalar(spec.build(rng_a), 50)
    drain_chunked(spec.build(rng_b), [13, 37])
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_churned_session_draw_order(seed):
    """Churned sessions draw lifetime first, then gaps, from one RNG.

    Mirrors ``NetworkProcessingSystem._open_session``: the exponential
    lifetime draw precedes the Poisson gap draws on the *same* per-session
    substream, so pregeneration must leave that prefix untouched and then
    reproduce the scalar gap sequence exactly.
    """
    mean_lifetime_us, rate_pps = 30_000.0, 4_000.0

    def open_session(rng, drain, arg):
        lifetime_us = float(rng.exponential(mean_lifetime_us))
        process = PoissonSpec(rate_pps).build(rng)
        gaps, sizes = drain(process, arg)
        return lifetime_us, gaps, sizes

    scalar = open_session(np.random.default_rng(seed), drain_scalar, 48)
    chunked = open_session(np.random.default_rng(seed), drain_chunked,
                           [16, 1, 31])
    assert scalar == chunked


def test_chunks_past_horizon_are_invisible():
    """Discarding unconsumed tail draws cannot perturb other streams:
    each stream samples a private RNG, so two streams' sequences are
    unchanged whether or not the other overdraws."""
    spec = SPECS["poisson"]
    lone = spec.build(np.random.default_rng(5))
    want, _ = drain_scalar(lone, 8)
    paired = spec.build(np.random.default_rng(5))
    other = spec.build(np.random.default_rng(6))
    other.next_batches_array(1024)  # massive overdraw on a sibling stream
    got, _ = drain_chunked(paired, [8])
    assert got == want


def test_next_batches_rejects_nonpositive():
    for spec in SPECS.values():
        process = spec.build(np.random.default_rng(1))
        with pytest.raises(ValueError):
            process.next_batches_array(0)
        with pytest.raises(ValueError):
            process.next_batches_array(-3)


def test_batch_sizes_none_means_all_single():
    """The ``sizes is None`` compression is only ever used when every
    batch is a single packet."""
    bursty = SPECS["batch_poisson"].build(np.random.default_rng(3))
    gaps, sizes = bursty.next_batches_array(256)
    assert sizes is not None and (sizes > 1).any()
    for name in ("poisson", "deterministic"):
        single = SPECS[name].build(np.random.default_rng(3))
        _, sizes = single.next_batches_array(256)
        assert sizes is None
