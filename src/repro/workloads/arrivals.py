"""Per-stream packet arrival processes.

The paper's main results use independent per-stream Poisson arrivals; the
burstiness study uses batch (bursty) arrivals on a stream.  Each process
is a small stateful object sampled event-by-event by the simulator: the
system asks for the next *batch* — an interarrival gap plus the number of
packets arriving together — which uniformly covers smooth and bursty
processes.

Factories are immutable *specs* (safe to share across experiment sweeps);
``spec.build(rng)`` yields the per-stream stateful sampler bound to that
stream's private RNG substream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "ArrivalArrayChunk",
    "ArrivalBatch",
    "ArrivalProcess",
    "ArrivalSpec",
    "PoissonArrivals",
    "PoissonSpec",
    "DeterministicArrivals",
    "DeterministicSpec",
    "BatchPoissonArrivals",
    "BatchPoissonSpec",
    "OnOffArrivals",
    "OnOffSpec",
]

#: ``(gap_us, batch_size)``: the next batch arrives ``gap_us`` after the
#: previous batch, containing ``batch_size`` simultaneous packets.
ArrivalBatch = Tuple[float, int]

#: ``(gaps_us, batch_sizes)`` for a pregenerated chunk of batches: a
#: ``float64`` gap array and an integer size array, or ``None`` sizes
#: when every batch is a single packet (the common case, spared an array
#: of ones).
ArrivalArrayChunk = Tuple[np.ndarray, Optional[np.ndarray]]


class ArrivalProcess(ABC):
    """Stateful per-stream arrival sampler."""

    @abstractmethod
    def next_batch(self) -> ArrivalBatch:
        """Sample the next ``(interarrival_gap_us, batch_size)``."""

    def next_batches_array(self, n: int) -> ArrivalArrayChunk:
        """Pregenerate the next ``n`` batches in one call.

        Returns ``(gaps_us, batch_sizes)``: a ``float64`` array and an
        integer array, or ``None`` sizes when every batch contains exactly
        one packet.  Both engines consume this block form: the batched
        core (:mod:`repro.sim.batch`) merges streams with vectorized
        cumulative sums, the scalar engine reads it one batch per event.

        **Contract (bit-identity):** the concatenation of chunks must
        reproduce, value for value, the sequence that repeated
        :meth:`next_batch` calls would have produced from the same RNG
        state — runs stay bit-identical with event-by-event sampling.
        The default implementation simply loops :meth:`next_batch`;
        subclasses may vectorize only where NumPy's bulk sampling is
        stream-equivalent to repeated scalar sampling (e.g.
        ``Generator.exponential``), which the property tests in
        ``tests/workloads/test_arrival_pregen.py`` enforce for every
        process type.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        gaps: List[float] = []
        sizes: List[int] = []
        all_single = True
        next_batch = self.next_batch
        for _ in range(n):
            gap, size = next_batch()
            gaps.append(gap)
            sizes.append(size)
            if size != 1:
                all_single = False
        return (
            np.asarray(gaps, dtype=np.float64),
            None if all_single else np.asarray(sizes, dtype=np.int64),
        )

    def iter_batches(self, horizon_us: float) -> Iterator[Tuple[float, int]]:
        """Yield ``(absolute_time_us, batch_size)`` up to a horizon."""
        t = 0.0
        while True:
            gap, size = self.next_batch()
            t += gap
            if t > horizon_us:
                return
            yield t, size


class ArrivalSpec(ABC):
    """Immutable factory for arrival processes."""

    @abstractmethod
    def build(self, rng: np.random.Generator) -> ArrivalProcess:
        """Create the stateful sampler for one stream."""

    @property
    @abstractmethod
    def mean_rate_pps(self) -> float:
        """Long-run packet rate (packets/second) of one stream."""


# ----------------------------------------------------------------------
# Poisson
# ----------------------------------------------------------------------
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals (single packets)."""

    def __init__(self, rate_pps: float, rng: np.random.Generator) -> None:
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        self._mean_gap_us = 1e6 / rate_pps
        self._rng = rng

    def next_batch(self) -> ArrivalBatch:
        return float(self._rng.exponential(self._mean_gap_us)), 1

    def next_batches_array(self, n: int) -> ArrivalArrayChunk:
        """Vectorized pregeneration.

        ``Generator.exponential(scale, n)`` consumes the bit stream
        exactly as ``n`` scalar ``exponential(scale)`` calls do, so the
        chunk is bit-identical to event-by-event sampling (asserted by
        the pregeneration property tests).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        return self._rng.exponential(self._mean_gap_us, n), None


@dataclass(frozen=True)
class PoissonSpec(ArrivalSpec):
    """Poisson arrivals at ``rate_pps`` packets/second."""

    rate_pps: float

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ValueError("rate_pps must be positive")

    def build(self, rng: np.random.Generator) -> PoissonArrivals:
        return PoissonArrivals(self.rate_pps, rng)

    @property
    def mean_rate_pps(self) -> float:
        return self.rate_pps


# ----------------------------------------------------------------------
# Deterministic
# ----------------------------------------------------------------------
class DeterministicArrivals(ArrivalProcess):
    """Evenly spaced arrivals (used for validation and capacity probing)."""

    def __init__(self, rate_pps: float, phase_us: float = 0.0) -> None:
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        self._gap_us = 1e6 / rate_pps
        self._first = True
        self._phase_us = phase_us

    def next_batch(self) -> ArrivalBatch:
        if self._first:
            self._first = False
            return self._phase_us + self._gap_us, 1
        return self._gap_us, 1

    def next_batches_array(self, n: int) -> ArrivalArrayChunk:
        if n <= 0:
            raise ValueError("n must be positive")
        gaps = np.full(n, self._gap_us)
        if self._first:
            self._first = False
            gaps[0] = self._phase_us + self._gap_us
        return gaps, None


@dataclass(frozen=True)
class DeterministicSpec(ArrivalSpec):
    """Deterministic arrivals at ``rate_pps``, optionally phase-shifted."""

    rate_pps: float
    phase_us: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if self.phase_us < 0:
            raise ValueError("phase_us must be non-negative")

    def build(self, rng: np.random.Generator) -> DeterministicArrivals:
        return DeterministicArrivals(self.rate_pps, self.phase_us)

    @property
    def mean_rate_pps(self) -> float:
        return self.rate_pps


# ----------------------------------------------------------------------
# Batch Poisson (intra-stream burstiness)
# ----------------------------------------------------------------------
class BatchPoissonArrivals(ArrivalProcess):
    """Poisson batch instants; geometric batch sizes (mean ``burst``).

    The standard bursty-arrival abstraction: packets arrive in back-to-back
    bursts whose size is geometric with mean ``mean_batch``; batch instants
    form a Poisson process whose rate is scaled down so the long-run packet
    rate stays ``rate_pps``.  ``mean_batch = 1`` degenerates to plain
    Poisson — which is how experiments sweep burstiness at constant load
    (the paper: IPS "exhibits less robust response to intra-stream
    burstiness").
    """

    def __init__(self, rate_pps: float, mean_batch: float,
                 rng: np.random.Generator) -> None:
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if mean_batch < 1.0:
            raise ValueError("mean_batch must be >= 1")
        self._batch_gap_us = mean_batch * 1e6 / rate_pps
        self._p = 1.0 / mean_batch  # geometric success prob, support {1,2,..}
        self._rng = rng

    def next_batch(self) -> ArrivalBatch:
        gap = float(self._rng.exponential(self._batch_gap_us))
        size = int(self._rng.geometric(self._p))
        return gap, size

    # next_batches_array: the exponential/geometric draws interleave per batch,
    # so no bulk NumPy call can reproduce the scalar draw order; the base
    # implementation's scalar loop keeps pregeneration bit-identical.


@dataclass(frozen=True)
class BatchPoissonSpec(ArrivalSpec):
    """Bursty arrivals: Poisson bursts of geometric size ``mean_batch``."""

    rate_pps: float
    mean_batch: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if self.mean_batch < 1.0:
            raise ValueError("mean_batch must be >= 1")

    def build(self, rng: np.random.Generator) -> BatchPoissonArrivals:
        return BatchPoissonArrivals(self.rate_pps, self.mean_batch, rng)

    @property
    def mean_rate_pps(self) -> float:
        return self.rate_pps


# ----------------------------------------------------------------------
# ON-OFF (Markov-modulated)
# ----------------------------------------------------------------------
class OnOffArrivals(ArrivalProcess):
    """Two-state ON-OFF source.

    During exponentially distributed ON periods, packets arrive Poisson at
    ``peak_rate_pps``; OFF periods (also exponential) are silent.  The
    long-run mean rate is ``peak * on/(on+off)``.
    """

    def __init__(self, peak_rate_pps: float, mean_on_us: float,
                 mean_off_us: float, rng: np.random.Generator) -> None:
        if peak_rate_pps <= 0:
            raise ValueError("peak_rate_pps must be positive")
        if mean_on_us <= 0 or mean_off_us < 0:
            raise ValueError("need mean_on_us > 0 and mean_off_us >= 0")
        self._gap_us = 1e6 / peak_rate_pps
        self._mean_on = mean_on_us
        self._mean_off = mean_off_us
        self._rng = rng
        self._on_remaining = float(rng.exponential(mean_on_us))

    def next_batch(self) -> ArrivalBatch:
        gap = float(self._rng.exponential(self._gap_us))
        extra_off = 0.0
        # Consume ON time; interleave OFF periods whenever it runs out.
        while gap > self._on_remaining:
            gap -= self._on_remaining
            extra_off += float(self._rng.exponential(self._mean_off))
            self._on_remaining = float(self._rng.exponential(self._mean_on))
        self._on_remaining -= gap
        return gap + extra_off, 1


@dataclass(frozen=True)
class OnOffSpec(ArrivalSpec):
    """Markov-modulated ON-OFF source."""

    peak_rate_pps: float
    mean_on_us: float
    mean_off_us: float

    def __post_init__(self) -> None:
        if self.peak_rate_pps <= 0:
            raise ValueError("peak_rate_pps must be positive")
        if self.mean_on_us <= 0 or self.mean_off_us < 0:
            raise ValueError("need mean_on_us > 0 and mean_off_us >= 0")

    def build(self, rng: np.random.Generator) -> OnOffArrivals:
        return OnOffArrivals(self.peak_rate_pps, self.mean_on_us,
                             self.mean_off_us, rng)

    @property
    def mean_rate_pps(self) -> float:
        duty = self.mean_on_us / (self.mean_on_us + self.mean_off_us)
        return self.peak_rate_pps * duty
