"""Multi-stream traffic descriptions.

A :class:`TrafficSpec` bundles the per-stream arrival specs and the
packet payload size for a whole simulation run, with convenience
constructors for the paper's scenarios (homogeneous Poisson streams; one
bursty stream among smooth ones; a single hot stream for scalability
probing).

Packet sizes matter only when data-touching operations are enabled (E14);
the paper's default results are size-independent ("packet processing time
is dominated by non-data touching operations with generally fixed
per-packet overheads" [10], because "typically in real environments most
packets are small" [5, 10]), so every packet of a run carries the same
:class:`FixedSize` payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from .arrivals import ArrivalSpec, BatchPoissonSpec, PoissonSpec

__all__ = ["FixedSize", "TrafficSpec"]


@dataclass(frozen=True)
class FixedSize:
    """Every packet carries the same payload."""

    size_bytes: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")


@dataclass(frozen=True)
class TrafficSpec:
    """All traffic for one run: one arrival spec per stream + the
    payload size."""

    stream_specs: Tuple[ArrivalSpec, ...]
    size_model: FixedSize = field(default_factory=FixedSize)

    def __post_init__(self) -> None:
        if not self.stream_specs:
            raise ValueError("need at least one stream")

    @property
    def n_streams(self) -> int:
        return len(self.stream_specs)

    @property
    def total_rate_pps(self) -> float:
        """Aggregate long-run offered packet rate."""
        return sum(s.mean_rate_pps for s in self.stream_specs)

    # ------------------------------------------------------------------
    # Scenario constructors
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous_poisson(
        cls, n_streams: int, total_rate_pps: float,
        size_model: FixedSize = FixedSize(),
    ) -> "TrafficSpec":
        """The paper's base scenario: ``n`` identical Poisson streams
        sharing a total offered rate."""
        if n_streams < 1:
            raise ValueError("n_streams must be >= 1")
        per = total_rate_pps / n_streams
        return cls((PoissonSpec(per),) * n_streams, size_model)

    @classmethod
    def one_bursty_among_smooth(
        cls, n_streams: int, total_rate_pps: float, mean_batch: float,
        size_model: FixedSize = FixedSize(),
    ) -> "TrafficSpec":
        """Stream 0 sends bursts of mean size ``mean_batch``; the rest are
        Poisson; all streams carry equal long-run rate (burstiness sweep at
        constant load — the E13 scenario)."""
        if n_streams < 1:
            raise ValueError("n_streams must be >= 1")
        per = total_rate_pps / n_streams
        specs: Sequence[ArrivalSpec] = [BatchPoissonSpec(per, mean_batch)] + [
            PoissonSpec(per) for _ in range(n_streams - 1)
        ]
        return cls(tuple(specs), size_model)

    @classmethod
    def heterogeneous(
        cls, rates_pps: Sequence[float],
        size_model: FixedSize = FixedSize(),
    ) -> "TrafficSpec":
        """Poisson streams with individually specified rates (e.g. one hot
        stream among mice)."""
        if not rates_pps:
            raise ValueError("need at least one stream rate")
        return cls(tuple(PoissonSpec(r) for r in rates_pps), size_model)

    @classmethod
    def single_stream(
        cls, rate_pps: float, size_model: FixedSize = FixedSize(),
    ) -> "TrafficSpec":
        """One Poisson stream (the intra-stream scalability scenario)."""
        return cls((PoissonSpec(rate_pps),), size_model)
