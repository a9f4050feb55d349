"""Model parameters: platform, protocol costs, footprint composition.

All time constants are in **microseconds** — the natural unit of the
paper's measurements (e.g. ``t_cold = 284.3 µs``) and the simulation's
native clock.

Three parameter groups:

- :class:`PlatformConfig` — the multiprocessor (CPU count + cache
  hierarchy + reference rate).  The default is the paper's 8-processor SGI
  Challenge XL with 100 MHz MIPS R4400 CPUs.
- :class:`ProtocolCosts` — the measured packet execution-time bounds and
  per-packet overheads.  ``t_cold = 284.3 µs`` is quoted by the paper; the
  intermediate bounds are reconstructions chosen so the maximum affinity
  benefit ``1 - t_warm/t_cold ≈ 47 %`` falls inside the published 40-50 %
  band (see DESIGN.md §4.1), and every experiment accepts overrides.
- :class:`FootprintComposition` — how the protocol footprint divides among
  shared code+globals, per-stream connection state, and per-thread stack,
  plus the fraction of shared state that is writable (and therefore
  migrates between processors under Locking).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

from ..cache.hierarchy import CacheHierarchy, sgi_challenge_hierarchy

__all__ = [
    "PlatformConfig",
    "ProtocolCosts",
    "FootprintComposition",
    "PAPER_PLATFORM",
    "PAPER_COSTS",
    "PAPER_COMPOSITION",
    "FDDI_MAX_PAYLOAD_BYTES",
]

#: Largest FDDI packet payload, quoted by the paper ("each with 4432 bytes
#: of data"); at the quoted 32 B/µs checksum rate this costs ~139 µs.
FDDI_MAX_PAYLOAD_BYTES = 4432


#: The paper's cache hierarchy, one instance shared by every default
#: platform (content keys and pickles reuse shared objects).
_SGI_CHALLENGE = sgi_challenge_hierarchy()


@dataclass(frozen=True)
class PlatformConfig:
    """The shared-memory multiprocessor being modelled.

    Parameters
    ----------
    n_processors:
        Number of CPUs (8 on the paper's Challenge XL).
    hierarchy:
        Cache hierarchy + reference-rate model (see
        :class:`repro.cache.CacheHierarchy`).
    """

    n_processors: int = 8
    hierarchy: CacheHierarchy = _SGI_CHALLENGE

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ValueError("n_processors must be >= 1")

    @property
    def references_per_us(self) -> float:
        """Memory references issued per µs of execution (20 on the paper's
        platform: 100 MHz / 5 cycles-per-reference)."""
        return self.hierarchy.references_per_us

    def with_processors(self, n: int) -> "PlatformConfig":
        """Copy with a different CPU count (used by scalability sweeps)."""
        return replace(self, n_processors=n)


@dataclass(frozen=True)
class ProtocolCosts:
    """Packet execution-time bounds and per-packet overheads (µs).

    The three bounds correspond to the paper's conditioned measurements:

    ``t_warm_us``
        Footprint fully resident in L1 (best case).
    ``t_l2_us``
        Footprint displaced from L1 but resident in L2.
    ``t_cold_us``
        Footprint in memory only (the paper measured 284.3 µs; "protocol
        receive time tends to t_cold").

    Overheads:

    ``lock_overhead_us``
        Uncontended per-packet locking cost under the Locking paradigm.
        An x-kernel-style stack acquires several locks per packet on its
        way through FDDI/IP/UDP demultiplexing and session state; refs
        [3, 13] measure per-lock-pair costs of a few µs on comparable
        hardware, so the per-packet total is on the order of tens of µs.
        IPS pays none.
    ``lock_cs_us``
        Length of the serialized critical section per packet under Locking
        (shared-stack state updates).  Bounds Locking's aggregate
        throughput at ``1/lock_cs_us`` regardless of CPU count.
    ``dispatch_us``
        Thread dispatch/scheduling cost per packet (paid by both
        paradigms).
    ``checksum_bytes_per_us``
        Data-touching rate: the paper quotes checksumming at 32 bytes/µs
        on its platform, i.e. ~139 µs for a maximal 4432-byte FDDI payload.
    """

    t_warm_us: float = 150.0
    t_l2_us: float = 205.0
    t_cold_us: float = 284.3
    lock_overhead_us: float = 20.0
    lock_cs_us: float = 15.0
    dispatch_us: float = 5.0
    checksum_bytes_per_us: float = 32.0

    def __post_init__(self) -> None:
        if not (0.0 < self.t_warm_us <= self.t_l2_us <= self.t_cold_us):
            raise ValueError(
                "need 0 < t_warm <= t_l2 <= t_cold, got "
                f"{self.t_warm_us}, {self.t_l2_us}, {self.t_cold_us}"
            )
        for name in ("lock_overhead_us", "lock_cs_us", "dispatch_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.checksum_bytes_per_us <= 0:
            raise ValueError("checksum_bytes_per_us must be positive")
        if self.lock_cs_us > self.t_warm_us:
            raise ValueError("critical section cannot exceed the warm service time")

    @property
    def l1_reload_us(self) -> float:
        """Maximum L1 reload transient ``t_l2 - t_warm``."""
        return self.t_l2_us - self.t_warm_us

    @property
    def l2_reload_us(self) -> float:
        """Maximum L2 reload transient ``t_cold - t_l2``."""
        return self.t_cold_us - self.t_l2_us

    @property
    def max_affinity_benefit(self) -> float:
        """``1 - t_warm/t_cold``: the V=0 upper bound on delay reduction
        from perfect affinity (the paper reports 40-50 %)."""
        return 1.0 - self.t_warm_us / self.t_cold_us

    def data_touching_us(self, payload_bytes: float) -> float:
        """Per-packet data-touching (checksum/copy) time for a payload.

        Linear in packet size at ``checksum_bytes_per_us``; reproduces the
        paper's 4432 B -> ~139 µs example.
        """
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        return payload_bytes / self.checksum_bytes_per_us


@dataclass(frozen=True)
class FootprintComposition:
    """Division of the protocol footprint among affinity components.

    Weights are fractions of the *reload transient* (``t_cold - t_warm``)
    attributable to each component, and must sum to 1:

    ``code_global``
        Protocol code and global data structures (demux maps, statistics),
        shared by all streams.  Warm on a processor iff protocol code ran
        there recently.
    ``stream_state``
        Per-connection (per-stream) protocol state.  Warm iff *this
        stream* was processed there recently.
    ``thread_stack``
        The protocol thread's stack.  Warm iff the serving thread last ran
        there (guaranteed under per-processor thread pools).

    ``shared_writable_of_code``
        Fraction of the ``code_global`` component that is *writable* shared
        state.  Under Locking, those dirty lines migrate to whichever
        processor last executed protocol code, so they are cold on this
        processor whenever another processor ran protocol more recently —
        an affinity penalty IPS avoids entirely (each stack's state is
        private).

    Packet data itself is cold by definition (it arrives from the network
    interface) and is handled separately by the data-touching extension
    (E14); the paper's default results exclude data-touching operations.

    The default split is a documented reconstruction knob (DESIGN.md §4.4):
    the paper measured component contributions but the capture does not
    quote them.
    """

    code_global: float = 0.55
    stream_state: float = 0.30
    thread_stack: float = 0.15
    shared_writable_of_code: float = 0.30

    def __post_init__(self) -> None:
        weights = (self.code_global, self.stream_state, self.thread_stack)
        if any(w < 0 for w in weights):
            raise ValueError("component weights must be non-negative")
        if not math.isclose(sum(weights), 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(
                f"component weights must sum to 1, got {sum(weights)!r}"
            )
        if not (0.0 <= self.shared_writable_of_code <= 1.0):
            raise ValueError("shared_writable_of_code must be in [0, 1]")

    def as_dict(self) -> Mapping[str, float]:
        return {
            "code_global": self.code_global,
            "stream_state": self.stream_state,
            "thread_stack": self.thread_stack,
        }


#: The paper's platform.
PAPER_PLATFORM = PlatformConfig()

#: Paper-derived cost preset (t_cold quoted; intermediates reconstructed).
PAPER_COSTS = ProtocolCosts()

#: Default footprint composition (reconstruction knob, see class docs).
PAPER_COMPOSITION = FootprintComposition()
