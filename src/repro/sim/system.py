"""Top-level assembly: configure, run, summarize one simulation.

:class:`SystemConfig` captures every knob of a run (platform, costs,
paradigm, policy, traffic, non-protocol intensity ``V``, horizon, seed);
:class:`NetworkProcessingSystem` wires the engine, processors, model,
dispatcher and metrics together and exposes :meth:`run`.

Typical use (the library's main entry point)::

    from repro import SystemConfig, NetworkProcessingSystem, TrafficSpec

    cfg = SystemConfig(
        paradigm="locking",
        policy="mru",
        traffic=TrafficSpec.homogeneous_poisson(n_streams=8, total_rate_pps=12_000),
        nonprotocol_intensity=1.0,
        duration_us=2_000_000,
        seed=1,
    )
    summary = NetworkProcessingSystem(cfg).run()
    print(summary.mean_delay_us)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

from ..core.exec_model import ExecutionTimeModel
from ..core.params import (
    PAPER_COMPOSITION,
    PAPER_COSTS,
    FootprintComposition,
    PlatformConfig,
    ProtocolCosts,
)
from ..core.policies import (
    IPSPolicy,
    LockingPolicy,
    make_ips_policy,
    make_locking_policy,
)
from ..verify.invariants import InvariantChecker
from ..workloads.arrivals import ArrivalProcess, PoissonArrivals
from ..workloads.sessions import SessionChurnSpec
from ..workloads.traffic import TrafficSpec
from . import batch
from .dispatch import IPSDispatcher, LockingDispatcher
from .engine import EVENT_ARRIVAL, EVENT_SESSION, Event, Simulator
from .entities import Packet, ProcessorState
from .metrics import MetricsCollector, SimulationSummary
from .rng import RandomStreams
from .trace import ExecutionTracer

__all__ = ["SystemConfig", "NetworkProcessingSystem", "run_simulation"]

PARADIGMS = ("locking", "ips")

#: Bounds for per-stream arrival pregeneration chunks (batches per RNG
#: refill).  The lower bound keeps short-lived churned sessions cheap;
#: the upper bound caps the memory a single refill may pin.
_MIN_CHUNK = 16
_MAX_CHUNK = 8192


class _ArrivalSource:
    """Pregenerated arrival state for one stream.

    Interarrival gaps and batch sizes are drawn from the stream's private
    RNG in vectorized chunks (:meth:`ArrivalProcess.next_batches_array`) and
    consumed one batch per arrival event; the chunk refills on
    exhaustion.  Because every chunk reproduces the event-by-event draw
    sequence value for value, and each stream draws from its own RNG
    substream, pregeneration is bit-identical to the historical
    draw-per-event scheme — chunks merely draw (and possibly discard)
    values past the horizon that no other consumer can observe.

    ``record`` is the stream's reusable engine event: one allocation per
    stream for the whole run instead of one closure per arrival.
    """

    __slots__ = ("stream_id", "process", "gaps", "sizes", "idx",
                 "end_us", "chunk_hint", "pending_size", "record")

    def __init__(self, stream_id: int, process: ArrivalProcess,
                 end_us: Optional[float], chunk_hint: int) -> None:
        self.stream_id = stream_id
        self.process = process
        self.end_us = end_us
        self.chunk_hint = chunk_hint
        self.gaps: List[float] = []
        self.sizes: Optional[List[int]] = None
        self.idx = 0
        self.pending_size = 1
        self.record: Event = None  # type: ignore[assignment]  # set by the system


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulation run.

    ``policy`` may be a registry name (see
    :data:`repro.core.policies.LOCKING_POLICIES` /
    :data:`~repro.core.policies.IPS_POLICIES`) or a ready policy instance;
    ``policy_kwargs`` are forwarded to the registry factory.

    ``nonprotocol_intensity`` is the displacing memory-reference
    intensity of the non-protocol workload that absorbs idle processor
    time (0 = no displacement; 1 = the full platform reference rate).

    ``fixed_overhead_us`` is the paper's ``V``: a fixed, cache-independent
    per-packet overhead added to every service (the V-family curves of
    Figures 10/11; checksumming a maximal 4432 B FDDI payload corresponds
    to V ≈ 139 µs).

    ``lock_granularity`` selects the Locking paradigm's lock structure:
    1 = one coarse stack lock (default); k > 1 = per-layer locks the
    packet pipelines through (the granularity dimension of ref [3]),
    raising the serialization ceiling from ``1/cs`` to ``k/cs``.

    ``churn`` adds a dynamic stream population on top of the base
    traffic (streams open/close as a birth-death process; see
    :class:`repro.workloads.SessionChurnSpec`) — used to test the
    abstract's "greater number of concurrent streams" claim.

    ``check_invariants`` wires an online
    :class:`~repro.verify.invariants.InvariantChecker` through the engine,
    dispatchers and locks; the run raises
    :class:`~repro.verify.invariants.InvariantViolation` at the first
    violated invariant.  Like ``trace``, it is pure observability: it can
    never change simulation results (and is therefore excluded from the
    result-cache content key).
    """

    traffic: TrafficSpec
    paradigm: str = "locking"
    policy: Union[str, LockingPolicy, IPSPolicy] = "mru"
    platform: PlatformConfig = field(default_factory=PlatformConfig)
    costs: ProtocolCosts = PAPER_COSTS
    composition: FootprintComposition = PAPER_COMPOSITION
    nonprotocol_intensity: float = 1.0
    n_stacks: Optional[int] = None
    churn: Optional[SessionChurnSpec] = None
    data_touching: bool = False
    fixed_overhead_us: float = 0.0
    lock_granularity: int = 1
    trace: bool = False
    check_invariants: bool = False
    duration_us: float = 2_000_000.0
    warmup_us: float = 200_000.0
    seed: int = 1
    policy_kwargs: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"paradigm must be one of {PARADIGMS}, got {self.paradigm!r}")
        if self.nonprotocol_intensity < 0:
            raise ValueError("nonprotocol_intensity (V) must be >= 0")
        if self.duration_us <= 0:
            raise ValueError("duration_us must be positive")
        if not (0.0 <= self.warmup_us < self.duration_us):
            raise ValueError("need 0 <= warmup_us < duration_us")
        if self.n_stacks is not None and self.n_stacks < 1:
            raise ValueError("n_stacks must be >= 1")
        if self.fixed_overhead_us < 0:
            raise ValueError("fixed_overhead_us (V) must be >= 0")
        if self.lock_granularity < 1:
            raise ValueError("lock_granularity must be >= 1")

    def with_(self, **changes: object) -> "SystemConfig":
        """Functional update (sweep helper)."""
        return replace(self, **changes)

    @property
    def effective_n_stacks(self) -> int:
        return self.n_stacks if self.n_stacks is not None else self.platform.n_processors


class NetworkProcessingSystem:
    """One fully wired simulation instance (single-use: build, run)."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.costs = config.costs
        self.data_touching = config.data_touching
        self.fixed_overhead_us = config.fixed_overhead_us
        self.invariants = InvariantChecker() if config.check_invariants else None
        self.sim = Simulator(
            on_event=self.invariants.on_event if self.invariants else None
        )
        self.rngs = RandomStreams(config.seed)
        self.metrics = MetricsCollector(warmup_us=config.warmup_us)
        self.model = ExecutionTimeModel(
            config.costs, config.composition, config.platform.hierarchy
        )
        refs_per_us = config.platform.references_per_us
        self.processors: List[ProcessorState] = [
            ProcessorState(p, refs_per_us, config.nonprotocol_intensity)
            for p in range(config.platform.n_processors)
        ]
        self.tracer = ExecutionTracer(self.model) if config.trace else None
        self.dispatcher = self._build_dispatcher()
        self._fixed_size = config.traffic.size_model.size_bytes
        # Hot-path aliases for the per-packet injection sequence.
        self._dispatcher_on_arrival = self.dispatcher.on_arrival
        self._metrics_on_arrival = self.metrics.on_arrival
        self._at_record = self.sim.at_record
        self._duration_us = config.duration_us
        self._packet_counter = 0
        self._stream_counter = config.traffic.n_streams
        self.peak_concurrent_sessions = 0
        self._live_sessions = 0
        #: Every arrival source of the run (see :meth:`_release`).
        self._sources: List[_ArrivalSource] = []
        self._ran = False

    def _build_dispatcher(self) -> Union[LockingDispatcher, IPSDispatcher]:
        cfg = self.config
        if cfg.paradigm == "locking":
            policy = cfg.policy
            if isinstance(policy, str):
                policy = make_locking_policy(policy, **cfg.policy_kwargs)
            if not isinstance(policy, LockingPolicy):
                raise TypeError(
                    f"Locking paradigm needs a LockingPolicy, got {type(policy)!r}"
                )
            return LockingDispatcher(self, policy)
        policy = cfg.policy
        if isinstance(policy, str):
            policy = make_ips_policy(policy, **cfg.policy_kwargs)
        if not isinstance(policy, IPSPolicy):
            raise TypeError(f"IPS paradigm needs an IPSPolicy, got {type(policy)!r}")
        return IPSDispatcher(self, policy, cfg.effective_n_stacks)

    # ------------------------------------------------------------------
    # Arrival generation (pregenerated chunks, one pending event per
    # stream; see _ArrivalSource for the bit-identity argument)
    # ------------------------------------------------------------------
    @staticmethod
    def _chunk_hint(rate_pps: float, window_us: float) -> int:
        """Batches to pregenerate per refill: the expected count in the
        window plus slack, clamped to ``[_MIN_CHUNK, _MAX_CHUNK]``."""
        expected = rate_pps * max(0.0, window_us) * 1e-6
        if not (expected < _MAX_CHUNK):  # also catches inf/NaN rates
            return _MAX_CHUNK
        return max(_MIN_CHUNK, int(expected * 1.05) + 8)

    def _start_arrivals(self) -> None:
        for stream_id, spec in enumerate(self.config.traffic.stream_specs):
            process = spec.build(self.rngs.arrivals(stream_id))
            hint = self._chunk_hint(spec.mean_rate_pps, self.config.duration_us)
            self._add_source(stream_id, process, None, hint)
        if self.config.churn is not None:
            self._schedule_next_session()

    def _add_source(self, stream_id: int, process: ArrivalProcess,
                    end_us: Optional[float], chunk_hint: int) -> None:
        source = _ArrivalSource(stream_id, process, end_us, chunk_hint)
        source.record = Event(EVENT_ARRIVAL, self._arrival_fire, source)
        self._sources.append(source)
        self._advance_arrivals(source)

    def _arrival_fire(self, source: _ArrivalSource) -> None:
        n = source.pending_size
        now = self.sim._now
        if n == 1:
            self._inject_packet(source.stream_id, now)
        else:
            for _ in range(n):
                self._inject_packet(source.stream_id, now)
        self._advance_arrivals(source)

    def _advance_arrivals(self, source: _ArrivalSource) -> None:
        """Consume the source's next pregenerated batch and schedule it.

        Mirrors, decision for decision, the historical draw-per-event
        ``_schedule_next_arrival``: the next gap is read (refilling the
        chunk when exhausted), arrivals past the horizon end the stream —
        with churned sessions accounting their departure — and otherwise
        the stream's reusable arrival record is pushed at the batch time.
        """
        idx = source.idx
        gaps = source.gaps
        if idx >= len(gaps):
            gap_arr, size_arr = source.process.next_batches_array(
                source.chunk_hint)
            gaps = gap_arr.tolist()
            source.gaps = gaps
            source.sizes = None if size_arr is None else size_arr.tolist()
            idx = 0
        sizes = source.sizes
        source.pending_size = 1 if sizes is None else sizes[idx]
        source.idx = idx + 1
        when = self.sim._now + gaps[idx]
        duration_us = self._duration_us
        end_us = source.end_us
        horizon_us = duration_us if end_us is None else min(end_us, duration_us)
        if when > horizon_us:
            if end_us is not None and when <= duration_us:
                # The churning stream died; account its departure.
                self._live_sessions -= 1
            return  # no further arrivals within the horizon
        self._at_record(when, source.record)

    # ------------------------------------------------------------------
    # Session churn (dynamic stream population)
    # ------------------------------------------------------------------
    def _schedule_next_session(self) -> None:
        churn = self.config.churn
        rng = self.rngs.get("sessions")
        gap_us = float(rng.exponential(1e6 / churn.sessions_per_second))
        when = self.sim.now + gap_us
        if when > self.config.duration_us:
            return
        self.sim.at_record(when, Event(EVENT_SESSION, self._session_fire, when))

    def _session_fire(self, when: float) -> None:
        self._open_session(when)
        self._schedule_next_session()

    def _open_session(self, now_us: float) -> None:
        churn = self.config.churn
        stream_id = self._stream_counter
        self._stream_counter += 1
        self._live_sessions += 1
        self.peak_concurrent_sessions = max(
            self.peak_concurrent_sessions, self._live_sessions
        )
        rng = self.rngs.arrivals(stream_id)
        lifetime_us = float(rng.exponential(churn.mean_lifetime_us))
        process = PoissonArrivals(churn.per_stream_rate_pps, rng)
        window_us = min(now_us + lifetime_us, self.config.duration_us) - now_us
        hint = self._chunk_hint(churn.per_stream_rate_pps, window_us)
        self._add_source(stream_id, process, now_us + lifetime_us, hint)

    def _inject_packet(self, stream_id: int, now: float) -> None:
        pid = self._packet_counter
        self._packet_counter = pid + 1
        packet = Packet(pid, stream_id, now, self._fixed_size)
        self._metrics_on_arrival(packet)
        if self.invariants is not None:
            self.invariants.on_arrival(packet, now)
        self._dispatcher_on_arrival(packet)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> SimulationSummary:
        """Execute the configured horizon and return the summary.

        Arrivals stop at the horizon; packets still queued or in service
        at that point are reported in ``final_backlog`` (a growing final
        backlog is the saturation signal used by capacity searches).
        """
        if self._ran:
            raise RuntimeError("a NetworkProcessingSystem instance is single-use")
        self._ran = True
        mode = batch.engine_mode()
        reason = "scalar engine forced" if mode == "scalar" else None
        if reason is None:
            reason = batch.unsupported_reason(self)
            if reason is None:
                batch.run_fused(self)
            elif mode == "batched":
                raise RuntimeError(
                    f"{batch.ENGINE_ENV}=batched was requested but this "
                    f"configuration is not supported by the fused core: "
                    f"{reason}"
                )
        if reason is not None:
            self._start_arrivals()
            self.sim.run_until(self.config.duration_us)
        if self.invariants is not None:
            self.invariants.at_end(
                self.metrics, self.dispatcher.queued(), self.processors,
                dispatcher_migrations=self.dispatcher.migrations,
            )
        duration_us = self.config.duration_us
        utilization = tuple(p.utilization(duration_us) for p in self.processors)
        offered = self.config.traffic.total_rate_pps
        if self.config.churn is not None:
            offered += self.config.churn.offered_rate_pps
        return self.metrics.summarize(
            duration_us=duration_us,
            utilization_per_proc=utilization,
            offered_rate_pps=offered,
            migrations=self.dispatcher.migrations,
        )

    def _release(self) -> None:
        """Break a finished run's reference cycles (``dispatcher.system``,
        the attached policy, completion events bound to the dispatcher,
        arrival sources and their events) so reference counting frees it
        at once, not a full collection.  Empties the system."""
        for source in self._sources:
            source.record = None  # type: ignore[assignment]
        vars(self.dispatcher).clear()
        vars(self).clear()


def run_simulation(config: SystemConfig) -> SimulationSummary:
    """Convenience wrapper: build and run in one call.

    The system is freed on return (:meth:`~NetworkProcessingSystem._release`).
    """
    system = NetworkProcessingSystem(config)
    try:
        return system.run()
    finally:
        system._release()
