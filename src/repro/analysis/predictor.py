"""Analytic steady-state delay predictor.

A closed-form companion to the discrete-event simulator, in the spirit of
the queueing-theoretic treatments the paper builds on (Squillante &
Lazowska [24]): predict the mean packet delay for a configuration without
simulating it.  Used to cross-check the simulator (tests assert agreement
at moderate loads) and for quick capacity estimates in the experiments.

The service-time model is the same :class:`ExecutionTimeModel`; the
queueing abstraction depends on the policy's structure:

- **wired policies** (Locking Wired-Streams, IPS-wired): each processor /
  stack is an independent M/D/1 queue at rate ``lambda/N``.  The cache
  state seen by a packet follows from the processor's *idle gap*: a
  fixed-point iteration solves service time against utilization (longer
  service -> higher utilization -> shorter idle gaps -> less displacement
  -> shorter service).
- **shared-queue policies** (FCFS baseline, MRU): one M/D/c queue.  For
  the unaffinitized baseline the stream/thread components are cold with
  probability ``(N-1)/N`` (the packet lands on a processor its stream
  never/last visited); for MRU the model assumes the busy-processor set
  concentrates and stream state survives with the complementary
  probability.

Approximations are deliberate and documented; the simulator remains the
ground truth.  Accuracy is typically within ~10-15 % of simulation at
utilizations below ~0.8 (see tests/analysis/test_predictor.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..core.exec_model import COLD, ComponentState, ExecutionTimeModel
from ..core.params import (
    PAPER_COMPOSITION,
    PAPER_COSTS,
    PAPER_PLATFORM,
    FootprintComposition,
    PlatformConfig,
    ProtocolCosts,
)
from .mg1 import md1_mean_delay, mmc_mean_delay

__all__ = ["DelayPrediction", "AnalyticPredictor"]


@dataclass(frozen=True)
class DelayPrediction:
    """Predicted steady-state behaviour of one configuration."""

    service_us: float
    mean_delay_us: float
    utilization: float
    stable: bool
    queue_structure: str  # "M/D/1 per processor" or "M/D/c shared"

    @property
    def queueing_us(self) -> float:
        return self.mean_delay_us - self.service_us if self.stable else math.inf


class AnalyticPredictor:
    """Predict mean delay for the main policy families.

    Parameters mirror :class:`repro.sim.SystemConfig`; construct once per
    platform/cost set and query many operating points.
    """

    SUPPORTED = ("fcfs", "mru", "wired-streams", "ips-wired")

    def __init__(
        self,
        platform: Optional[PlatformConfig] = None,
        costs: ProtocolCosts = PAPER_COSTS,
        composition: FootprintComposition = PAPER_COMPOSITION,
    ) -> None:
        self.platform = platform or PAPER_PLATFORM
        self.costs = costs
        self.composition = composition
        self.model = ExecutionTimeModel(costs, composition,
                                        self.platform.hierarchy)

    # ------------------------------------------------------------------
    def predict(self, policy: str, total_rate_pps: float, n_streams: int,
                intensity: float = 1.0) -> DelayPrediction:
        """Predict mean packet delay for a policy at an operating point."""
        if policy not in self.SUPPORTED:
            raise ValueError(
                f"predictor supports {self.SUPPORTED}, got {policy!r}"
            )
        if total_rate_pps <= 0:
            raise ValueError("total_rate_pps must be positive")
        if n_streams < 1:
            raise ValueError("n_streams must be >= 1")
        if policy in ("wired-streams", "ips-wired"):
            return self._predict_wired(policy, total_rate_pps, n_streams,
                                       intensity)
        return self._predict_shared(policy, total_rate_pps, n_streams,
                                    intensity)

    # ------------------------------------------------------------------
    # Wired family: independent per-processor M/D/1 queues
    # ------------------------------------------------------------------
    def _wired_service_us(self, policy: str, per_proc_rate_pps: float,
                          streams_per_proc: float,
                          intensity: float) -> float:
        """Fixed point: service time vs displacement from idle gaps."""
        locking = policy == "wired-streams"
        rate_per_us = per_proc_rate_pps * 1e-6
        refs_per_us = self.platform.references_per_us
        service = self.costs.t_warm_us + self.costs.dispatch_us
        for _ in range(60):
            # Mean idle gap between consecutive services on the processor.
            gap_us = max(0.0, 1.0 / rate_per_us - service)
            idle_refs = gap_us * refs_per_us * intensity
            # Code+globals were touched one service ago; per-stream state
            # was last touched streams_per_proc services ago (round-robin
            # through the processor's wired streams), with the intervening
            # protocol executions displacing at the full rate.
            per_visit_refs = idle_refs + service * refs_per_us
            stream_refs = streams_per_proc * per_visit_refs - service * refs_per_us
            state = ComponentState(
                code_refs=idle_refs,
                stream_refs=max(0.0, stream_refs),
                thread_refs=idle_refs,
                # Under Locking, other processors complete packets between
                # our visits whenever the system has more than one active
                # processor.
                shared_invalidated=locking and self.platform.n_processors > 1,
            )
            new_service = self.model.execution_time_us(state, locking=locking)
            if abs(new_service - service) < 1e-9:
                service = new_service
                break
            service = new_service
        return service

    def _predict_wired(self, policy: str, total_rate_pps: float,
                       n_streams: int, intensity: float) -> DelayPrediction:
        n = self.platform.n_processors
        servers = min(n, n_streams) if policy == "wired-streams" else min(
            n, self.platform.n_processors
        )
        per_server_rate = total_rate_pps / servers
        streams_per_server = max(1.0, n_streams / servers)
        service = self._wired_service_us(policy, per_server_rate,
                                         streams_per_server, intensity)
        rate_per_us = per_server_rate * 1e-6
        rho = rate_per_us * service
        if rho >= 1.0:
            return DelayPrediction(service, math.inf, rho, False,
                                   "M/D/1 per processor")
        delay_us = md1_mean_delay(rate_per_us, service)
        return DelayPrediction(service, delay_us, rho, True,
                               "M/D/1 per processor")

    # ------------------------------------------------------------------
    # Shared-queue family: one M/D/c queue
    # ------------------------------------------------------------------
    def _predict_shared(self, policy: str, total_rate_pps: float,
                        n_streams: int, intensity: float) -> DelayPrediction:
        n = self.platform.n_processors
        refs_per_us = self.platform.references_per_us
        rate_per_us = total_rate_pps * 1e-6
        service = self.costs.t_warm_us + self.costs.dispatch_us
        for _ in range(60):
            rho = min(0.999, rate_per_us * service / n)
            if policy == "fcfs":
                # Packets land uniformly: stream/thread state cold w.p.
                # (n-1)/n; code last ran on this processor one system
                # "round" ago (n/lambda between protocol visits per CPU).
                p_cold = (n - 1) / n
                visit_gap_us = n / rate_per_us - service
                idle_refs = max(0.0, visit_gap_us) * refs_per_us * intensity
                warm_state = ComponentState(
                    code_refs=idle_refs,
                    stream_refs=n_streams * max(0.0, idle_refs),
                    thread_refs=idle_refs,
                    shared_invalidated=n > 1,
                )
                cold_state = ComponentState(
                    code_refs=idle_refs,
                    stream_refs=COLD,
                    thread_refs=COLD,
                    shared_invalidated=n > 1,
                )
                new_service = (
                    p_cold * self.model.execution_time_us(cold_state, locking=True)
                    + (1 - p_cold) * self.model.execution_time_us(warm_state,
                                                                  locking=True)
                )
            else:  # mru
                # MRU concentrates on ~ceil(rho * n) busy processors; a
                # stream revisits one of them, cold w.p. (k-1)/k.
                k = max(1.0, math.ceil(rho * n))
                p_cold = (k - 1.0) / k
                gap_us = max(0.0, k / rate_per_us - service)
                idle_refs = gap_us * refs_per_us * intensity
                stream_gap_refs = (
                    (n_streams / k) * (idle_refs + service * refs_per_us)
                )
                warm_state = ComponentState(
                    code_refs=idle_refs,
                    stream_refs=stream_gap_refs,
                    thread_refs=idle_refs,
                    shared_invalidated=k > 1,
                )
                cold_state = ComponentState(
                    code_refs=idle_refs,
                    stream_refs=COLD,
                    thread_refs=COLD,
                    shared_invalidated=k > 1,
                )
                new_service = (
                    p_cold * self.model.execution_time_us(cold_state, locking=True)
                    + (1 - p_cold) * self.model.execution_time_us(warm_state,
                                                                  locking=True)
                )
            if abs(new_service - service) < 1e-9:
                service = new_service
                break
            service = new_service
        rho = rate_per_us * service / n
        if rho >= 1.0:
            return DelayPrediction(service, math.inf, rho, False,
                                   "M/D/c shared")
        # M/M/c with the deterministic-service half-wait correction
        # (M/D/c ~ M/M/c with half the queueing delay).
        mmc = mmc_mean_delay(rate_per_us, 1.0 / service, n)
        delay_us = service + 0.5 * (mmc - 1.0 / (1.0 / service))
        return DelayPrediction(service, delay_us, rho, True, "M/D/c shared")

    # ------------------------------------------------------------------
    def capacity_pps(self, policy: str, n_streams: int,
                     intensity: float = 1.0) -> float:
        """Predicted maximum sustainable aggregate rate (bisection on the
        predicted utilization)."""
        lo, hi = 100.0, 1e6
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if self.predict(policy, mid, n_streams, intensity).stable:
                lo = mid
            else:
                hi = mid
        return lo
