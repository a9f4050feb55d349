"""The distributed fleet: the lease coordinator over tcp.

``--backend distributed`` runs the coordinator of :mod:`.fleet` over
:class:`~.transport.TcpCoordinator`, so the fleet can be separate
processes on this host (the default: the coordinator forks its own
agents) or externally launched ``repro sweep worker`` processes on any
host that can reach the coordinator's tcp address.  Leases, the commit
gate and the failure budget are the coordinator's, shared with
``warm``; what tcp adds is a second silence budget,
``DistributedOptions.lease_timeout_s``, since a remote agent's loss has
no process or pipe to report it (``docs/DISTRIBUTED.md``).

RPR013 applies to this module: wall-clock reads go through the
injectable clock seam (``DistributedOptions.clock``, defaulting to
``time.monotonic`` *by reference*).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing.process import BaseProcess
from typing import TYPE_CHECKING, Optional

from .fleet import IDLE_POLL_S, TICK_S, FleetBackend, _agent_loop, _AgentSlot
from .lease import Clock
from .transport import (
    CoordinatorTransport,
    TcpCoordinator,
    TcpWorker,
    TransportError,
)
from .warm import _serve_agent, reset_warm_state

if TYPE_CHECKING:
    from ..runner import SweepRunner

__all__ = [
    "DistributedBackend",
    "DistributedOptions",
    "run_worker_agent",
]


@dataclass(frozen=True)
class DistributedOptions:
    """Tuning and test levers for the distributed backend.

    None of these can affect results — only wall-clock and recovery
    counters.  How many agents may be lost before the batch finishes
    inline is the runner's ``max_pool_failures``, as for ``warm``.
    """

    #: TCP listen address, ``host:port`` (port 0 = ephemeral).
    bind: str = "127.0.0.1:0"
    #: Spawn local agent processes (False = wait for external
    #: ``repro sweep worker`` processes to join).
    spawn_agents: bool = True
    #: Silence budget: an agent silent for longer while holding leases
    #: is lost and its tasks requeued (consuming an attempt each).
    lease_timeout_s: float = 60.0
    #: Coordinator poll cadence (also the chaos delay quantum).
    tick_s: float = TICK_S
    #: Idle agents re-hello, and busy ones beat between tasks, at most
    #: this often.
    idle_poll_s: float = IDLE_POLL_S
    #: Injectable time source for lease bookkeeping (RPR013); None means
    #: ``time.monotonic``, passed by reference, never called here.
    clock: Optional[Clock] = None

    def __post_init__(self) -> None:
        if self.lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if self.tick_s <= 0 or self.idle_poll_s <= 0:
            raise ValueError("tick_s and idle_poll_s must be positive")


def _agent_main(address: str, worker_id: str, idle_poll_s: float) -> None:
    """Local tcp agent process entrypoint (module-level: RPR006)."""
    try:
        link = TcpWorker(address)
    except TransportError:
        return
    _serve_agent(link, worker_id, idle_poll_s)


def run_worker_agent(address: str, worker_id: str,
                     idle_poll_s: float = IDLE_POLL_S) -> None:
    """Run one worker agent in this process until the coordinator says
    stop (the ``repro sweep worker`` entrypoint for joining a sweep from
    another shell or host).  ``address`` is the coordinator's tcp
    ``host:port``; :class:`TransportError` if nothing listens there."""
    reset_warm_state()
    link = TcpWorker(address)
    try:
        _agent_loop(link, worker_id, idle_poll_s, time.monotonic)
    except (KeyboardInterrupt, TransportError):
        pass
    finally:
        link.close()


class DistributedBackend(FleetBackend):
    """The lease coordinator over a tcp agent fleet (module docstring)."""

    name = "distributed"

    def __init__(self, options: Optional[DistributedOptions] = None) -> None:
        self.options = options if options is not None else DistributedOptions()
        super().__init__(tick_s=self.options.tick_s,
                         idle_poll_s=self.options.idle_poll_s,
                         clock=self.options.clock,
                         spawn_agents=self.options.spawn_agents)

    def _open_transport(self) -> CoordinatorTransport:
        self._tcp = TcpCoordinator(self.options.bind)
        return self._tcp

    def _spawn_process(self, slot: _AgentSlot) -> BaseProcess:
        process = self._ctx.Process(
            target=_agent_main,
            args=(self._tcp.address(), slot.worker_id,
                  self.idle_poll_s),
            daemon=True, name=f"repro-dist-{slot.worker_id}")
        process.start()
        return process

    def _silence_budget_s(self, runner: "SweepRunner") -> Optional[float]:
        hard_s = runner._hard_timeout_s()
        if hard_s is None:
            return self.options.lease_timeout_s
        return min(hard_s, self.options.lease_timeout_s)
