"""The warm fleet: the lease coordinator over local agents on pipes.

A fresh process per task pays for the process itself (fork, imports,
allocator warm-up) before it runs.  ``--backend warm`` instead keeps
``jobs`` agent processes alive for the runner's whole lifetime (they
survive *across* ``run_many`` batches — the live process is what it
saves) and leases them chunks from one shared task queue through the
coordinator in :mod:`.fleet`, on ``multiprocessing`` pipes
(:class:`~.transport.PipeCoordinator`).

An agent's silence budget is the runner's hard watchdog deadline
(``SweepRunner._hard_timeout_s``): an agent wedged past its own SIGALRM
guard is killed and respawned.  With no ``timeout_s`` a pipe agent never
expires, since pipe EOF and process exit already report its loss.

Each task builds its own exec model, exactly as a serial run does:
building one costs microseconds, and a model shared across tasks saved
under a millisecond per 600-run session (``docs/PERFORMANCE.md``).
Worker-held mutable caches in this package must be registered in
:data:`_WARM_LEDGER` and cleared by :func:`reset_warm_state` — enforced
by lint rule RPR012, so no future cache can silently carry state from
one task to the next.
"""

from __future__ import annotations

import signal
import time
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Dict

from .fleet import FleetBackend, _agent_loop, _AgentSlot
from .transport import (
    AgentLink,
    CoordinatorTransport,
    PipeCoordinator,
    PipeWorker,
    TransportError,
)

__all__ = ["WarmBackend", "reset_warm_state"]

#: Ledger of worker-held mutable caches: global name -> why it is safe
#: to hold across tasks.  Lint rule RPR012 cross-checks that every
#: module-level mutable container in ``runner/backends/`` appears here
#: *and* is cleared by :func:`reset_warm_state`.  Empty: an agent
#: carries no state from one task to the next.
_WARM_LEDGER: Dict[str, str] = {}


def reset_warm_state() -> None:
    """Drop every worker-held cache (fresh-process semantics).

    Called on agent start; also the RPR012 anchor: every ledger entry
    must be cleared here so 'what state can a warm worker carry?' has
    exactly one auditable answer (today: none).
    """


def _serve_agent(link: AgentLink, worker_id: str, idle_poll_s: float) -> None:
    """Entrypoint body of an agent process the coordinator forked.

    SIGTERM gets its default disposition back, so a forked agent does not
    inherit the coordinator's graceful-shutdown handler (which would turn
    agent teardown into spurious tracebacks).  SIGINT is ignored so a
    Ctrl-C in the coordinator's terminal takes the coordinator's
    graceful-drain path (journal flush + resume hint) instead of racing
    agent deaths against it; the coordinator stops agents explicitly.
    """
    if hasattr(signal, "SIGTERM"):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if hasattr(signal, "SIGINT"):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    reset_warm_state()
    try:
        _agent_loop(link, worker_id, idle_poll_s, time.monotonic)
    except TransportError:
        pass  # coordinator gone; nothing to clean up but the link
    finally:
        link.close()


def _pipe_agent_main(conn: Connection, worker_id: str,
                     idle_poll_s: float) -> None:
    """Pipe agent process entrypoint (module-level: RPR006)."""
    _serve_agent(PipeWorker(conn), worker_id, idle_poll_s)


class WarmBackend(FleetBackend):
    """The lease coordinator over forked agents on pipes (module docstring)."""

    name = "warm"

    def _open_transport(self) -> CoordinatorTransport:
        self._pipes = PipeCoordinator()
        return self._pipes

    def _spawn_process(self, slot: _AgentSlot) -> BaseProcess:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pipe_agent_main,
            args=(child_conn, slot.worker_id, self.idle_poll_s),
            daemon=True, name=f"repro-warm-{slot.worker_id}")
        process.start()
        child_conn.close()
        # The route exists before the agent says hello: lease at once.
        self._pipes.attach(slot.worker_id, parent_conn)
        slot.registered = True
        return process

    # Bound in this class's own namespace, so instrumentation can wrap
    # the warm fleet's batch entry point alone.
    run_batch = FleetBackend.run_batch
