"""The pluggable execution layer under :class:`~repro.runner.SweepRunner`.

The runner owns everything *around* execution — content keys, cache and
journal folding, dedup, retry accounting, failure reports — and delegates
the actual running of a batch to an :class:`ExecutionBackend`:

``serial``
    In-process, one task at a time (the deterministic reference path).
``warm`` and ``distributed``
    One lease coordinator (:mod:`.fleet`) over long-lived agents, on
    pipes or on tcp (``docs/RUNNER.md``, ``docs/DISTRIBUTED.md``).

Every backend honours the same contract: *scheduling can never affect
results*.  Each config carries its own seed, so outputs are bit-identical
no matter which backend, worker, or dispatch order executed them — the
property ``tests/properties/test_backend_determinism.py`` enforces.

This module also hosts the worker-side plumbing shared by all backends
(:func:`_execute_task` and friends), kept at module level so it stays
pickle-safe for worker processes (lint rule RPR006).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ...sim.metrics import SimulationSummary
from ...sim.system import SystemConfig, run_simulation
from ..cache import encode_body
from ..checkpoint import CheckpointJournal
from ..faults import FaultPlan, InjectedFault, TaskTimeout

if TYPE_CHECKING:  # runner imports backends at runtime, not vice versa
    from ..runner import FailureReport, SweepRunner

__all__ = [
    "BatchState",
    "ExecutionBackend",
]

#: Exit code used by injected worker crashes (visible in worker diagnostics).
_CRASH_EXIT_CODE = 73


# ----------------------------------------------------------------------
# Worker plumbing (module-level => pickle-safe; see lint rule RPR006)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _WorkerTask:
    """Everything one attempt needs, shippable to a worker process."""

    config: SystemConfig
    fault_key: str           # stable task identity for fault decisions
    attempt: int             # 1-based
    timeout_s: Optional[float]
    plan: Optional[FaultPlan]
    inline: bool = False     # executing in the parent process (serial path)


@dataclass(frozen=True)
class _WorkerOutcome:
    """Result of one attempt; failures travel as data, not exceptions."""

    ok: bool
    summary: Optional[SimulationSummary]
    body: bytes              # the summary's frame body (b"" on failure)
    kind: str                # "" | "timeout" | "error"
    error: str
    elapsed_s: float


@contextmanager
def _deadline(timeout_s: Optional[float]) -> Iterator[None]:
    """Raise :class:`TaskTimeout` when the block exceeds ``timeout_s``.

    Uses a SIGALRM interval timer, which requires the main thread of a
    POSIX process — exactly what a fleet agent and the CLI's serial path
    both are.  Anywhere else the guard degrades to *no*
    in-band timeout; the parent-side hard watchdog still bounds parallel
    execution.
    """
    usable = (
        timeout_s is not None and timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise TaskTimeout(f"exceeded the {timeout_s:.3g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))  # type: ignore[arg-type]
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _format_chain(exc: BaseException) -> str:
    """One-line ``repr`` chain of an exception and its cause/context."""
    parts = []
    seen: set = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        parts.append("".join(
            traceback.format_exception_only(type(current), current)).strip())
        current = current.__cause__ or current.__context__
    return " <- ".join(parts)


def _execute_task(task: _WorkerTask) -> _WorkerOutcome:
    """Worker entrypoint: run one attempt, honouring the fault plan and
    the task deadline.  Must stay a module-level function (RPR006)."""
    t0 = time.perf_counter()
    plan = task.plan
    try:
        if plan is not None:
            if plan.decide("crash", task.fault_key, task.attempt):
                if task.inline:
                    # A real crash would kill the caller; simulate it.
                    raise InjectedFault("injected worker crash (inline mode)")
                os._exit(_CRASH_EXIT_CODE)
            if plan.decide("interrupt", task.fault_key, task.attempt):
                raise KeyboardInterrupt("injected interrupt")
        with _deadline(task.timeout_s):
            if plan is not None and \
                    plan.decide("hang", task.fault_key, task.attempt):
                time.sleep(plan.hang_s)
            if plan is not None and \
                    plan.decide("error", task.fault_key, task.attempt):
                raise InjectedFault(
                    f"injected failure for task {task.fault_key[:12]}")
            summary = run_simulation(task.config)
        return _WorkerOutcome(True, summary, encode_body(summary), "", "",
                              time.perf_counter() - t0)
    except TaskTimeout as exc:
        return _WorkerOutcome(False, None, b"", "timeout", str(exc),
                              time.perf_counter() - t0)
    except KeyboardInterrupt:
        raise  # graceful-shutdown path, handled by the backends
    except Exception as exc:
        return _WorkerOutcome(False, None, b"", "error", _format_chain(exc),
                              time.perf_counter() - t0)


# ----------------------------------------------------------------------
# The backend seam
# ----------------------------------------------------------------------
@dataclass
class BatchState:
    """One ``run_many`` batch, as seen by a backend.

    ``work`` lists the indices still needing execution (cache/journal
    hits and dedup followers are already folded by the runner);
    ``results``/``failures`` are filled in place; completions flow
    through :meth:`SweepRunner._complete` so cache and journal stay in
    the loop regardless of backend.  ``bodies`` holds the frame body of
    each result a fleet committed, for its commit gate.
    """

    work: Sequence[int]
    configs: Sequence[SystemConfig]
    keys: Sequence[Optional[str]]
    fault_keys: Sequence[str]
    results: List[Optional[SimulationSummary]]
    journal: Optional[CheckpointJournal]
    failures: "List[FailureReport]"
    bodies: Dict[int, bytes] = field(default_factory=dict)


#: One queued task attempt: ``(index in the batch, 1-based attempt)``.
#: The fleet coordinator keeps a batch's pending attempts in one FIFO of
#: these, shared by every agent.
Task = Tuple[int, int]


def chunk_cap(n_tasks: int, jobs: int, slots: int) -> int:
    """Most tasks one chunk or lease of a batch may carry:
    ``ceil(n_tasks / (2 * jobs * slots))``, computed once per batch.

    With ``jobs`` workers each holding ``slots`` chunks in flight, the
    first fill takes at most half of the batch; the rest waits at the
    head of the shared queue for whichever worker frees up first, which
    balances load without routing or stealing."""
    return max(1, -(-n_tasks // (2 * jobs * slots)))


def take(queue: Deque[Task], n: int) -> List[Task]:
    """Pop up to ``n`` tasks from the head of the shared queue."""
    return [queue.popleft() for _ in range(min(n, len(queue)))]


class ExecutionBackend(ABC):
    """Strategy interface for executing one batch of independent tasks.

    Backends may keep expensive state (worker processes, transports)
    alive *across* batches — the runner calls :meth:`close` when it is
    retired.  The hard contract: for a given batch, the set of completed
    results and their values must be independent of scheduling; only
    wall-clock and the runner's operational stats may differ.
    """

    #: Registry name (``--backend`` value) of this backend.
    name: ClassVar[str] = "abstract"

    @abstractmethod
    def run_batch(self, runner: "SweepRunner", batch: BatchState) -> None:
        """Execute every index in ``batch.work``, folding completions
        through ``runner._complete`` and permanent failures into
        ``batch.failures``."""

    def close(self) -> None:
        """Release any long-lived resources (idempotent)."""
