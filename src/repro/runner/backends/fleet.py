"""One lease coordinator for both worker fleets, ``warm`` and ``distributed``.

A batch's pending attempts are one FIFO of ``(index, attempt)`` tasks;
the coordinator leases chunks from its head to worker agents.  Every
agent runs :func:`_agent_loop`, whatever carries its messages
(:mod:`.transport`): pipes to agents forked here (:mod:`.warm`), or tcp
to agents forked here or joining from other hosts (:mod:`.distributed`).
``docs/DISTRIBUTED.md`` has the protocol and its failure table.

**Leases** (:mod:`.lease`).  An agent holds up to
:data:`_LEASES_PER_AGENT` leases, one running and one queued behind it,
or one single-task lease while a fault plan is armed (so a failure is
attributable to its task).  Only an agent's result or beat refreshes
its leases, and it refreshes all of them; a hello never does, so a
dropped lease still expires.  An agent silent past its budget
(:meth:`FleetBackend._silence_budget_s`) is lost: its tasks requeue,
charging an attempt each, and an agent forked here is killed and
respawned.

**Idempotent commit.**  Delivery is at-least-once; the first result for
a task is committed, a later one is byte-compared with it and discarded,
and a mismatch is quarantined and aborts the sweep.

**One failure budget.**  A fleet that loses more than the runner's
``max_pool_failures`` agents in a batch is retired, and the rest of the
batch runs inline with attempts carried over (``fleet_fallbacks``).

Every config carries its own seed and an agent carries no state from one
task to the next, so scheduling cannot change a result.  RPR013 applies
here: time is read only through the injected clock.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import weakref
from collections import deque
from dataclasses import dataclass
from functools import partial
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ...sim.metrics import SimulationSummary
from ..cache import summary_to_dict
from ..faults import NETWORK_FAULT_KINDS
from .base import (
    _CRASH_EXIT_CODE,
    BatchState,
    ExecutionBackend,
    Task,
    _execute_task,
    _WorkerOutcome,
    _WorkerTask,
    chunk_cap,
    take,
)
from .lease import Clock, Lease, LeaseTable
from .transport import (
    AgentLink,
    ChaosCoordinatorTransport,
    CoordinatorTransport,
    Message,
    TransportError,
)

if TYPE_CHECKING:
    from ..runner import SweepRunner

__all__ = ["FleetBackend"]

#: Auto-sizing target: one lease should cost about this much simulation.
_TARGET_CHUNK_S = 0.2
#: Upper bound on auto-sized leases.
_MAX_LEASE_TASKS = 64
#: Leases in flight per agent without a fault plan: one running, one
#: queued behind it.  With ~1 ms tasks, an agent idling while the
#: coordinator folds and refills would be the dominant dispatch cost.
_LEASES_PER_AGENT = 2
#: Coordinator poll cadence (also the chaos delay quantum).
TICK_S = 0.05
#: Idle agents say hello, and busy ones beat between tasks, at most this
#: often.
IDLE_POLL_S = 0.5


# ----------------------------------------------------------------------
# Agent side
# ----------------------------------------------------------------------
#: meta entry per executed task: (ok, kind, error, elapsed_s)
_TaskMeta = Tuple[bool, str, str, float]


def _run_chunk(tasks: Sequence[_WorkerTask],
               beat: Optional[Callable[[], None]] = None,
               ) -> Tuple[Tuple[_TaskMeta, ...],
                          Tuple[SimulationSummary, ...], bool]:
    """Execute one lease's tasks in this process; returns (meta,
    summaries, interrupted), with one summary per successful task, in
    task order.

    ``beat`` is called between tasks.  Separated from the agent loop so
    tests can drive the exact execution path in-process.
    """
    outcomes: List[_WorkerOutcome] = []
    interrupted = False
    for i, task in enumerate(tasks):
        if i and beat is not None:
            beat()
        try:
            outcomes.append(_execute_task(task))
        except KeyboardInterrupt:
            interrupted = True
            break
    summaries = tuple(o.summary for o in outcomes
                      if o.ok and o.summary is not None)
    meta = tuple((o.ok, o.kind, o.error, o.elapsed_s) for o in outcomes)
    return meta, summaries, interrupted


def _agent_loop(link: AgentLink, worker_id: str, idle_poll_s: float,
                clock: Clock) -> None:
    """Serve leases until told to stop.

    The agent is *stateless by design*: everything a lease needs (tasks
    and fault plan) ships inside the lease message, so a fresh agent —
    respawned, or on another host — is interchangeable with the one it
    replaces.  It says hello on start and after every ``idle_poll_s``
    without a message (registration, and the traffic that heals chaos
    partitions); between tasks it beats only once ``idle_poll_s`` has
    passed since its last message.
    """
    sent_s = clock()

    def send(message: Message) -> None:
        nonlocal sent_s
        link.send(message)
        sent_s = clock()

    def beat(lease_id: int) -> None:
        if clock() - sent_s >= idle_poll_s:
            send(("beat", worker_id, lease_id))

    leases_seen = 0
    send(("hello", worker_id))
    while True:
        message = link.recv(idle_poll_s)
        if message is None:
            send(("hello", worker_id))
            continue
        mtype = message[0]
        if mtype == "stop":
            return
        if mtype != "lease":
            raise TransportError(
                f"unexpected coordinator message {mtype!r}")
        _, lease_id, tasks = message
        leases_seen += 1
        plan = tasks[0].plan if tasks else None
        if plan is not None and plan.faulty(tasks[0].attempt) and \
                plan.decide("kill", f"agent|{worker_id}", leases_seen):
            os._exit(_CRASH_EXIT_CODE)
        meta, summaries, interrupted = _run_chunk(tasks,
                                                  partial(beat, lease_id))
        send(("result", worker_id, lease_id, meta, summaries, interrupted))


def _terminate_agents(slots: List[_AgentSlot]) -> None:
    """Finalizer of a fleet never closed: hard-stop its agents."""
    for slot in slots:
        try:
            if slot.process is not None and slot.process.is_alive():
                slot.process.terminate()
        except Exception:
            pass


def _mp_context() -> BaseContext:
    """Fork where available (fast, inherits imports); default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
@dataclass
class _AgentSlot:
    """Coordinator-side view of one fleet position.

    Worker ids are ``w<slot>.<generation>``: a respawn bumps the
    generation, so a late message from a dead agent can never be
    mistaken for its replacement.  ``process`` is set for agents forked
    here and None for external ones.
    """

    idx: int
    generation: int = 0
    worker_id: str = ""
    process: Optional[BaseProcess] = None
    registered: bool = False


@dataclass
class _Run:
    """One batch in flight: its queue, its leases, and its agent losses."""

    runner: "SweepRunner"
    batch: BatchState
    transport: CoordinatorTransport
    queue: Deque[Task]
    table: LeaseTable
    lost: int = 0

    def halted(self) -> bool:
        return self.runner.fail_fast and bool(self.batch.failures)


class FleetBackend(ExecutionBackend):
    """The lease coordinator (module docstring).

    A subclass supplies the transport (:meth:`_open_transport`) and forks
    its agents (:meth:`_spawn_process`).
    """

    def __init__(self, *, tick_s: float = TICK_S,
                 idle_poll_s: float = IDLE_POLL_S,
                 clock: Optional[Clock] = None,
                 spawn_agents: bool = True) -> None:
        self.tick_s = tick_s
        self.idle_poll_s = idle_poll_s
        self.spawn_agents = spawn_agents
        # The only wall-clock reference in the coordinator: taken by
        # reference, called only through the seam (RPR013).
        self._clock: Clock = clock if clock is not None else time.monotonic
        self._ctx = _mp_context()
        self._transport: Optional[CoordinatorTransport] = None
        self._slots: List[_AgentSlot] = []       # shared with the finalizer
        self._task_ema_s: Optional[float] = None  # see _lease_size
        self._lease_counter = 0
        self._status: Optional[Path] = None
        self._status_tick = 0
        self._finalizer = weakref.finalize(
            self, _terminate_agents, self._slots)

    # ------------------------------------------------------------------
    # what a transport supplies
    # ------------------------------------------------------------------
    def _open_transport(self) -> CoordinatorTransport:
        raise NotImplementedError

    def _spawn_process(self, slot: _AgentSlot) -> BaseProcess:
        """Fork an agent for ``slot.worker_id`` (set ``slot.registered``
        when its route exists before it says hello)."""
        raise NotImplementedError

    def _silence_budget_s(self, runner: "SweepRunner") -> Optional[float]:
        """How long an agent holding leases may stay silent before it is
        declared lost; None = never (its death is seen some other way)."""
        return runner._hard_timeout_s()

    # ------------------------------------------------------------------
    # transport / fleet lifecycle
    # ------------------------------------------------------------------
    def _ensure_transport(self, runner: "SweepRunner") -> CoordinatorTransport:
        if self._transport is None:
            self._transport = self._open_transport()
            plan = runner.fault_plan
            if plan is not None and any(plan.rate(kind) > 0.0
                                        for kind in NETWORK_FAULT_KINDS):
                self._transport = ChaosCoordinatorTransport(
                    self._transport, plan)
        return self._transport

    def _spawn_agent(self, slot: _AgentSlot) -> None:
        slot.generation += 1
        slot.worker_id = f"w{slot.idx}.{slot.generation}"
        slot.registered = False
        slot.process = self._spawn_process(slot)

    def _retire_process(self, slot: _AgentSlot) -> None:
        process = slot.process
        slot.process = None
        slot.registered = False
        if process is None:
            return
        try:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
                if process.is_alive():  # wedged past SIGTERM
                    process.kill()
                    process.join(timeout=1.0)
        except Exception:
            pass

    def _shutdown(self) -> None:
        """Retire the whole fleet and the transport (idempotent)."""
        transport = self._transport
        for slot in self._slots:
            if transport is not None and slot.registered:
                transport.send(slot.worker_id, ("stop",))
            self._retire_process(slot)
        self._slots.clear()
        if transport is not None:
            transport.close()
        self._transport = None

    def close(self) -> None:
        self._shutdown()

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def run_batch(self, runner: "SweepRunner", batch: BatchState) -> None:
        run = _Run(runner, batch, self._ensure_transport(runner),
                   deque((i, 1) for i in batch.work),
                   LeaseTable(self._silence_budget_s(runner), self._clock))
        faulty = runner.fault_plan is not None
        per_agent = 1 if faulty else _LEASES_PER_AGENT
        cap = 1 if faulty else chunk_cap(len(run.queue), runner.jobs,
                                         per_agent)
        # Where `repro sweep status` looks for this batch's live state.
        self._status = None if batch.journal is None else \
            batch.journal.path.with_suffix(".state.json")
        self._status_tick = 0
        try:
            while len(self._slots) < runner.jobs:
                self._slots.append(_AgentSlot(idx=len(self._slots)))
            for slot in self._slots:
                if self.spawn_agents and slot.process is None:
                    self._spawn_agent(slot)
            while True:
                if run.halted():
                    # In-flight leases are abandoned with their fleet: a
                    # stale result landing in the next batch could never
                    # commit (fresh lease table), but the fleet is torn
                    # down anyway to stop the work promptly.
                    self._shutdown()
                    return
                if run.lost > runner.max_pool_failures:
                    self._finish_inline(run)
                    return

                # A dead process forfeits its leases at once: no need to
                # wait out the silence budget when the OS already told us.
                for slot in self._slots:
                    if slot.process is not None and \
                            not slot.process.is_alive():
                        self._lose_agent(run, slot, "crash", _DIED)

                for lease in run.table.expired():
                    runner.stats.lease_expiries += 1
                    self._requeue(run, lease, "timeout", _EXPIRED)
                    slot = self._slot_by_id(lease.worker_id)
                    if slot is not None and slot.process is not None:
                        self._lose_agent(run, slot, "timeout", _EXPIRED)
                    elif slot is not None:
                        # An external agent that went dark must say hello
                        # again before it is leased anything.
                        slot.registered = False

                # Breadth-first fill: every agent gets its first lease
                # before anyone gets a second.
                for level in range(per_agent):
                    for slot in self._slots:
                        if (slot.registered and run.queue
                                and run.table.held(slot.worker_id) <= level
                                and not run.halted()):
                            self._grant(run, slot, self._lease_size(cap))

                if (not run.queue and run.table.active() == 0
                        and run.transport.pending() == 0):
                    return
                self._write_status(run)
                for message in run.transport.poll(self.tick_s):
                    self._handle(run, message)
        except BaseException:
            # Interrupt or internal error: retire the fleet so no stale
            # result can ever land after this frame unwinds.
            self._shutdown()
            raise
        finally:
            # The state file describes a live coordinator; once this
            # frame exits, whatever the path, there is none.  The journal
            # keeps what `repro sweep status` and --resume need.
            self._clear_status()

    # ------------------------------------------------------------------
    # dispatch / message handling
    # ------------------------------------------------------------------
    def _slot_by_id(self, worker_id: str) -> Optional[_AgentSlot]:
        for slot in self._slots:
            if slot.worker_id == worker_id:
                return slot
        return None

    def _lease_size(self, cap: int) -> int:
        """One task (a probe) until a task has been timed, then about
        :data:`_TARGET_CHUNK_S` of work, at most :data:`_MAX_LEASE_TASKS`
        and ``cap``.  The per-task EMA survives across batches, so a
        runner's second sweep starts sized."""
        if self._task_ema_s is None:
            return 1
        fit = int(_TARGET_CHUNK_S / max(self._task_ema_s, 1e-6))
        return max(1, min(cap, _MAX_LEASE_TASKS, fit))

    def _grant(self, run: _Run, slot: _AgentSlot, size: int) -> None:
        # Tasks committed since they were (re)queued — e.g. a stale
        # result arrived for a task a lease expiry had requeued — are
        # already done; dispatching them again would only burn work.
        results = run.batch.results
        chunk = [t for t in take(run.queue, size) if results[t[0]] is None]
        if not chunk:
            return
        self._lease_counter += 1
        lease = run.table.grant(self._lease_counter, slot.worker_id, chunk)
        batch, runner = run.batch, run.runner
        tasks = tuple(
            _WorkerTask(batch.configs[i], batch.fault_keys[i], attempt,
                        runner.timeout_s, runner.fault_plan)
            for i, attempt in chunk
        )
        if not run.transport.send(slot.worker_id,
                                  ("lease", lease.lease_id, tasks)):
            # The message never left the coordinator: retract the lease
            # and requeue without consuming an attempt (the path that
            # does consume one is an agent lost *with* its lease).
            run.table.complete(lease.lease_id)
            run.queue.extend(chunk)
            slot.registered = False
            return
        runner.stats.chunks += 1

    def _handle(self, run: _Run, message: Message) -> None:
        mtype = message[0]
        if mtype == "result":
            self._fold(run, message)
            return
        if mtype == "beat":
            run.table.heartbeat(int(message[2]))
            return
        if mtype == "hello":
            worker_id = str(message[1])
            slot = self._slot_by_id(worker_id) or \
                self._bind_external(worker_id)
            if slot is not None:
                slot.registered = True
            else:
                # No fleet position for this id (a superseded generation
                # or an over-provisioned joiner): turn it away politely.
                run.transport.send(worker_id, ("stop",))
            return
        raise RuntimeError(
            f"fleet protocol violation: unknown message type {mtype!r} "
            f"from a worker")

    def _bind_external(self, worker_id: str) -> Optional[_AgentSlot]:
        """Attach an externally launched worker to a free fleet slot."""
        for slot in self._slots:
            if not slot.worker_id:
                slot.worker_id = worker_id
                return slot
        return None

    # ------------------------------------------------------------------
    # failure / retry accounting
    # ------------------------------------------------------------------
    def _requeue(self, run: _Run, lease: Lease, kind: str,
                 error: str) -> None:
        """Charge an attempt to every task of a forfeited lease.

        The coordinator cannot know how far into the lease the agent
        got, so the conservative accounting treats all of it as a failed
        attempt — results stay correct either way (a re-run is
        bit-identical, and a late duplicate is absorbed by the commit
        gate)."""
        elapsed_s = max(0.0, self._clock() - lease.granted_at_s)
        for index, attempt in lease.tasks:
            if run.batch.results[index] is None:  # else a stale result landed
                run.runner._retry_or_fail(run.batch, run.queue, index,
                                          attempt, kind, error, elapsed_s)

    def _lose_agent(self, run: _Run, slot: _AgentSlot, kind: str,
                    error: str) -> None:
        """Requeue a lost agent's leases, kill it, and, within the
        failure budget, fork a fresh one in its slot."""
        run.lost += 1
        for lease in run.table.release_worker(slot.worker_id):
            self._requeue(run, lease, kind, error)
        self._retire_process(slot)
        if run.lost <= run.runner.max_pool_failures:
            self._spawn_agent(slot)
            run.runner.stats.pool_respawns += 1
        self._write_status(run, force=True)

    def _finish_inline(self, run: _Run) -> None:
        """The fleet lost more agents than the budget allows: retire it
        and run the rest of the batch in this process, in index order,
        each task from the attempt it had reached."""
        run.runner.stats.fleet_fallbacks += 1
        for lease in run.table.release_all():
            # The fleet is being retired — no attempt consumed.
            run.queue.extend(lease.tasks)
        self._shutdown()
        results = run.batch.results
        for index, attempt in sorted(t for t in run.queue
                                     if results[t[0]] is None):
            if run.halted():
                break
            run.runner._run_inline(run.batch, index, attempt)

    # ------------------------------------------------------------------
    # result folding: the idempotent commit gate
    # ------------------------------------------------------------------
    def _fold(self, run: _Run, message: Message) -> None:
        _, _, lease_id, meta, summaries, interrupted = message
        run.table.heartbeat(int(lease_id))
        lease, was_active = run.table.complete(int(lease_id))
        if not was_active:
            run.runner.stats.stale_results += 1
        if lease is None:
            # A lease this table never issued (previous batch leftovers
            # after a drain): nothing it reports can be attributed.
            return
        cursor = 0
        for (index, attempt), (ok, kind, error, elapsed_s) in zip(
                lease.tasks, meta):
            if ok:
                summary = summaries[cursor]
                cursor += 1
                if self._commit(index, summary, run.runner, run.batch):
                    ema_s = self._task_ema_s
                    self._task_ema_s = elapsed_s if ema_s is None \
                        else 0.5 * (ema_s + elapsed_s)
            elif was_active:
                run.runner._retry_or_fail(run.batch, run.queue, index,
                                          attempt, kind, error, elapsed_s)
            # Stale failures need no action: the expiry that retired the
            # lease already charged the attempt and requeued the task.
        if interrupted and was_active:
            # Completed prefix above is already committed/journaled —
            # propagate the graceful-shutdown path like a serial Ctrl-C.
            raise KeyboardInterrupt("sweep interrupted in a worker agent")

    def _commit(self, index: int, summary: SimulationSummary,
                runner: "SweepRunner", batch: BatchState) -> bool:
        """First write wins (a work index's result slot is None until
        then); a duplicate is byte-compared (encoded only then, since
        only duplicates need it); a mismatch aborts."""
        prior = batch.results[index]
        if prior is None:
            runner._complete(batch, index, summary)
            return True
        committed, duplicate = _blob(prior), _blob(summary)
        if committed == duplicate:
            runner.stats.dup_results += 1
            return False
        self._quarantine_mismatch(index, batch.keys[index], committed,
                                  duplicate, runner)
        return False  # unreachable: _quarantine_mismatch raises

    def _quarantine_mismatch(self, index: int, key: Optional[str],
                             committed: bytes, duplicate: bytes,
                             runner: "SweepRunner") -> None:
        quarantine_dir: Optional[Path] = None
        if runner.cache is not None:
            quarantine_dir = runner.cache.quarantine_dir
        else:
            root = runner._checkpoint_root()
            if root is not None:
                quarantine_dir = root / "quarantine"
        where = ""
        if quarantine_dir is not None:
            name = f"mismatch-{(key or f'task{index}')[:16]}.json"
            try:
                quarantine_dir.mkdir(parents=True, exist_ok=True)
                (quarantine_dir / name).write_text(json.dumps({
                    "task_index": index,
                    "key": key,
                    "committed": json.loads(committed.decode()),
                    "duplicate": json.loads(duplicate.decode()),
                }, indent=2, sort_keys=True))
                where = f"; divergent payloads quarantined at " \
                        f"{quarantine_dir / name}"
            except OSError:
                where = "; quarantine write failed"
        raise RuntimeError(
            f"fleet result mismatch for task #{index} "
            f"(key {(key or 'uncacheable')[:12]}): a re-executed attempt "
            f"returned a different result than the one already committed "
            f"— the determinism contract is violated, aborting the sweep"
            + where)

    # ------------------------------------------------------------------
    # `repro sweep status` state file
    # ------------------------------------------------------------------
    def _write_status(self, run: _Run, force: bool = False) -> None:
        """Write the live lease state every 16th pass of the loop (a
        short batch never pays for it), and whenever ``force`` is set."""
        path = self._status
        if path is None:
            return
        self._status_tick += 1
        if not force and self._status_tick % 16:
            return
        journal = run.batch.journal
        assert journal is not None
        payload: Dict[str, object] = {
            "format": 1,
            "backend": self.name,
            "sweep": journal.sweep,
            "label": journal.label,
            "total": journal.total,
            "done": journal.recorded,
            "pending": len(run.queue),
            "failed": len(run.batch.failures),
            "workers": sorted(slot.worker_id for slot in self._slots
                              if slot.registered),
            "leases": run.table.snapshot(),
        }
        try:
            staged = path.with_name(path.name + ".tmp")
            staged.write_text(json.dumps(payload, indent=2, sort_keys=True))
            os.replace(staged, path)
        except OSError:
            pass  # status is advisory; never fail the sweep over it

    def _clear_status(self) -> None:
        if self._status is None:
            return
        try:
            self._status.unlink()
        except OSError:
            pass


#: Why a lost agent's leases were requeued.
_DIED = "worker agent process died holding this lease"
_EXPIRED = ("lease expired: its agent stayed silent past the budget; "
            "tasks requeued")


def _blob(summary: SimulationSummary) -> bytes:
    """Canonical bytes of a summary, for the commit gate's comparison."""
    return json.dumps(summary_to_dict(summary), sort_keys=True,
                      separators=(",", ":")).encode()
