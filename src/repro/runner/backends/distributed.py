"""Coordinator + stateless worker agents: the ``distributed`` backend.

The warm backend's fleet lives behind OS pipes in one process tree; this
backend puts the same shared-queue dispatch behind a *network* seam
(:mod:`.transport`) so the fleet can be separate processes on this host
(the default: the coordinator spawns its own agents), or externally
launched ``repro sweep worker`` processes on any host that can reach the
coordinator's tcp address.

Once work leaves the process tree, every comfortable assumption breaks:
messages drop, arrive twice, arrive late, workers die silently or hang
behind a partition.  The design answers with three mechanisms:

**Leases** (:mod:`.lease`)
    A dispatch is a *lease* of a task chunk with a heartbeat deadline.
    Agents beat before each task; a lease that misses its budget is
    expired — its tasks requeue, consuming an attempt from the retry
    budget exactly like a crashed warm worker.  Liveness needs no
    cooperation from the dead.
**Idempotent commit** (first write wins)
    Delivery is at-least-once, so the same task can complete twice (a
    duplicated result frame, or a re-execution racing a stale worker
    behind a healed partition).  Every completion passes a per-task
    commit gate: the first result is committed through
    :meth:`SweepRunner._complete` (cache + journal), any later result is
    byte-compared against it — identical duplicates are counted and
    discarded, a mismatch is quarantined next to the result cache and
    aborts the sweep loudly, because a nondeterministic task invalidates
    the repo's core bit-identity contract.
**Graceful degradation**
    A fleet that keeps dying (``max_fleet_failures`` exceeded) is
    retired and the remainder of the batch runs on the local ``warm``
    backend / inline, preserving attempt accounting.  SIGINT/SIGTERM
    take the runner's normal drain path: folded results are journaled
    and the resume hint prints.

Dispatch matches the warm backend: one FIFO of ``(index, attempt)``
tasks per batch, and an idle agent is leased the next chunk from its
head.  Leases are auto-sized like warm chunks and capped once per batch
by :func:`~.base.chunk_cap`.  An agent carries no state from one task to
the next, like a warm worker.  Scheduling
cannot affect results: every config carries its own seed, and the chaos
suite (``repro faults --backend distributed``) proves bit-identity
under every fault kind.

RPR013 applies to this module: wall-clock reads go through the
injectable clock seam (``DistributedOptions.clock``, defaulting to
``time.monotonic`` *by reference*), so lease expiry is unit-testable
with a fake clock and chaos runs replay deterministically.
"""

from __future__ import annotations

import json
import os
import signal
import time
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    List,
    Optional,
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
    _worker_init,
    _WorkerTask,
    chunk_cap,
    take,
)
from .lease import Clock, Lease, LeaseTable
from .transport import (
    ChaosCoordinatorTransport,
    CoordinatorTransport,
    TcpCoordinator,
    TcpWorker,
    TransportError,
)
from .warm import (
    _ChunkSizer,
    _mp_context,
    _run_chunk,
    _terminate_processes,
    reset_warm_state,
)

if TYPE_CHECKING:
    from ..runner import SweepRunner

__all__ = [
    "DistributedBackend",
    "DistributedOptions",
    "run_worker_agent",
]

#: Upper bound on auto-sized leases (each aims at ``_TARGET_CHUNK_S`` of
#: simulation, like a warm chunk).
_MAX_LEASE_TASKS = 32


@dataclass(frozen=True)
class DistributedOptions:
    """Tuning and test levers for the distributed backend.

    None of these can affect results — only wall-clock and recovery
    counters.
    """

    #: TCP listen address, ``host:port`` (port 0 = ephemeral).
    bind: str = "127.0.0.1:0"
    #: Spawn local agent processes (False = wait for external
    #: ``repro sweep worker`` processes to join).
    spawn_agents: bool = True
    #: Heartbeat budget: a lease silent for longer is expired and its
    #: tasks requeued (consuming an attempt each).
    lease_timeout_s: float = 60.0
    #: Agent deaths tolerated per batch before the coordinator retires
    #: the fleet and finishes on the local warm backend.
    max_fleet_failures: int = 3
    #: Coordinator poll cadence (also the chaos delay quantum).
    tick_s: float = 0.05
    #: Idle agents re-hello at this cadence (liveness + late joins).
    idle_poll_s: float = 0.5
    #: Injectable time source for lease bookkeeping (RPR013); None means
    #: ``time.monotonic``, passed by reference, never called here.
    clock: Optional[Clock] = None

    def __post_init__(self) -> None:
        if self.lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if self.max_fleet_failures < 0:
            raise ValueError("max_fleet_failures must be >= 0")
        if self.tick_s <= 0 or self.idle_poll_s <= 0:
            raise ValueError("tick_s and idle_poll_s must be positive")


# ----------------------------------------------------------------------
# Agent side (worker process / `repro sweep worker`)
# ----------------------------------------------------------------------
def _agent_loop(link: TcpWorker, worker_id: str, idle_poll_s: float) -> None:
    """Serve leases until told to stop.

    The agent is *stateless by design*: everything a lease needs (tasks
    and fault plan) ships inside the lease message, so a fresh agent —
    respawned, or on another host — is interchangeable with the one that
    died.  It carries no state across tasks (the RPR012 ledger is
    empty).
    """
    leases_seen = 0
    link.send(("hello", worker_id))
    while True:
        message = link.recv(idle_poll_s)
        if message is None:
            # Idle re-hello: idempotent registration that doubles as a
            # liveness signal (it re-establishes dropped registrations
            # and advances chaos partition windows so partitions heal).
            link.send(("hello", worker_id))
            continue
        mtype = message[0]
        if mtype == "stop":
            link.send(("bye", worker_id))
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
        link.send(("beat", worker_id, lease_id))

        def _beat(lease_id: int = lease_id) -> None:
            link.send(("beat", worker_id, lease_id))

        meta, summaries, interrupted = _run_chunk(tasks, _beat)
        link.send(("result", worker_id, lease_id, meta, summaries,
                   interrupted))


def _agent_main(address: str, worker_id: str, idle_poll_s: float) -> None:
    """Local agent process entrypoint (module-level: RPR006).

    SIGINT is ignored so a Ctrl-C in the coordinator's terminal takes
    the coordinator's graceful-drain path (journal flush + resume hint)
    instead of racing agent deaths against it; the coordinator stops
    agents explicitly.
    """
    _worker_init()
    if hasattr(signal, "SIGINT"):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    reset_warm_state()
    try:
        link = TcpWorker(address)
    except TransportError:
        return
    try:
        _agent_loop(link, worker_id, idle_poll_s)
    except TransportError:
        return  # coordinator gone; nothing to clean up but the socket
    finally:
        link.close()


def run_worker_agent(address: str, worker_id: str,
                     idle_poll_s: float = 0.5) -> None:
    """Run one worker agent in this process until the coordinator says
    stop (the ``repro sweep worker`` entrypoint for joining a sweep from
    another shell or host).  ``address`` is the coordinator's tcp
    ``host:port``; :class:`TransportError` if nothing listens there."""
    reset_warm_state()
    link = TcpWorker(address)
    try:
        _agent_loop(link, worker_id, idle_poll_s)
    except (KeyboardInterrupt, TransportError):
        pass
    finally:
        link.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
@dataclass
class _AgentSlot:
    """Coordinator-side view of one fleet position.

    Worker ids are ``w<slot>.<generation>``: a respawn bumps the
    generation, so a late message from a dead agent can never be
    mistaken for its replacement.
    """

    idx: int
    generation: int = 0
    worker_id: str = ""
    process: Optional[BaseProcess] = None
    registered: bool = False
    lease_id: Optional[int] = None


class DistributedBackend(ExecutionBackend):
    """Lease-based coordinator over a worker-agent fleet (module docstring)."""

    name = "distributed"

    def __init__(self, options: Optional[DistributedOptions] = None) -> None:
        self.options = options if options is not None else DistributedOptions()
        clock = self.options.clock
        # The only wall-clock reference in the coordinator: taken by
        # reference, called only through the seam (RPR013).
        self._clock: Clock = clock if clock is not None else time.monotonic
        self._ctx = _mp_context()
        self._transport: Optional[CoordinatorTransport] = None
        self._chaos: Optional[ChaosCoordinatorTransport] = None
        self._slots: List[_AgentSlot] = []
        self._procs: List[BaseProcess] = []      # shared with the finalizer
        self._sizer = _ChunkSizer(_MAX_LEASE_TASKS)
        self._lease_counter = 0
        self._committed: Dict[int, bytes] = {}
        self._status_tick = 0
        self._finalizer = weakref.finalize(
            self, _terminate_processes, self._procs)

    # ------------------------------------------------------------------
    # transport / fleet lifecycle
    # ------------------------------------------------------------------
    def _ensure_transport(self, runner: "SweepRunner") -> CoordinatorTransport:
        if self._transport is not None:
            return self._transport
        inner = TcpCoordinator(self.options.bind)
        plan = runner.fault_plan
        if plan is not None and any(plan.rate(kind) > 0.0
                                    for kind in NETWORK_FAULT_KINDS):
            self._chaos = ChaosCoordinatorTransport(inner, plan)
            self._transport = self._chaos
        else:
            self._transport = inner
        return self._transport

    def _ensure_slots(self, n: int) -> None:
        while len(self._slots) < n:
            self._slots.append(_AgentSlot(idx=len(self._slots)))

    def _spawn_agent(self, slot: _AgentSlot) -> None:
        slot.generation += 1
        slot.worker_id = f"w{slot.idx}.{slot.generation}"
        slot.registered = False
        slot.lease_id = None
        assert self._transport is not None  # run_batch opens it first
        process = self._ctx.Process(
            target=_agent_main,
            args=(self._transport.address(), slot.worker_id,
                  self.options.idle_poll_s),
            daemon=True, name=f"repro-dist-{slot.worker_id}")
        process.start()
        slot.process = process
        self._procs.append(process)

    def _ensure_agents(self, n: int) -> None:
        self._ensure_slots(n)
        for slot in self._slots:
            if slot.process is None:
                self._spawn_agent(slot)

    def _retire_process(self, slot: _AgentSlot) -> None:
        process = slot.process
        slot.process = None
        slot.registered = False
        slot.lease_id = None
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
        if process in self._procs:
            self._procs.remove(process)

    def _shutdown(self) -> None:
        """Retire the whole fleet and the transport (idempotent)."""
        transport = self._transport
        for slot in self._slots:
            if transport is not None and slot.registered:
                try:
                    transport.send(slot.worker_id, ("stop",))
                except Exception:
                    pass
            self._retire_process(slot)
        self._slots.clear()
        if transport is not None:
            transport.close()
        self._transport = None
        self._chaos = None

    def close(self) -> None:
        self._shutdown()

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def run_batch(self, runner: "SweepRunner", batch: BatchState) -> None:
        opts = self.options
        queue: Deque[Task] = deque((i, 1) for i in batch.work)
        transport = self._ensure_transport(runner)
        # Fault plans force single-task leases so failure attribution
        # stays per-task, matching the warm backend.  An agent holds one
        # lease at a time: one in-flight slot per worker, so auto-sized
        # leases are capped with ``slots=1``.
        faulty = runner.fault_plan is not None
        cap = chunk_cap(len(queue), runner.jobs, 1)
        table = LeaseTable(opts.lease_timeout_s, self._clock)
        self._committed = {}
        self._status_tick = 0
        fleet_failures = 0
        try:
            if opts.spawn_agents:
                self._ensure_agents(runner.jobs)
            else:
                self._ensure_slots(runner.jobs)
            while True:
                if runner.fail_fast and batch.failures:
                    # In-flight leases are abandoned with their fleet: a
                    # stale result landing in the next batch could never
                    # commit (fresh lease table), but the fleet is torn
                    # down anyway to stop the work promptly.
                    self._shutdown()
                    return
                if fleet_failures > opts.max_fleet_failures:
                    self._fall_back(runner, batch, queue, table)
                    return

                # Local-agent liveness: a dead process forfeits its
                # lease immediately (no need to wait out the heartbeat
                # budget when the OS already told us).
                for slot in self._slots:
                    process = slot.process
                    if process is not None and not process.is_alive():
                        fleet_failures += 1
                        self._agent_died(slot, runner, batch, queue, table)
                        if (opts.spawn_agents and
                                fleet_failures <= opts.max_fleet_failures):
                            self._spawn_agent(slot)
                            runner.stats.pool_respawns += 1

                # Heartbeat expiry: remote/hung workers forfeit theirs.
                for lease in table.expired():
                    runner.stats.lease_expiries += 1
                    slot = self._slot_by_id(lease.worker_id)
                    if slot is not None and slot.lease_id == lease.lease_id:
                        slot.lease_id = None
                        # A worker that missed its heartbeat budget is
                        # suspect: require a fresh hello (the idle loop
                        # re-hellos) before granting it anything again —
                        # otherwise the requeued task routes straight
                        # back to the very worker that just went dark.
                        slot.registered = False
                    self._requeue_lease(
                        lease, "timeout",
                        "lease expired: worker missed its heartbeat "
                        "budget; tasks requeued",
                        runner, batch, queue)
                    self._write_status(batch, queue, table, force=True)

                for slot in self._slots:
                    if (slot.registered and slot.lease_id is None
                            and queue
                            and not (runner.fail_fast and batch.failures)):
                        self._grant(slot, runner, batch, queue, table,
                                    1 if faulty
                                    else min(self._sizer.size(), cap),
                                    transport)

                if (not queue and table.active() == 0
                        and transport.pending() == 0):
                    self._clear_status(batch)
                    return

                for message in transport.poll(opts.tick_s):
                    self._handle(message, runner, batch, queue, table,
                                 transport)
        except BaseException:
            # Interrupt or internal error: persist the lease state for
            # `repro sweep status`, then retire the fleet so no stale
            # result can ever land after this frame unwinds.
            self._write_status(batch, queue, table, force=True)
            self._shutdown()
            raise

    # ------------------------------------------------------------------
    # dispatch / message handling
    # ------------------------------------------------------------------
    def _slot_by_id(self, worker_id: str) -> Optional[_AgentSlot]:
        for slot in self._slots:
            if slot.worker_id == worker_id:
                return slot
        return None

    def _grant(self, slot: _AgentSlot, runner: "SweepRunner",
               batch: BatchState, queue: Deque[Task], table: LeaseTable,
               size: int, transport: CoordinatorTransport) -> None:
        # Tasks committed since they were (re)queued — e.g. a stale
        # result arrived for a task a lease expiry had requeued — are
        # already done; dispatching them again would only burn work.
        chunk = [t for t in take(queue, size) if t[0] not in self._committed]
        if not chunk:
            return
        self._lease_counter += 1
        lease = table.grant(self._lease_counter, slot.worker_id, chunk)
        tasks = tuple(
            _WorkerTask(batch.configs[i], batch.fault_keys[i], attempt,
                        runner.timeout_s, runner.fault_plan)
            for i, attempt in chunk
        )
        sent = transport.send(slot.worker_id,
                              ("lease", lease.lease_id, tasks))
        if not sent:
            # The message never left the coordinator: retract the lease
            # and requeue without consuming an attempt (the path that
            # does consume one is a worker dying *with* its lease).
            table.complete(lease.lease_id)
            queue.extend(chunk)
            slot.registered = False
            return
        slot.lease_id = lease.lease_id
        runner.stats.leases += 1
        runner.stats.chunks += 1
        self._write_status(batch, queue, table)

    def _handle(self, message: Tuple[Any, ...], runner: "SweepRunner",
                batch: BatchState, queue: Deque[Task],
                table: LeaseTable,
                transport: CoordinatorTransport) -> None:
        mtype = message[0]
        if mtype == "hello":
            worker_id = str(message[1])
            slot = self._slot_by_id(worker_id)
            if slot is None:
                slot = self._bind_external(worker_id)
            if slot is not None:
                slot.registered = True
            else:
                # No fleet position for this id (a superseded generation
                # or an over-provisioned joiner): turn it away politely.
                transport.send(worker_id, ("stop",))
            return
        if mtype == "beat":
            table.heartbeat(int(message[2]))
            return
        if mtype == "bye":
            slot = self._slot_by_id(str(message[1]))
            if slot is not None:
                slot.registered = False
            return
        if mtype == "result":
            self._fold(message, runner, batch, queue, table)
            return
        raise RuntimeError(
            f"distributed protocol violation: unknown message type "
            f"{mtype!r} from a worker")

    def _bind_external(self, worker_id: str) -> Optional[_AgentSlot]:
        """Attach an externally launched worker to a free fleet slot."""
        for slot in self._slots:
            if slot.process is None and not slot.worker_id:
                slot.worker_id = worker_id
                return slot
        return None

    # ------------------------------------------------------------------
    # failure / retry accounting
    # ------------------------------------------------------------------
    def _requeue_lease(self, lease: Lease, kind: str, error: str,
                       runner: "SweepRunner", batch: BatchState,
                       queue: Deque[Task]) -> None:
        """Charge an attempt to every task of a forfeited lease.

        The coordinator cannot know how far into the chunk the worker
        got, so the conservative accounting treats all of it as a failed
        attempt — results stay correct either way (a re-run is
        bit-identical, and a late duplicate is absorbed by the commit
        gate)."""
        elapsed_s = max(0.0, self._clock() - lease.granted_at_s)
        for index, attempt in lease.tasks:
            if index in self._committed:
                continue  # a (stale) result already landed for it
            if kind == "timeout":
                runner.stats.timeouts += 1
            runner._retry_or_fail(index, attempt, kind, error, elapsed_s,
                                  queue, batch.keys, batch.failures)

    def _agent_died(self, slot: _AgentSlot, runner: "SweepRunner",
                    batch: BatchState, queue: Deque[Task],
                    table: LeaseTable) -> None:
        for lease in table.release_worker(slot.worker_id):
            self._requeue_lease(
                lease, "crash",
                "worker agent process died holding this lease",
                runner, batch, queue)
        self._retire_process(slot)
        self._write_status(batch, queue, table, force=True)

    def _fall_back(self, runner: "SweepRunner", batch: BatchState,
                   queue: Deque[Task], table: LeaseTable) -> None:
        """The fleet keeps dying: retire it and finish locally.

        First-attempt tasks go through the local ``warm`` backend (it
        assigns attempt 1 itself); tasks mid-retry run inline so their
        attempt accounting carries over exactly."""
        runner.stats.fleet_fallbacks += 1
        for lease in table.release_all():
            # The fleet is being retired — no attempt consumed.
            queue.extend(lease.tasks)
        remaining = sorted(t for t in queue if t[0] not in self._committed)
        self._shutdown()
        fresh = [index for index, attempt in remaining if attempt == 1]
        seasoned = [t for t in remaining if t[1] > 1]
        if fresh and not (runner.fail_fast and batch.failures):
            sub = BatchState(fresh, batch.configs, batch.keys,
                             batch.fault_keys, batch.results,
                             batch.journal, batch.failures)
            runner._get_backend("warm").run_batch(runner, sub)
        for index, attempt in seasoned:
            if runner.fail_fast and batch.failures:
                return
            runner._run_inline(index, attempt, batch.configs,
                               batch.keys, batch.fault_keys, batch.results,
                               batch.journal, batch.failures)
        self._clear_status(batch)

    # ------------------------------------------------------------------
    # result folding: the idempotent commit gate
    # ------------------------------------------------------------------
    def _fold(self, message: Tuple[Any, ...], runner: "SweepRunner",
              batch: BatchState, queue: Deque[Task],
              table: LeaseTable) -> None:
        _, worker_id, lease_id, meta, summaries, interrupted = message
        lease, was_active = table.complete(int(lease_id))
        if lease is None:
            # A lease this table never issued (previous batch leftovers
            # after a drain): nothing it reports can be attributed.
            runner.stats.stale_results += 1
            return
        slot = self._slot_by_id(lease.worker_id)
        if slot is not None and slot.lease_id == int(lease_id):
            slot.lease_id = None
        if not was_active:
            runner.stats.stale_results += 1
        cursor = 0
        samples: List[float] = []
        for (index, attempt), (ok, kind, error, elapsed_s) in zip(
                lease.tasks, meta):
            if ok:
                summary = summaries[cursor]
                cursor += 1
                if self._commit(index, summary, runner, batch):
                    samples.append(elapsed_s)
            elif was_active:
                if kind == "timeout":
                    runner.stats.timeouts += 1
                runner._retry_or_fail(index, attempt, kind, error, elapsed_s,
                                      queue, batch.keys, batch.failures)
            # Stale failures need no action: the expiry that retired the
            # lease already charged the attempt and requeued the task.
        self._sizer.observe(samples)
        self._write_status(batch, queue, table)
        if interrupted and was_active:
            # Completed prefix above is already committed/journaled —
            # propagate the graceful-shutdown path like a serial Ctrl-C.
            raise KeyboardInterrupt("sweep interrupted in a worker agent")

    def _commit(self, index: int, summary: SimulationSummary,
                runner: "SweepRunner", batch: BatchState) -> bool:
        """First write wins; duplicates byte-compared; mismatch aborts."""
        blob = json.dumps(summary_to_dict(summary), sort_keys=True,
                          separators=(",", ":")).encode()
        prior = self._committed.get(index)
        if prior is None:
            self._committed[index] = blob
            runner._complete(index, summary, batch.keys[index],
                             batch.results, batch.journal)
            return True
        if prior == blob:
            runner.stats.dup_results += 1
            return False
        self._quarantine_mismatch(index, batch.keys[index], prior, blob,
                                  runner)
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
            f"distributed result mismatch for task #{index} "
            f"(key {(key or 'uncacheable')[:12]}): a re-executed attempt "
            f"returned a different result than the one already committed "
            f"— the determinism contract is violated, aborting the sweep"
            + where)

    # ------------------------------------------------------------------
    # `repro sweep status` state file
    # ------------------------------------------------------------------
    def _status_path(self, batch: BatchState) -> Optional[Path]:
        if batch.journal is None:
            return None
        path = batch.journal.path
        return path.with_name(path.stem + ".state.json")

    def _write_status(self, batch: BatchState, queue: Deque[Task],
                      table: LeaseTable, force: bool = False) -> None:
        path = self._status_path(batch)
        if path is None:
            return
        self._status_tick += 1
        if not force and self._status_tick % 16 != 1:
            return
        journal = batch.journal
        assert journal is not None
        payload: Dict[str, object] = {
            "format": 1,
            "backend": "distributed",
            "sweep": journal.sweep,
            "label": journal.label,
            "total": journal.total,
            "done": journal.recorded,
            "pending": len(queue),
            "failed": len(batch.failures),
            "workers": sorted(slot.worker_id for slot in self._slots
                              if slot.registered),
            "leases": table.snapshot(),
        }
        try:
            staged = path.with_name(path.name + ".tmp")
            staged.write_text(json.dumps(payload, indent=2, sort_keys=True))
            os.replace(staged, path)
        except OSError:
            pass  # status is advisory; never fail the sweep over it

    def _clear_status(self, batch: BatchState) -> None:
        path = self._status_path(batch)
        if path is None:
            return
        try:
            path.unlink()
        except OSError:
            pass
