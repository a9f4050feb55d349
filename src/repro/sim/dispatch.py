"""Paradigm dispatchers: Locking and IPS.

A dispatcher owns the mapping from arrived packets to (processor, thread)
executions, implements the :class:`repro.core.policies.SchedulerView`
protocol for its scheduling policy, and encodes each paradigm's coherence
semantics when assembling the per-packet cache state:

**Migration coherence.**  Writable footprint components live in the cache
of the processor that last *wrote* them; serving elsewhere finds them cold
(dirty lines migrate via the coherence protocol).  Concretely:

- per-stream state is warm only on the processor that last served the
  stream (elsewhere: ``COLD``);
- a thread's stack is warm only where the thread last ran;
- under **Locking**, the writable fraction of the shared code+globals
  component is invalidated whenever *any other* processor completed
  protocol work since this processor last did (global epoch test);
- under **IPS**, each stack's writable data is private: it is cold only
  when the *stack itself* migrated to a new processor — the structural
  reason "IPS maximizes cache affinity".

Read-mostly code+globals are displaced only by local intervening
references (tracked by the processor's displacing-reference clock).

**Hot path.**  ``_start_service`` and ``_complete`` each run once per
packet, so the :class:`~repro.sim.entities.ProcessorState` lifecycle
(idle-clock accrual, reference assembly, touch-table stamping) is inlined
rather than delegated — the float expression trees are preserved
operation for operation, so results stay bit-identical to the
straightforward code.  Touch-table keys are interned per stream/thread
(one tuple allocation per entity, not per packet), completions re-push
one preallocated engine event record per processor, and the idle set is
maintained incrementally (sorted ascending, matching the historical scan
order) instead of rescanned on every policy query.  The
:class:`ComponentState` dataclass is only materialized when a tracer
wants it.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from ..core.exec_model import COLD, ComponentState
from ..core.policies import IPSPolicy, LockingPolicy, SchedulerView
from .engine import EVENT_COMPLETION, Event
from .entities import Packet, ProcessorState, ThreadPool
from .locks import LayeredLocks

if TYPE_CHECKING:
    from .system import NetworkProcessingSystem

__all__ = ["BaseDispatcher", "LockingDispatcher", "IPSDispatcher"]

#: Interned touch-table key for the shared code+globals component.
_CODE_KEY = ("code",)


class BaseDispatcher(SchedulerView):
    """Shared machinery: SchedulerView implementation + service lifecycle.

    Subclasses implement :meth:`on_arrival` and :meth:`try_dispatch`; the
    owning :class:`~repro.sim.system.NetworkProcessingSystem` provides the
    engine, processors, model, RNG and metrics through ``system``.
    """

    #: paradigm pays per-packet lock costs?
    locking_paradigm: bool = False

    def __init__(self, system: NetworkProcessingSystem) -> None:
        self.system = system
        self.sim = system.sim
        self.model = system.model
        self._procs = system.processors
        # Hot-path aliases (all are fixed for the system's lifetime).
        self._schedule_record = system.sim.schedule_record
        self._metrics_on_completion = system.metrics.on_completion
        self._tracer = system.tracer
        self._invariants = system.invariants
        self._data_touching = system.data_touching
        self._extra_us = system.fixed_overhead_us
        #: stream id -> processor that last served it (migration tracking).
        self._stream_last_proc: Dict[int, int] = {}
        #: stream id -> interned ("stream", id) touch key (allocated at the
        #: stream's first completion; ``_start_service`` only looks a
        #: stream's key up after a completion recorded its processor).
        self._stream_keys: Dict[int, Tuple[str, int]] = {}
        #: monotone count of completed protocol executions, system-wide.
        self.protocol_epoch: int = 0
        #: dispatches whose processor differs from the stream's previous
        #: one (a stream's first service is placement, not migration).
        self.migrations: int = 0
        #: Idle processor ids, kept sorted ascending — the same order the
        #: historical per-query scan produced.
        self._idle: List[int] = [p.proc_id for p in system.processors]
        #: One reusable completion event per processor (a processor serves
        #: one packet at a time, so at most one occurrence is pending).
        self._completion_records: List[Event] = [
            Event(EVENT_COMPLETION, self._complete, p)
            for p in system.processors
        ]

    # ------------------------------------------------------------------
    # SchedulerView
    # ------------------------------------------------------------------
    @property
    def n_processors(self) -> int:
        return len(self._procs)

    def idle_processors(self) -> List[int]:
        # Live (maintained) list; policies treat it as read-only.
        return self._idle

    def last_protocol_end(self, proc_id: int) -> float:
        return self._procs[proc_id].last_protocol_end

    def stream_last_processor(self, stream_id: int) -> Optional[int]:
        return self._stream_last_proc.get(stream_id)

    def random_choice(self, items: List[int]) -> int:
        if not items:
            raise ValueError("empty choice set")
        if len(items) == 1:
            return items[0]
        idx = int(self.system.rngs.scheduling.integers(0, len(items)))
        return items[idx]

    def mru_idle(self) -> int:
        # Direct-attribute override of the SchedulerView default: same
        # single pass, same tie handling, without a method call per
        # candidate (this runs once per dispatch attempt).
        idle = self._idle
        if len(idle) == 1:
            return idle[0]
        procs = self._procs
        best_t = -math.inf
        best: List[int] = []
        for p in idle:
            t = procs[p].last_protocol_end
            if t > best_t:
                best_t = t
                best = [p]
            elif t == best_t:
                best.append(p)
        return best[0] if len(best) == 1 else self.random_choice(best)

    def _complete(self, proc: ProcessorState) -> None:
        raise NotImplementedError

    # Subclass interface ------------------------------------------------
    def on_arrival(self, packet: Packet) -> None:
        raise NotImplementedError

    def try_dispatch(self) -> None:
        raise NotImplementedError

    def queued(self) -> int:
        raise NotImplementedError


class LockingDispatcher(BaseDispatcher):
    """Shared protocol stack, N protocol threads, pluggable policy."""

    locking_paradigm = True

    def __init__(self, system: NetworkProcessingSystem,
                 policy: LockingPolicy) -> None:
        super().__init__(system)
        self.policy = policy
        self.policy.attach(self)
        self.threads = ThreadPool(
            n_threads=self.n_processors,
            per_processor=policy.per_processor_threads,
        )
        #: Interned ("thread", id) touch keys, indexed by thread id.
        self._thread_keys: List[Tuple[str, int]] = [
            ("thread", t) for t in range(self.threads.n_threads)
        ]
        # Per-packet thread-pool aliases (the pool is fixed for the run).
        self._threads_acquire = self.threads.acquire
        self._threads_release = self.threads.release
        self._threads_last_proc = self.threads._last_proc
        inv = system.invariants
        self.lock = LayeredLocks(
            system.config.lock_granularity,
            on_reserve=inv.on_lock_reservation if inv is not None else None,
        )
        self._lock_cs_us = system.costs.lock_cs_us
        # With one coarse lock the layered wrapper reduces to its single
        # stage bit for bit (``cs / 1 == cs`` and ``0.0 + wait == wait``),
        # so reserve on the stage lock directly.
        self._reserve = (
            self.lock.locks[0].reserve
            if self.lock.n_locks == 1 else self.lock.reserve
        )

    def on_arrival(self, packet: Packet) -> None:
        self.policy.on_arrival(packet)
        self.try_dispatch()

    def try_dispatch(self) -> None:
        while True:
            assignment = self.policy.next_dispatch()
            if assignment is None:
                return
            proc_id, packet = assignment
            self._start_service(proc_id, packet)

    def queued(self) -> int:
        return self.policy.queued()

    def _start_service(self, proc_id: int, packet: Packet) -> None:
        now = self.sim._now
        proc = self._procs[proc_id]
        if proc.busy:
            raise RuntimeError(
                f"policy {self.policy.name!r} dispatched to busy processor {proc_id}"
            )
        thread_id = self._threads_acquire(proc_id)

        # Inlined ProcessorState.accrue_idle (the processor is idle: its
        # busy flag was just checked), preserving the guard and the
        # ``dt * rate * V`` expression tree exactly.
        accrued = proc._accrued_until
        dt = now - accrued
        if dt > 0.0:
            proc._ref_clock += (
                dt * proc.references_per_us * proc.nonprotocol_intensity
            )
            proc.nonprotocol_us += dt
            proc._accrued_until = now
        elif dt < -1e-9:
            raise ValueError(f"time went backwards: {now} < {accrued}")

        # Inline refs_since_touch: read the touch table directly
        # (``d if d > 0.0 else 0.0`` is ``max(0.0, d)`` bit for bit, and
        # the delta is never negative).
        clock = proc._ref_clock
        touch = proc._last_touch
        last = touch.get(_CODE_KEY)
        if last is None:
            code_refs = COLD
        else:
            d = clock - last
            code_refs = d if d > 0.0 else 0.0
        stream_id = packet.stream_id
        last_sp = self._stream_last_proc.get(stream_id)
        if last_sp != proc_id:
            if last_sp is not None:
                self.migrations += 1
            stream_refs = COLD
        else:
            # The stream completed here before, so its key is interned.
            last = touch.get(self._stream_keys[stream_id])
            if last is None:
                stream_refs = COLD
            else:
                d = clock - last
                stream_refs = d if d > 0.0 else 0.0
        if self._threads_last_proc[thread_id] == proc_id:
            last = touch.get(self._thread_keys[thread_id])
            if last is None:
                thread_refs = COLD  # never ran here
            else:
                d = clock - last
                thread_refs = d if d > 0.0 else 0.0
        else:
            thread_refs = COLD  # never ran, or stack migrated with the thread
        shared_invalidated = self.protocol_epoch > proc.protocol_epoch_seen

        exec_time = self.model.execution_time_scalar(
            code_refs, stream_refs, thread_refs, shared_invalidated,
            payload_bytes=packet.size_bytes,
            data_touching=self._data_touching,
            locking=True,
            extra_us=self._extra_us,
        )
        lock_wait_us = self._reserve(now, self._lock_cs_us)

        # Inlined begin-service (the clock was accrued to `now` above, so
        # ProcessorState.begin_service's re-accrual would be a no-op).
        packet.service_start_us = now
        packet.processor_id = proc_id
        packet.thread_id = thread_id
        packet.lock_wait_us = lock_wait_us
        packet.exec_time_us = exec_time
        proc.busy = True
        proc.current_packet = packet
        self._idle.remove(proc_id)
        if self._tracer is not None:
            state = ComponentState(
                code_refs=code_refs,
                stream_refs=stream_refs,
                thread_refs=thread_refs,
                shared_invalidated=shared_invalidated,
            )
            self._tracer.record(packet, state, lock_wait_us, exec_time, now)
        if self._invariants is not None:
            self._invariants.on_service_start(
                proc_id, packet, now, lock_wait_us, exec_time
            )
        self._schedule_record(lock_wait_us + exec_time,
                              self._completion_records[proc_id])

    def _complete(self, proc: ProcessorState) -> None:
        now = self.sim._now
        packet = proc.current_packet
        if packet is None or not proc.busy:
            raise RuntimeError(f"processor {proc.proc_id} is not serving a packet")
        epoch = self.protocol_epoch + 1
        self.protocol_epoch = epoch
        stream_id = packet.stream_id
        thread_id = packet.thread_id
        exec_us = packet.exec_time_us
        # Inlined ProcessorState.end_service: protocol execution issues
        # references at the full platform rate; the touched components are
        # stamped with the post-execution clock value.
        clock = proc._ref_clock + exec_us * proc.references_per_us
        proc._ref_clock = clock
        proc._accrued_until = now
        touch = proc._last_touch
        touch[_CODE_KEY] = clock
        skey = self._stream_keys.get(stream_id)
        if skey is None:
            skey = ("stream", stream_id)
            self._stream_keys[stream_id] = skey
        touch[skey] = clock
        touch[self._thread_keys[thread_id]] = clock
        proc.protocol_busy_us += exec_us
        proc.last_protocol_end = now
        proc.protocol_epoch_seen = epoch
        proc.busy = False
        proc.current_packet = None
        insort(self._idle, proc.proc_id)
        packet.completion_us = now
        if self._invariants is not None:
            self._invariants.on_completion(packet, proc.proc_id, now)
        self._threads_release(thread_id)
        self._stream_last_proc[stream_id] = proc.proc_id
        self._metrics_on_completion(packet)
        self.try_dispatch()


class IPSDispatcher(BaseDispatcher):
    """Independent Protocol Stacks: K lock-free serial stack instances.

    Streams are statically bound to stacks (``stream_id mod K``); each
    stack processes its packets strictly in order, one at a time (the
    structural source of IPS's limited intra-stream scalability and burst
    sensitivity).  The policy chooses which idle processor a runnable
    stack uses.
    """

    locking_paradigm = False

    def __init__(self, system: NetworkProcessingSystem,
                 policy: IPSPolicy, n_stacks: int) -> None:
        super().__init__(system)
        if n_stacks < 1:
            raise ValueError("need at least one stack")
        self.policy = policy
        self.n_stacks = n_stacks
        self._queues: List[Deque[Packet]] = [deque() for _ in range(n_stacks)]
        self._stack_busy: List[bool] = [False] * n_stacks
        self._stack_last_proc: Dict[int, Optional[int]] = {
            k: None for k in range(n_stacks)
        }
        #: Interned ("stack_thread", id) touch keys, indexed by stack id.
        self._stack_thread_keys: List[Tuple[str, int]] = [
            ("stack_thread", k) for k in range(n_stacks)
        ]

    def on_arrival(self, packet: Packet) -> None:
        self._queues[packet.stream_id % self.n_stacks].append(packet)
        self.try_dispatch()

    def queued(self) -> int:
        return sum(len(q) for q in self._queues)

    def try_dispatch(self) -> None:
        # Runnable stacks compete in order of their head packet's arrival
        # time (global FCFS across stacks), matching a work-conserving
        # kernel scheduler.  The common case — the earliest runnable stack
        # gets a processor — needs one min-scan, not a sorted list; the
        # ordered fallback scan only runs when that stack was refused,
        # which built-in policies decide without consulting the RNG (so
        # skipping the already-refused stack repeats no draw).
        queues = self._queues
        busy = self._stack_busy
        n_stacks = self.n_stacks
        while True:
            if not self._idle:
                # No processor can start anything; built-in policies
                # consult no RNG before refusing, so returning early
                # repeats their decision exactly.
                return
            best_k = -1
            best_t = math.inf
            for k in range(n_stacks):
                q = queues[k]
                if q and not busy[k]:
                    t = q[0].arrival_us
                    if t < best_t:
                        best_t = t
                        best_k = k
            if best_k < 0:
                return
            proc_id = self.policy.select_processor(
                best_k, self, self._stack_last_proc[best_k]
            )
            if proc_id is not None:
                if self._procs[proc_id].busy:
                    raise RuntimeError(
                        f"IPS policy {self.policy.name!r} chose busy processor"
                    )
                self._start_service(best_k, proc_id)
                continue  # re-evaluate runnable set after each start
            # The earliest runnable stack was refused: fall back to the
            # full arrival-ordered scan over the remaining stacks.
            runnable: List[Tuple[float, int]] = [
                (q[0].arrival_us, k)
                for k, q in enumerate(queues)
                if q and not busy[k] and k != best_k
            ]
            runnable.sort()
            progress = False
            for _, k in runnable:
                proc_id = self.policy.select_processor(
                    k, self, self._stack_last_proc[k]
                )
                if proc_id is None:
                    continue
                if self._procs[proc_id].busy:
                    raise RuntimeError(
                        f"IPS policy {self.policy.name!r} chose busy processor"
                    )
                self._start_service(k, proc_id)
                progress = True
                break  # re-evaluate runnable set after each start
            if not progress:
                return

    def _start_service(self, stack_id: int, proc_id: int) -> None:
        now = self.sim._now
        proc = self._procs[proc_id]
        if proc.busy:
            raise RuntimeError(f"processor {proc_id} is already busy")
        packet = self._queues[stack_id].popleft()
        self._stack_busy[stack_id] = True

        # Stack-private writable data is cold iff the stack migrated; the
        # per-stack thread's stack follows the stack instance.  The
        # processor lifecycle and reference counts are inlined exactly as
        # in the Locking path.
        migrated = self._stack_last_proc[stack_id] != proc_id
        accrued = proc._accrued_until
        dt = now - accrued
        if dt > 0.0:
            proc._ref_clock += (
                dt * proc.references_per_us * proc.nonprotocol_intensity
            )
            proc.nonprotocol_us += dt
            proc._accrued_until = now
        elif dt < -1e-9:
            raise ValueError(f"time went backwards: {now} < {accrued}")
        clock = proc._ref_clock
        touch = proc._last_touch
        last = touch.get(_CODE_KEY)
        if last is None:
            code_refs = COLD
        else:
            d = clock - last
            code_refs = d if d > 0.0 else 0.0
        stream_id = packet.stream_id
        last_sp = self._stream_last_proc.get(stream_id)
        if last_sp != proc_id:
            if last_sp is not None:
                self.migrations += 1
            stream_refs = COLD
        else:
            # The stream completed here before, so its key is interned.
            last = touch.get(self._stream_keys[stream_id])
            if last is None:
                stream_refs = COLD
            else:
                d = clock - last
                stream_refs = d if d > 0.0 else 0.0
        if migrated:
            thread_refs = COLD
        else:
            last = touch.get(self._stack_thread_keys[stack_id])
            if last is None:
                thread_refs = COLD
            else:
                d = clock - last
                thread_refs = d if d > 0.0 else 0.0

        exec_time = self.model.execution_time_scalar(
            code_refs, stream_refs, thread_refs, migrated,
            payload_bytes=packet.size_bytes,
            data_touching=self._data_touching,
            locking=False,
            extra_us=self._extra_us,
        )

        # Inlined begin-service (clock already accrued to `now` above).
        packet.service_start_us = now
        packet.processor_id = proc_id
        packet.thread_id = stack_id  # one serving context per stack
        packet.lock_wait_us = 0.0
        packet.exec_time_us = exec_time
        proc.busy = True
        proc.current_packet = packet
        self._idle.remove(proc_id)
        if self._tracer is not None:
            state = ComponentState(
                code_refs=code_refs,
                stream_refs=stream_refs,
                thread_refs=thread_refs,
                shared_invalidated=migrated,
            )
            self._tracer.record(packet, state, 0.0, exec_time, now)
        if self._invariants is not None:
            self._invariants.on_service_start(
                proc_id, packet, now, 0.0, exec_time
            )
        self._schedule_record(exec_time, self._completion_records[proc_id])

    def _complete(self, proc: ProcessorState) -> None:
        now = self.sim._now
        packet = proc.current_packet
        if packet is None or not proc.busy:
            raise RuntimeError(f"processor {proc.proc_id} is not serving a packet")
        stream_id = packet.stream_id
        stack_id = stream_id % self.n_stacks
        epoch = self.protocol_epoch + 1
        self.protocol_epoch = epoch
        exec_us = packet.exec_time_us
        # Inlined ProcessorState.end_service (see LockingDispatcher).
        clock = proc._ref_clock + exec_us * proc.references_per_us
        proc._ref_clock = clock
        proc._accrued_until = now
        touch = proc._last_touch
        touch[_CODE_KEY] = clock
        skey = self._stream_keys.get(stream_id)
        if skey is None:
            skey = ("stream", stream_id)
            self._stream_keys[stream_id] = skey
        touch[skey] = clock
        touch[self._stack_thread_keys[stack_id]] = clock
        proc.protocol_busy_us += exec_us
        proc.last_protocol_end = now
        proc.protocol_epoch_seen = epoch
        proc.busy = False
        proc.current_packet = None
        insort(self._idle, proc.proc_id)
        packet.completion_us = now
        if self._invariants is not None:
            self._invariants.on_completion(packet, proc.proc_id, now)
        self._stack_busy[stack_id] = False
        self._stack_last_proc[stack_id] = proc.proc_id
        self._stream_last_proc[stream_id] = proc.proc_id
        self._metrics_on_completion(packet)
        self.try_dispatch()
