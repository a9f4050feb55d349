"""Affinity-based scheduling policies (the paper's first contribution).

The paper proposes and evaluates scheduling policies for the resources
involved in parallel network processing.  Two families:

**Under Locking** (shared stack, N protocol threads, any packet may run on
any processor):

- :class:`FCFSPolicy` — the unaffinitized baseline: head-of-queue packet to
  a *random* idle processor.  (Random rather than lowest-index, because a
  deterministic choice would create accidental affinity at low load.)
- :class:`MRUPolicy` — head-of-queue packet to the idle processor that
  Most-Recently-Used executed protocol code, keeping the shared protocol
  footprint (code + globals) as warm as possible.
- :class:`StreamMRUPolicy` — like MRU, but first prefers the idle
  processor where the packet's *stream* last executed (stream-state
  affinity), falling back to MRU.
- :class:`PerProcessorPoolsPolicy` — per-processor packet queues served by
  processor-bound threads (preserving thread-stack affinity; note 7 of the
  paper: the *cache affinity* benefits of per-processor thread pools had
  not previously been evaluated).  Packets join their stream's last
  processor's pool, spilling to the shortest pool when imbalance exceeds
  ``balance_threshold``.
- :class:`WiredStreamsPolicy` — each stream statically wired to one
  processor (``stream_id mod N``); maximal stream-state affinity, no load
  balancing.

**Under IPS** (K independent stacks, no locks, each stack strictly serial):

- :class:`IPSWiredPolicy` — stack ``k`` pinned to processor ``k mod N``
  (the paper's recommendation except at low arrival rate).
- :class:`IPSMRUPolicy` — a runnable stack goes to the processor where it
  last ran if idle, else the MRU idle processor (the paper's
  recommendation at low arrival rate).
- :class:`IPSRandomPolicy` — the unaffinitized IPS reference: a runnable
  stack goes to a uniformly random idle processor (E11's baseline, not a
  policy the paper proposes).

**Hybrid** (:class:`HybridPolicy`) — reconstruction of the hybrid approach
proposed in the companion TR [17]: wired-stream queues with overflow
stealing, giving wired-level affinity in steady state and Locking-level
burst robustness.

**Modern policy zoo** — the schedulers that replaced the paper's designs
in later NIC/OS stacks, expressed against the same view protocol:

- :class:`FlowSteerPolicy` — Flow-Director-style hash steering: streams
  hash to per-processor queues; sustained imbalance re-steers a stream to
  the shortest queue, leaving its already-queued packets behind — the
  packet-reordering pathology analysed by Wu et al. ("Why Does Flow
  Director Cause Packet Reordering?").
- :class:`WorkStealingPolicy` — per-processor queues with idle processors
  stealing the newest packet from the longest backlogged queue (victim
  ties broken via the seeded scheduling RNG).
- :class:`GroupedAffinityPolicy` — cache-aware grouped scheduling:
  streams hash to processor *groups* and are co-scheduled (MRU within the
  group) so streams sharing a protocol-stack footprint stay on the same
  few caches.

Policies interact with the simulator through a narrow *view* protocol
(documented on :class:`SchedulerView`); they own their queues and are
stateful per simulation run.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

__all__ = [
    "SchedulerView",
    "LockingPolicy",
    "FCFSPolicy",
    "MRUPolicy",
    "StreamMRUPolicy",
    "PerProcessorPoolsPolicy",
    "WiredStreamsPolicy",
    "HybridPolicy",
    "FlowSteerPolicy",
    "WorkStealingPolicy",
    "GroupedAffinityPolicy",
    "IPSPolicy",
    "IPSWiredPolicy",
    "IPSMRUPolicy",
    "IPSRandomPolicy",
    "LOCKING_POLICIES",
    "IPS_POLICIES",
    "make_locking_policy",
    "make_ips_policy",
]


class SchedulerView(ABC):
    """What a policy may observe about the system (duck-typed protocol).

    The Locking/IPS dispatchers implement this interface; it deliberately
    exposes only information a real scheduler would have cheaply at hand
    (idle set, last-use timestamps, static stream/stack bindings) — not the
    model's internal cache state.
    """

    @property
    @abstractmethod
    def n_processors(self) -> int: ...

    @abstractmethod
    def idle_processors(self) -> List[int]:
        """Processor ids currently not executing protocol code."""

    @abstractmethod
    def last_protocol_end(self, proc_id: int) -> float:
        """Simulation time protocol code last finished on a processor
        (``-inf`` if never)."""

    @abstractmethod
    def stream_last_processor(self, stream_id: int) -> Optional[int]:
        """Processor that last served the stream, or ``None``."""

    @abstractmethod
    def random_choice(self, items: List[int]) -> int:
        """Uniform choice using the simulation's scheduling RNG stream.

        Draw-order contract (determinism): a singleton ``items`` list is
        returned *without* consuming a draw — only genuine ties advance
        the shared scheduling substream.  Because every policy draws from
        that one substream, a policy making several potentially-random
        decisions inside a single scheduling step must make them in a
        fixed, state-independent order so that identically-seeded runs
        replay the identical draw sequence (the property the batched
        engine and the parallel sweep runner both rely on).  Example:
        :class:`WorkStealingPolicy` always resolves its *victim*
        tie-break before its *thief* tie-break (:meth:`mru_idle`), never
        the reverse.
        """

    def mru_idle(self) -> int:
        """The idle processor with the most recent protocol activity.

        Ties (e.g. several never-used processors at ``-inf``) break
        randomly so that the policy does not silently favour low processor
        ids; tie candidates accumulate in idle order and the RNG is
        consulted only for genuine ties — exactly the historical
        max-then-filter behaviour.  The dispatchers override this with a
        direct-attribute-access version (this runs once per dispatch
        attempt); the default works for any view.
        """
        return _mru_idle(self, self.idle_processors())


def _mru_idle(view: SchedulerView, idle: List[int]) -> int:
    """Default single-pass :meth:`SchedulerView.mru_idle` implementation."""
    last_end = view.last_protocol_end
    best_t = -math.inf
    best: List[int] = []
    for p in idle:
        t = last_end(p)
        if t > best_t:
            best_t = t
            best = [p]
        elif t == best_t:
            best.append(p)
    return best[0] if len(best) == 1 else view.random_choice(best)


# ----------------------------------------------------------------------
# The fused engine's description of a policy
# ----------------------------------------------------------------------
class PolicyDescription:
    """Class attributes that describe a policy of either paradigm to the
    fused engine (:mod:`repro.sim.batch`), which runs every policy in one
    loop.  :attr:`routing` names the queue an arriving packet joins:

    - ``"global"``: one shared FIFO;
    - ``"wired"``: queue ``stream_id mod N``;
    - ``"last"``: the stream's last processor, spilling by
      :attr:`spill_threshold`;
    - ``"steer"``: a persistent steer table with the same spill;
    - ``"group"``: queue ``stream_id mod G`` of ``G`` processor groups;
    - ``"stack"``: the IPS stack ``stream_id mod K``, which serves one
      packet at a time.

    :attr:`pick` names how the packet at the head of a ``global``,
    ``group`` or idle ``stack`` queue picks among its idle processors:
    ``"mru"`` (the MRU idle processor, ties by the scheduling RNG),
    ``"random"`` (a uniform draw, made only when more than one is idle),
    ``"stream"`` (the stream's — for a stack, the stack's — last
    processor if idle, else ``"mru"``) or ``"wired"`` (a stack's
    processor ``k mod N``, if idle).  :attr:`steal` adds a second serve
    rule (see :class:`_PerProcessorQueuePolicy`).

    ``per_processor_threads`` tells the Locking dispatcher whether
    protocol threads are bound to processors (preserving thread-stack
    affinity) or drawn from a shared migratory pool; an IPS stack is its
    own thread.
    """

    per_processor_threads: bool = False
    routing: str = ""
    pick: str = "mru"
    #: Imbalance beyond which the ``last``/``steer`` rules spill to the
    #: shortest queue (``None``: never spill).
    spill_threshold: Optional[int] = None
    #: Steal rule (``""``: none, ``"newest"`` or ``"head"``).
    steal: str = ""
    #: Queue length a steal victim must exceed.
    steal_threshold: int = 0


# ----------------------------------------------------------------------
# Locking-paradigm policies
# ----------------------------------------------------------------------
class LockingPolicy(PolicyDescription, ABC):
    """Queueing + processor-selection policy for the Locking paradigm.

    Lifecycle: the dispatcher calls :meth:`attach` once, then
    :meth:`on_arrival` for every packet and :meth:`next_dispatch`
    repeatedly (after arrivals and completions) until it returns ``None``.
    """

    name: str = "locking-policy"

    def __init__(self) -> None:
        self.view: Optional[SchedulerView] = None

    def attach(self, view: SchedulerView) -> None:
        self.view = view

    @abstractmethod
    def on_arrival(self, packet) -> None:
        """Enqueue a newly arrived packet."""

    @abstractmethod
    def next_dispatch(self) -> Optional[Tuple[int, object]]:
        """Pick ``(processor_id, packet)`` to start now, or ``None``.

        Must remove the returned packet from the policy's queues.  Called
        repeatedly until ``None``.
        """

    @abstractmethod
    def queued(self) -> int:
        """Number of packets currently waiting in this policy's queues."""


class _GlobalQueuePolicy(LockingPolicy):
    """Shared base for policies with a single global FIFO, served by a
    shared thread pool: a subclass is its :attr:`~LockingPolicy.pick`
    rule."""

    routing = "global"

    def __init__(self) -> None:
        super().__init__()
        self._queue: Deque = deque()
        #: The shared queue as the one-entry queue list of the fused
        #: engine's description.
        self._queues: List[Deque] = [self._queue]

    def on_arrival(self, packet) -> None:
        self._queue.append(packet)

    def queued(self) -> int:
        return len(self._queue)

    def _select_processor(self, packet, idle: List[int]) -> int:
        raise NotImplementedError

    def next_dispatch(self) -> Optional[Tuple[int, object]]:
        if not self._queue:
            return None
        idle = self.view.idle_processors()
        if not idle:
            return None
        packet = self._queue.popleft()
        return self._select_processor(packet, idle), packet


class FCFSPolicy(_GlobalQueuePolicy):
    """Unaffinitized baseline: global FIFO, random idle processor."""

    name = "fcfs"
    pick = "random"

    def _select_processor(self, packet, idle: List[int]) -> int:
        return self.view.random_choice(idle)


class MRUPolicy(_GlobalQueuePolicy):
    """Global FIFO; serve on the most-recently-used idle processor."""

    name = "mru"

    def _select_processor(self, packet, idle: List[int]) -> int:
        return self.view.mru_idle()


class StreamMRUPolicy(_GlobalQueuePolicy):
    """Stream-affinity first, MRU fallback.

    Prefers the idle processor where the packet's stream last executed
    (keeping per-stream connection state warm); otherwise behaves like
    :class:`MRUPolicy`.
    """

    name = "stream-mru"
    pick = "stream"

    def _select_processor(self, packet, idle: List[int]) -> int:
        last = self.view.stream_last_processor(packet.stream_id)
        if last is not None and last in idle:
            return last
        return self.view.mru_idle()


class _PerProcessorQueuePolicy(LockingPolicy):
    """Shared base: per-processor (or per-group) FIFO queues served by
    processor-bound threads.

    A subclass is its routing rule: :meth:`route` names the queue an
    arriving packet joins, and :attr:`~LockingPolicy.routing` names that
    rule for the fused engine.  The default serve rule is "own
    queue": an idle processor serves the queue it owns, scanned in idle
    order.  :attr:`~LockingPolicy.steal` adds a second serve rule for when
    no idle processor has work of its own: the MRU idle processor (the
    thief) takes a packet from the longest queue holding more than
    :attr:`~LockingPolicy.steal_threshold` packets —

    - ``"newest"``: the newest packet (LIFO end) of a longest queue,
      victim ties broken by the scheduling RNG;
    - ``"head"``: the head packet of the first longest queue, no draw.

    The victim draw always precedes the thief's :meth:`~SchedulerView.mru_idle`
    draw (the :meth:`SchedulerView.random_choice` contract).  ``steals``
    counts the stolen dispatches.
    """

    per_processor_threads = True

    def __init__(self) -> None:
        super().__init__()
        self._queues: List[Deque] = []
        self.steals = 0

    def attach(self, view: SchedulerView) -> None:
        super().attach(view)
        self._queues = [deque() for _ in range(self._n_queues(view))]
        self.steals = 0

    def _n_queues(self, view: SchedulerView) -> int:
        return view.n_processors

    @abstractmethod
    def route(self, stream_id: int) -> int:
        """Index of the queue an arriving packet of ``stream_id`` joins."""

    def _spill(self, preferred: int) -> int:
        """``preferred``, or the first shortest queue when ``preferred``
        exceeds it by more than :attr:`spill_threshold` packets."""
        threshold = self.spill_threshold
        if threshold is None:
            return preferred
        queues = self._queues
        shortest = min(range(len(queues)), key=lambda p: (len(queues[p]), p))
        if len(queues[preferred]) > len(queues[shortest]) + threshold:
            return shortest
        return preferred

    def on_arrival(self, packet) -> None:
        self._queues[self.route(packet.stream_id)].append(packet)

    def next_dispatch(self) -> Optional[Tuple[int, object]]:
        queues = self._queues
        idle = self.view.idle_processors()
        for proc in idle:
            if queues[proc]:
                return proc, queues[proc].popleft()
        if not (self.steal and idle):
            return None
        longest = max(map(len, queues))
        if longest <= self.steal_threshold:
            return None
        victims = [p for p, q in enumerate(queues) if len(q) == longest]
        newest = self.steal == "newest"
        if newest and len(victims) > 1:
            victim = self.view.random_choice(victims)
        else:
            victim = victims[0]
        thief = self.view.mru_idle()
        self.steals += 1
        queue = queues[victim]
        return thief, queue.pop() if newest else queue.popleft()

    def queued(self) -> int:
        return sum(len(q) for q in self._queues)


class PerProcessorPoolsPolicy(_PerProcessorQueuePolicy):
    """Per-processor packet pools served by processor-bound threads.

    Packets join the pool of their stream's last processor (affinity),
    spilling to the shortest pool when the preferred pool exceeds the
    shortest by more than ``balance_threshold`` packets.  Streams that have
    never been served start at their wired default (``stream_id mod N``).

    Threads are bound to processors, so the thread-stack footprint
    component is always warm — the specific benefit of per-processor
    thread pools the paper highlights (its footnote 7).
    """

    name = "pools"
    routing = "last"

    def __init__(self, balance_threshold: int = 2) -> None:
        super().__init__()
        if balance_threshold < 0:
            raise ValueError("balance_threshold must be >= 0")
        self.spill_threshold = balance_threshold

    def route(self, stream_id: int) -> int:
        preferred = self.view.stream_last_processor(stream_id)
        if preferred is None:
            preferred = stream_id % self.view.n_processors
        return self._spill(preferred)

    def next_dispatch(self) -> Optional[Tuple[int, object]]:
        # Serve the longest eligible pool first to drain imbalance.  (At
        # most one idle pool is ever nonempty, so this is the own-queue
        # rule in effect; the scalar reference keeps the general form.)
        queues = self._queues
        candidates = [p for p in self.view.idle_processors() if queues[p]]
        if not candidates:
            return None
        proc = max(candidates, key=lambda p: (len(queues[p]), -p))
        return proc, queues[proc].popleft()


class WiredStreamsPolicy(_PerProcessorQueuePolicy):
    """Streams statically wired to processors (``stream_id mod N``).

    Maximal stream-state and thread-stack affinity; no load balancing — a
    packet waits for its wired processor even when others sit idle.  The
    paper finds this wins under Locking at high arrival rate (cross-
    processor displacement dominates) but loses at low rate (MRU's
    concentration keeps the whole footprint warm on one processor).
    """

    name = "wired-streams"
    routing = "wired"

    def wired_processor(self, stream_id: int) -> int:
        return stream_id % self.view.n_processors

    route = wired_processor


class HybridPolicy(WiredStreamsPolicy):
    """Wired streams with overflow stealing (reconstruction of TR [17]).

    Behaves as :class:`WiredStreamsPolicy` while wired queues stay short;
    when a wired queue backs up beyond ``overflow_threshold`` packets, an
    idle processor may steal its head packet (paying the migration cost
    the model charges naturally).  Retains wired-level affinity in steady
    state while recruiting extra processors for bursts — the TR's "high
    throughput, high intra-stream scalability, and robustness in the
    presence of bursty arrivals".

    Described to the fused engine as ``wired`` routing with the ``head``
    steal rule: the first longest queue over the threshold loses its head
    packet to the MRU idle processor.
    """

    name = "hybrid"
    steal = "head"

    def __init__(self, overflow_threshold: int = 2) -> None:
        super().__init__()
        if overflow_threshold < 1:
            raise ValueError("overflow_threshold must be >= 1")
        self.overflow_threshold = self.steal_threshold = overflow_threshold


# ----------------------------------------------------------------------
# Modern policy zoo (post-paper designs, same interfaces)
# ----------------------------------------------------------------------
class FlowSteerPolicy(_PerProcessorQueuePolicy):
    """Flow-Director-style hash steering with rebalance-triggered migration.

    Each stream is steered to a per-processor queue, initially by hash
    (``stream_id mod N``).  When a packet arrives for a queue that exceeds
    the shortest queue by more than ``rebalance_threshold`` packets, the
    stream is *re-steered* to the shortest queue — but packets already
    queued at the old processor stay put.  The re-steered stream's new
    packets can therefore complete before its old ones: the out-of-order
    pathology Wu et al. measured in Intel's Flow Director.  ``resteers``
    counts the migration events.

    Fully deterministic (consults no RNG), so the fused batched engine
    runs it natively.
    """

    name = "flow-steer"
    routing = "steer"

    def __init__(self, rebalance_threshold: int = 1) -> None:
        super().__init__()
        if rebalance_threshold < 0:
            raise ValueError("rebalance_threshold must be >= 0")
        self.spill_threshold = rebalance_threshold
        self._steer: Dict[int, int] = {}
        self.resteers = 0

    def attach(self, view: SchedulerView) -> None:
        super().attach(view)
        self._steer = {}
        self.resteers = 0

    def target_processor(self, stream_id: int) -> int:
        """Current steering target (installing the hash default lazily)."""
        target = self._steer.get(stream_id)
        if target is None:
            target = stream_id % self.view.n_processors
            self._steer[stream_id] = target
        return target

    def route(self, stream_id: int) -> int:
        target = self.target_processor(stream_id)
        spilled = self._spill(target)
        if spilled != target:
            self._steer[stream_id] = spilled
            self.resteers += 1
        return spilled


class WorkStealingPolicy(_PerProcessorQueuePolicy):
    """Per-processor queues with idle processors stealing from the longest.

    Packets join the queue of their stream's last processor (hash default
    before first service).  An idle processor first serves its own queue;
    with nothing local, it steals the *newest* packet from the longest
    queue holding more than ``steal_threshold`` packets (LIFO stealing —
    the cache-friendly end analysed by Gu et al.'s work-stealing
    cache-complexity bounds; the queue owner keeps draining the old,
    in-order end).  Victim ties break via the seeded scheduling RNG, and
    — per the :meth:`SchedulerView.random_choice` draw-order contract —
    the victim draw always precedes the thief's :meth:`~SchedulerView.mru_idle`
    draw.  ``steals`` counts the stolen dispatches.

    Described to the fused engine as ``last`` routing that never spills,
    with the ``newest`` steal rule.
    """

    name = "work-steal"
    routing = "last"
    steal = "newest"

    def __init__(self, steal_threshold: int = 1) -> None:
        super().__init__()
        if steal_threshold < 1:
            raise ValueError("steal_threshold must be >= 1")
        self.steal_threshold = steal_threshold

    def home_processor(self, stream_id: int) -> int:
        last = self.view.stream_last_processor(stream_id)
        if last is not None:
            return last
        return stream_id % self.view.n_processors

    route = home_processor


class GroupedAffinityPolicy(_PerProcessorQueuePolicy):
    """Cache-aware grouped scheduling: co-schedule streams per group.

    Processors are partitioned into ``n_groups`` groups (processor ``p``
    belongs to group ``p mod G``) and streams hash to groups
    (``stream_id mod G``), so the streams sharing a group — and hence a
    shared protocol-stack working set — are co-scheduled on the same few
    caches.  Within a group, dispatch is MRU-idle (ties via the scheduling
    RNG), concentrating the group footprint like :class:`MRUPolicy` does
    globally.  ``n_groups`` is clamped to the processor count;
    ``n_groups == n_processors`` degenerates to
    :class:`WiredStreamsPolicy` decision for decision.

    Fused natively by the batched engine.
    """

    name = "grouped"
    routing = "group"

    def __init__(self, n_groups: int = 2) -> None:
        super().__init__()
        if n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        self.n_groups = n_groups
        self._n_eff = n_groups

    def _n_queues(self, view: SchedulerView) -> int:
        self._n_eff = min(self.n_groups, view.n_processors)
        return self._n_eff

    @property
    def effective_groups(self) -> int:
        return self._n_eff

    def group_of(self, stream_id: int) -> int:
        return stream_id % self._n_eff

    route = group_of

    def next_dispatch(self) -> Optional[Tuple[int, object]]:
        idle = self.view.idle_processors()
        if not idle:
            return None
        n_eff = self._n_eff
        for g, q in enumerate(self._queues):
            if not q:
                continue
            members = [p for p in idle if p % n_eff == g]
            if not members:
                continue
            return _mru_idle(self.view, members), q.popleft()
        return None


# ----------------------------------------------------------------------
# IPS-paradigm policies
# ----------------------------------------------------------------------
class IPSPolicy(PolicyDescription, ABC):
    """Processor selection for runnable IPS stacks.

    The IPS dispatcher keeps a per-stack serial queue; whenever a stack has
    work and is not already executing, it asks the policy on which idle
    processor the stack may run (``None`` = stay queued).  A subclass's
    :attr:`~PolicyDescription.pick` names its rule to the fused engine.
    """

    name: str = "ips-policy"
    routing = "stack"

    @abstractmethod
    def select_processor(
        self, stack_id: int, view: SchedulerView, stack_last_proc: Optional[int]
    ) -> Optional[int]:
        """Idle processor for the stack's next packet, or ``None``."""


class IPSWiredPolicy(IPSPolicy):
    """Stack ``k`` pinned to processor ``k mod N``."""

    name = "ips-wired"
    pick = "wired"

    def select_processor(self, stack_id, view, stack_last_proc):
        proc = stack_id % view.n_processors
        return proc if proc in view.idle_processors() else None


class IPSMRUPolicy(IPSPolicy):
    """Stack runs where it last ran if idle, else on the MRU idle
    processor."""

    name = "ips-mru"
    pick = "stream"

    def select_processor(self, stack_id, view, stack_last_proc):
        idle = view.idle_processors()
        if not idle:
            return None
        if stack_last_proc is not None and stack_last_proc in idle:
            return stack_last_proc
        return view.mru_idle()


class IPSRandomPolicy(IPSPolicy):
    """Unaffinitized IPS reference: a runnable stack goes to a uniformly
    random idle processor."""

    name = "ips-random"
    pick = "random"

    def select_processor(self, stack_id, view, stack_last_proc):
        idle = view.idle_processors()
        if not idle:
            return None
        return view.random_choice(idle)


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
LOCKING_POLICIES: Dict[str, Callable[[], LockingPolicy]] = {
    "fcfs": FCFSPolicy,
    "mru": MRUPolicy,
    "stream-mru": StreamMRUPolicy,
    "pools": PerProcessorPoolsPolicy,
    "wired-streams": WiredStreamsPolicy,
    "hybrid": HybridPolicy,
    "flow-steer": FlowSteerPolicy,
    "work-steal": WorkStealingPolicy,
    "grouped": GroupedAffinityPolicy,
}

IPS_POLICIES: Dict[str, Callable[[], IPSPolicy]] = {
    "ips-wired": IPSWiredPolicy,
    "ips-mru": IPSMRUPolicy,
    "ips-random": IPSRandomPolicy,
}


def make_locking_policy(name: str, **kwargs) -> LockingPolicy:
    """Instantiate a Locking policy by registry name."""
    try:
        factory = LOCKING_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown Locking policy {name!r}; known: {sorted(LOCKING_POLICIES)}"
        ) from None
    return factory(**kwargs)


def make_ips_policy(name: str, **kwargs) -> IPSPolicy:
    """Instantiate an IPS policy by registry name."""
    try:
        factory = IPS_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown IPS policy {name!r}; known: {sorted(IPS_POLICIES)}"
        ) from None
    return factory(**kwargs)
