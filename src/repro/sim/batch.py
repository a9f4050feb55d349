"""Fused batched engine core (``REPRO_ENGINE=auto|batched|scalar``).

The scalar engine executes one Python callback per event: heap pop →
``_arrival_fire``/``_complete`` → dispatcher → policy → model, a dozen
attribute loads and method frames per packet.  This module replaces that
tower with **one flat loop** over two pre-merged event feeds:

1. **Arrivals are pregenerated and merged up front.**  Every stream's
   interarrival gaps (and batch sizes) are drawn in blocks from its
   private RNG substream (``ArrivalProcess.next_batches_array``) and
   turned into absolute times with a cumulative sum —
   ``np.add.accumulate`` is a strict sequential left fold, so the times
   are bit-identical to the scalar ``t += gap`` chain.  All streams'
   batch times are merged into one global arrival order with a stable
   ``argsort``; in the (measure-zero for Poisson, common for
   deterministic workloads) case of exact cross-stream time ties the
   merge falls back to an explicit k-way heap merge that reproduces the
   scalar engine's push-order tie-breaking decision for decision.  A
   batch of ``k`` packets expands to ``k`` same-time feed entries; it
   stays **one event**, exactly as the scalar ``_arrival_fire``: one
   stamp, one ``seq`` step, one count in ``_events_processed``.

2. **Completions live in a tiny local heap** keyed ``(time, stamp)``
   where ``stamp`` mirrors — increment for increment — the scalar
   engine's global ``seq`` counter, so arrival/completion ties resolve in
   exactly the historical order.

The loop body has one arrival path, one completion path and one shared
service-start block (the dispatchers' ``_start_service``: idle-clock
accrual, touch-table reads, serving-context acquire, lock reservation
and the penalty analytic/cache ladder, whose misses call the model's
flush kernel) that both an arrival dispatch and a completion refill
fall into.  Every float expression tree is preserved
operation for operation: moving work is allowed, changing arithmetic is
not.  Representation tricks that keep the loop allocation- and
attribute-access-free without changing results:

- touch tables are per-processor ``list``\\ s initialized to ``-inf``
  instead of dicts: ``clock - (-inf) == +inf == COLD``, bit-identically
  the scalar "never touched" branch;
- the idle-processor set is a bitmask (the scalar sorted list is scanned
  in ascending processor order; so is the mask);
- queued packets are ``(arrival_us, stream_id, packet_id)`` tuples;
  real :class:`~repro.sim.entities.Packet` objects are only materialized
  for work still pending when the horizon folds back;
- a feed entry that is not the last packet of its batch carries the
  stream id minus ``n_streams``: negative list indexing reads the same
  stream's stamp, and the sign says "no ``seq`` step yet";
- completed-service tuples double as the metrics rows: they are
  collected into a ``done`` list and folded into the collector's columnar
  store in one transpose at the end (completions fire in nondecreasing
  time order, so the warm-up cutoff is a binary search, not a per-event
  branch).

At the horizon every piece of mutated state — simulator clock/seq/heap,
processor affinity state, thread pool, lock counters, dispatcher queues,
model counters, metrics — is folded back into the owning objects, so a
run is externally indistinguishable from the scalar engine (the
batched-vs-scalar equality tests assert byte-identical summaries and
metrics).

**Support matrix.**  The fused loop replicates exact semantics only for
configurations it was proven against: Poisson, deterministic,
batch-Poisson and packet-train arrivals, no churn, no trace, no
invariant checking, one coarse lock under Locking, any cache geometry
(a memo miss calls the model's one penalty kernel,
``ExecutionTimeModel.penalty_fill``, whatever the levels'
associativity), and every policy of both paradigms in one loop,
``_run_loop``, driven by the policy's description (``routing``,
``pick``, ``steal`` and ``per_processor_threads``, see
:class:`~repro.core.policies.PolicyDescription`):

- ``mru``/``fcfs``/``stream-mru`` are one ``global`` queue with the
  ``mru``/``random``/``stream`` pick and a shared thread pool;
- ``wired-streams``/``pools``/``flow-steer``/``grouped``/``hybrid``/
  ``work-steal`` route by ``wired``/``last``/``steer``/``group``, steal
  by ``head``/``newest`` and run processor-bound threads;
- ``ips-wired``/``ips-mru``/``ips-random`` are ``stack`` routing (one
  queue per IPS stack, one packet in service per stack) with the
  ``wired``/``stream``/``random`` pick; the stack is its own serving
  context.

That is every registered policy (``_SCALAR_FALLBACK_POLICIES`` is
empty).  Anything outside the matrix falls back to the scalar engine —
silently under ``REPRO_ENGINE=auto`` (the default), loudly under
``REPRO_ENGINE=batched``.
"""

from __future__ import annotations

import gc
import heapq
import math
import os
from bisect import bisect_left
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.exec_model import COLD
from ..core.policies import (
    FCFSPolicy,
    FlowSteerPolicy,
    GroupedAffinityPolicy,
    HybridPolicy,
    IPSMRUPolicy,
    IPSRandomPolicy,
    IPSWiredPolicy,
    MRUPolicy,
    PerProcessorPoolsPolicy,
    StreamMRUPolicy,
    WiredStreamsPolicy,
    WorkStealingPolicy,
)
from ..workloads.arrivals import BatchPoissonSpec, DeterministicSpec, PoissonSpec
from ..workloads.packet_train import PacketTrainSpec
from .entities import Packet

if TYPE_CHECKING:
    from .system import NetworkProcessingSystem

__all__ = ["ENGINE_ENV", "engine_mode", "unsupported_reason", "run_fused"]

#: Environment variable selecting the engine core.
ENGINE_ENV = "REPRO_ENGINE"

#: Interned touch-table key for the shared code+globals component (equal
#: by value to the dispatcher's ``_CODE_KEY``; dict lookups hash by
#: equality, so a second equal tuple is interchangeable).
_CODE_KEY = ("code",)

#: Sentinel for "component never touched here": ``clock - (-inf)`` is
#: ``+inf == COLD``, reproducing the scalar dict-miss branch bit for bit.
_NEVER = -math.inf

#: Refuse to pregenerate more than this many expected arrivals (memory
#: guard; such runs fall back to the streaming scalar engine).
_MAX_EXPECTED_ARRIVALS = 25_000_000.0


def engine_mode() -> str:
    """Normalized ``REPRO_ENGINE`` value (``auto``/``batched``/``scalar``)."""
    raw = os.environ.get(ENGINE_ENV, "auto").strip().lower()
    if raw in ("", "auto"):
        return "auto"
    if raw in ("batched", "scalar"):
        return raw
    raise ValueError(
        f"{ENGINE_ENV}={raw!r} is not recognized "
        "(expected 'auto', 'batched' or 'scalar')"
    )


#: Every fused policy of both paradigms, run by ``_run_loop`` from its
#: ``routing``/``pick``/``steal`` description.
_FUSED_POLICIES = (MRUPolicy, FCFSPolicy, StreamMRUPolicy,
                   WiredStreamsPolicy, PerProcessorPoolsPolicy,
                   FlowSteerPolicy, GroupedAffinityPolicy, HybridPolicy,
                   WorkStealingPolicy, IPSMRUPolicy, IPSWiredPolicy,
                   IPSRandomPolicy)
_ARRIVAL_SPECS = (PoissonSpec, DeterministicSpec, BatchPoissonSpec,
                  PacketTrainSpec)

#: RPR008 parity ledger: config fields the scalar path reads that this
#: engine deliberately never reads, mapped to the reason.  Kept empty on
#: purpose — every scalar-path knob is currently either read here
#: directly or reached through a provenance-carrying binding
#: (``system.model``, ``system.dispatcher.lock``, ...).  Add an entry
#: (``"SystemConfig.field": "why"``) only with a real justification; the
#: linter rejects stale or reasonless entries.
_BATCH_IRRELEVANT_FIELDS: Dict[str, str] = {}

#: RPR009 fallback ledger: registered RNG-consuming policies that have no
#: fused loop here and instead run on the scalar engine (via
#: :func:`unsupported_reason` returning "... is not fused"), mapped to the
#: reason.  Kept empty on purpose — every registered policy is fused.  The
#: linter requires every RNG-consuming registry policy to appear either in
#: the fused tuples above or in this dict with a reason.
_SCALAR_FALLBACK_POLICIES: Dict[str, str] = {}


def unsupported_reason(system: "NetworkProcessingSystem") -> Optional[str]:
    """Why the fused core cannot run this configuration (``None`` = can).

    The checks are conservative: exact policy/spec types only (a subclass
    may override behaviour the fused loop inlines), and observability
    hooks force the scalar engine because the fused loop has no per-event
    callback points.
    """
    cfg = system.config
    if cfg.trace:
        return "execution tracing is enabled"
    if cfg.check_invariants:
        return "runtime invariant checking is enabled"
    if cfg.churn is not None:
        return "session churn requires event-by-event stream management"
    for spec in cfg.traffic.stream_specs:
        if type(spec) not in _ARRIVAL_SPECS:
            return (
                f"arrival spec {type(spec).__name__} has no "
                "order-preserving block pregeneration"
            )
    expected = cfg.traffic.total_rate_pps * cfg.duration_us * 1e-6
    if not (expected < _MAX_EXPECTED_ARRIVALS):
        return "expected arrival count too large to pregenerate"
    policy = system.dispatcher.policy
    if type(policy) not in _FUSED_POLICIES:
        return f"{cfg.paradigm} policy {policy.name!r} is not fused"
    if cfg.paradigm == "locking" and system.dispatcher.lock.n_locks != 1:
        return "layered locks pipeline per-packet reservations"
    return None


# ----------------------------------------------------------------------
# Arrival pregeneration
# ----------------------------------------------------------------------
def _pregenerate_arrivals(
    system: "NetworkProcessingSystem",
) -> Tuple[List[float], List[int], List[int], int]:
    """Draw, truncate and merge every stream's arrivals for the full run.

    Returns ``(times, stream_ids, per_stream_batches, n_batches)``: one
    feed entry per packet, in exactly the order the scalar engine would
    inject them.  A batch's packets are consecutive; all but its last
    carry ``stream_id - n_streams`` (see the module docstring).  Drawing
    past each stream's first beyond-horizon batch is unobservable: the
    per-stream RNG substream is private, so surplus draws are discarded
    values no other consumer can see (the same argument as the scalar
    engine's chunked ``_ArrivalSource`` pregeneration).

    The per-stream work is one draw and one cumulative sum per block;
    truncation, merge and batch expansion are a fixed number of
    whole-run array operations, so short runs pay little fixed cost.
    """
    cfg = system.config
    duration_us = cfg.duration_us
    specs = cfg.traffic.stream_specs
    n_streams = len(specs)
    t_parts: List[np.ndarray] = []
    z_parts: List[Optional[np.ndarray]] = []
    lens = [0] * n_streams
    for stream_id, spec in enumerate(specs):
        process = spec.build(system.rngs.arrivals(stream_id))
        expected = spec.mean_rate_pps * duration_us * 1e-6
        chunk = min(4_000_000, max(64, int(expected * 1.05) + 16))
        base = 0.0
        while True:
            gaps, sizes = process.next_batches_array(chunk)
            # Strict left fold from the previous absolute time: identical
            # to the scalar t_k = t_{k-1} + gap_k chain (base + gap_1 is
            # the chain's first step, and 0.0 + gap == gap for the
            # non-negative gaps; gaps is a fresh array).
            if base:
                gaps[0] += base
            times = np.add.accumulate(gaps)
            t_parts.append(times)
            z_parts.append(sizes)
            lens[stream_id] += chunk
            base = times[-1]
            if base > duration_us:
                break
            if lens[stream_id] > 4.0 * expected + 1e6:
                raise RuntimeError(
                    f"stream {stream_id} pregeneration ran away "
                    f"({lens[stream_id]} draws without passing the horizon)"
                )
    # Keep batches with time <= duration: the scalar horizon test is
    # strictly `when > horizon` ends the stream, and gaps are non-negative
    # so every stream's kept batches are a prefix of its draws.
    t = np.concatenate(t_parts) if t_parts else np.empty(0)
    keep = t <= duration_us
    t = t[keep]
    owner = np.repeat(np.arange(n_streams), lens)[keep]
    sizes_all = None
    if any(z is not None for z in z_parts):
        sizes_all = np.concatenate([
            np.ones(len(tp), dtype=np.int64) if z is None else z
            for tp, z in zip(t_parts, z_parts)
        ])[keep]
    counts = np.bincount(owner, minlength=n_streams).tolist()
    n_batches = len(t)
    if n_batches == 0:
        return [], [], counts, 0
    order = np.argsort(t, kind="stable")
    sorted_t = t[order]
    sorted_s = owner[order]
    # Exact cross-stream time ties need the scalar push-order resolution;
    # same-stream duplicates are already in order under the stable sort.
    eq = sorted_t[1:] == sorted_t[:-1]
    if eq.any() and (sorted_s[1:][eq] != sorted_s[:-1][eq]).any():
        m_times, m_sids = _merge_with_push_order(t, sizes_all, counts)
        return m_times, m_sids, counts, n_batches
    if sizes_all is None:
        return sorted_t.tolist(), sorted_s.tolist(), counts, n_batches
    sizes_all = sizes_all[order]
    sids = np.repeat(sorted_s - n_streams, sizes_all)
    sids[np.cumsum(sizes_all) - 1] += n_streams
    return np.repeat(sorted_t, sizes_all).tolist(), sids.tolist(), counts, n_batches


def _merge_with_push_order(
    t: np.ndarray, sizes: Optional[np.ndarray], counts: List[int],
) -> Tuple[List[float], List[int]]:
    """Exact-tie fallback: k-way merge with scalar push-order stamps.

    ``t``/``sizes`` hold each stream's kept batches, stream after stream.
    The scalar engine breaks equal-time ties by the heap-insertion
    sequence number; an arrival event's relative insertion order among
    arrival events equals the firing order of its predecessor (stream
    sources re-push themselves when they fire, and interleaved completion
    pushes cannot reorder two arrival entries relative to each other).
    Replaying that process with a local counter reproduces the scalar
    order exactly; this path only runs for workloads with exact ties
    (deterministic arrivals), where merge cost is dwarfed by service
    simulation anyway.
    """
    n_streams = len(counts)
    times = t.tolist()
    batch = [1] * len(times) if sizes is None else sizes.tolist()
    nxt = [0] * n_streams
    end = [0] * n_streams
    heap: List[Tuple[float, int, int]] = []
    pos = 0
    for s in range(n_streams):
        nxt[s] = pos
        pos += counts[s]
        end[s] = pos
        if nxt[s] < pos:
            # Initial pushes happen in stream order before the run starts.
            heap.append((times[nxt[s]], s, s))
    heapq.heapify(heap)
    counter = n_streams
    out_t: List[float] = []
    out_s: List[int] = []
    while heap:
        when, _po, s = heapq.heappop(heap)
        i = nxt[s]
        k = batch[i]
        out_t.extend([when] * k)
        out_s.extend([s - n_streams] * (k - 1))
        out_s.append(s)
        i += 1
        nxt[s] = i
        if i < end[s]:
            heapq.heappush(heap, (times[i], counter, s))
            counter += 1
    return out_t, out_s


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_fused(system: "NetworkProcessingSystem") -> None:
    """Run the configured horizon with the fused core.

    Mutates ``system`` exactly as ``_start_arrivals()`` +
    ``sim.run_until(duration_us)`` would: caller (``system.run``)
    proceeds with summarization as usual.  Call only when
    :func:`unsupported_reason` returned ``None``.
    """
    feed = _pregenerate_arrivals(system)
    # The loop allocates short-lived acyclic tuples at a rate that makes
    # generational GC scans pure overhead (~8% of the run); results are
    # unaffected, so suspend collection for the duration.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        _run_loop(system, *feed)
    finally:
        if gc_was_enabled:
            gc.enable()


def _fold_metrics_rows(
    system: "NetworkProcessingSystem",
    done: List[tuple],
) -> None:
    """Fold completed-service tuples into the collector's columns.

    ``done`` holds the completion-heap tuples in firing order —
    ``(completion, stamp, proc, stream, arrival, start, exec, lock_wait,
    ...)`` — with nondecreasing completion times, so the scalar
    per-completion ``completion_us >= warmup_us`` filter reduces to one
    binary search.
    """
    warmup_us = system.config.warmup_us
    lo, hi = 0, len(done)
    while lo < hi:
        mid = (lo + hi) >> 1
        if done[mid][0] < warmup_us:
            lo = mid + 1
        else:
            hi = mid
    rows = done[lo:] if lo else done
    if not rows:
        return
    cols = list(zip(*rows))
    system.metrics.extend_columns(
        cols[3], cols[4], cols[5], cols[0], cols[6], cols[7], cols[2],
    )


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
def _run_loop(
    system: "NetworkProcessingSystem",
    m_times: List[float],
    m_sids: List[int],
    counts: List[int],
    n_batches: int,
) -> None:
    """Fused loop for every policy of both paradigms.

    The policy's ``routing`` attribute selects how an arrival picks its
    queue (``spill_threshold``, ``pick`` and the queue count complete the
    description):

    - ``global`` (``mru``, ``fcfs``, ``stream-mru``): one shared queue
      (``s % 1``), dispatched by the ``pick`` rule among all idle
      processors — ``mru`` is ``mru_idle(mask, 0, 1)``, ``random`` draws
      over the ascending idle processors only when more than one is idle,
      ``stream`` takes the stream's last processor if idle, else ``mru``;
    - ``wired`` (``wired-streams``, ``hybrid``): ``s % N``, never spills;
    - ``last`` (``pools``, ``work-steal``): the stream's last processor
      (``s % N`` before its first completion), spilling to the first
      shortest queue when the preferred one is longer by more than the
      threshold (``None``: never);
    - ``steer`` (``flow-steer``): a persistent steer table with the same
      spill, which re-steers the stream and counts a ``resteer``;
    - ``group`` (``grouped``): ``s % G``, dispatched MRU among the
      group's idle members with the scheduling-RNG tie-break;
    - ``stack`` (IPS): one queue per stack (``s % K``), at most one
      packet in service per stack (``stack_busy``).  An idle stack's
      head packet takes the ``pick`` processor among the idle ones:
      ``wired`` (``k % N``, if idle), ``stream`` keyed by the stack (its
      last processor if idle, else ``mru``) or ``random``.  A refused
      stack waits in a lazily validated heap of runnable stacks
      ``(head arrival, k)``, one heap per wired processor for ``wired``,
      and a completion serves the runnable stack with the earliest head
      that the freed processor may serve; ``random`` redraws that
      processor over every idle one, the freed one included.

    Its ``steal`` attribute adds the second serve rule, for an idle
    processor with an empty own queue (``steal_threshold`` completes it):
    the MRU idle processor takes the head packet of the first longest
    queue over the threshold (``head``, ``hybrid``) or the newest packet
    of a longest one, victim ties by the scheduling RNG (``newest``,
    ``work-steal``).

    ``tid`` is the serving context: a protocol thread under Locking, the
    stack itself under IPS (``tid == k``).  ``thread_touch[p][tid]`` and
    ``tlp[tid]`` are its touch time on ``p`` and its last processor, so
    one thread-stack reload expression serves both paradigms.
    ``per_processor_threads`` selects the Locking thread model:
    processor-bound threads (``tid == p``) or a shared pool, where an
    arrival dispatch takes the free thread that last ran on ``p`` (LIFO
    within that preference).  A completion refill keeps its thread in
    both models: the scalar release-append and acquire-pop cancel out (a
    stolen packet runs on the thief's thread).  Only two things stay per
    paradigm: the shared-data invalidation (Locking: another processor
    ran protocol code since ``p`` last did; IPS: the stack migrated) and
    the lock, which IPS runs with ``cs_us = lock_oh = 0.0``.  That is
    bit-exact: ``t + 0.0 == t``, and ``lock_free_at`` never passes
    ``now``, so every wait is ``0.0``.

    The scalar dispatchers repeat their serve rules until they yield
    nothing, so between events **(I1) a nonempty queue implies its
    owning processor (or every processor of its group; of a ``global``
    queue, every processor) is busy, (I2) while any processor is idle no
    queue is longer than the steal threshold, and (I3) a runnable stack
    has no idle processor it may use (its wired one is busy; for the
    other picks, every one is).**  They make one serve step per event
    exact (docs/PERFORMANCE.md): an arrival dispatches on its idle
    target, or queues and lets the MRU idle thief take one packet from
    its (unique) over-threshold queue; a completion refills its own
    processor, or — only while no other processor is idle — steals as
    the thief itself, or serves the earliest runnable stack.  The draws
    — the ``pick`` and thief MRU tie-breaks at arrival, the ``newest``
    victim tie and the IPS ``random`` redraw at completion — are
    replicated draw for draw from ``_mru_idle`` and ``random_choice``.
    The spill test runs on every ``last``/``steer`` arrival, also while
    every processor is busy.  A re-steer leaves the stream's queued
    packets behind — the Flow Director reordering pathology.

    At the horizon every piece of mutated state is written back into
    the live objects: in-flight entries of ``comp_heap`` become real
    packets on the simulator heap, queued tuples become packets in the
    policy's (IPS: the dispatcher's) queues.
    """
    cfg = system.config
    dispatcher = system.dispatcher
    policy = dispatcher.policy
    n_procs = cfg.platform.n_processors
    n_streams = cfg.traffic.n_streams
    duration_us = cfg.duration_us
    model = system.model

    # --- routing description
    routing = policy.routing
    r_stack = routing == "stack"
    if r_stack:
        dst_queues = dispatcher._queues
        ctx_keys = dispatcher._stack_thread_keys
        ctx_last_proc = dispatcher._stack_last_proc
    else:
        dst_queues = policy._queues
        ctx_keys = dispatcher._thread_keys
        ctx_last_proc = dispatcher.threads._last_proc
    n_queues = len(dst_queues)
    queues: List[Deque[Tuple[float, int, int]]] = [
        deque() for _ in range(n_queues)
    ]
    # ``global`` is ``group`` with one group: the queue is ``s % n_queues``
    # and the pick rule runs over its idle members.
    r_group = routing in ("group", "global")
    r_wired = routing == "wired"
    r_steer = routing == "steer"
    threshold = policy.spill_threshold
    pick_random = policy.pick == "random"
    pick_stream = policy.pick == "stream"
    pick_wired = policy.pick == "wired"
    steer = [-1] * n_streams
    resteers = 0
    steal = policy.steal
    steal_thr = policy.steal_threshold
    s_newest = steal == "newest"
    steals = 0
    per_proc = policy.per_processor_threads
    stack_busy = [False] * n_queues
    runnable: List[List[Tuple[float, int]]] = [
        [] for _ in range(n_procs if pick_wired else 1)
    ]
    n_runq = len(runnable)

    # --- model constants (locals: no attribute loads in the loop; every
    # float expression below replicates the scalar tree exactly — see
    # exec_model._penalty_scalar, exec_model._pen1 and the dispatchers'
    # _start_service).  ``flush`` is the memo-miss kernel
    # (``ExecutionTimeModel.penalty_fill``), ``cache_get`` probes the
    # memo it fills.
    COLD_ = COLD
    flush = model.penalty_fill()
    cache_get = model._penalty_cache.get
    pen_cold = model._pen_cold
    w_shared = model._w_shared
    w_code = model._w_code
    w_stream = model._w_stream
    w_thread = model._w_thread
    t_warm = model._t_warm
    dispatch_c = model._dispatch_us
    extra_c = cfg.fixed_overhead_us
    data_touching = cfg.data_touching
    dt_const = (model.costs.data_touching_us(system._fixed_size)
                if data_touching else 0.0)
    refs_per_us = cfg.platform.references_per_us
    v_intensity = cfg.nonprotocol_intensity
    if r_stack:
        lock_oh = cs_us = 0.0  # IPS takes no lock; a free one is bit-exact
    else:
        lock_oh = model._lock_oh
        cs_us = dispatcher._lock_cs_us

    n_calls = 0
    n_analytic = 0
    n_cache = 0
    n_flush = 0
    migrations = 0

    # --- processor state (parallel lists; -inf touch sentinels, -1 =
    # never)
    ref_clock = [0.0] * n_procs
    accrued = [0.0] * n_procs
    np_us = [0.0] * n_procs
    pbusy_us = [0.0] * n_procs
    last_end = [_NEVER] * n_procs
    epoch_seen = [-1] * n_procs
    code_touch = [_NEVER] * n_procs
    stream_touch = [[_NEVER] * n_streams for _ in range(n_procs)]
    stream_lp = [-1] * n_streams
    n_ctx = len(ctx_keys)
    thread_touch = [[_NEVER] * n_ctx for _ in range(n_procs)]
    epoch = 0
    # Idle set as a bitmask; scanned in ascending processor order exactly
    # like the dispatcher's sorted ``_idle`` list.
    idle_mask = (1 << n_procs) - 1
    first_completion_order: List[int] = []

    # --- serving contexts (free LIFO list of threads; -1 = "never ran
    # anywhere")
    free = list(range(n_ctx - 1, -1, -1))
    tlp = [-1] * n_ctx

    # --- single coarse lock
    lock_free_at = 0.0
    lock_total_wait_us = 0.0
    lock_total_hold_us = 0.0
    lock_acqs = 0
    lock_contended = 0

    def spill_route(s: int) -> int:
        """``last``/``steer`` routing, statement for statement
        ``_PerProcessorQueuePolicy._spill`` and the two ``route``s."""
        nonlocal resteers
        if r_steer:
            tgt = steer[s]
            if tgt < 0:
                tgt = s % n_procs
                steer[s] = tgt
        else:
            tgt = stream_lp[s]
            if tgt < 0:
                tgt = s % n_procs
        if threshold is None:
            return tgt
        short_len = min(map(len, queues))
        if len(queues[tgt]) > short_len + threshold:
            for q in range(n_procs):
                if len(queues[q]) == short_len:
                    tgt = q
                    break
            if r_steer:
                steer[s] = tgt
                resteers += 1
        return tgt

    def mru_idle(mask: int, first: int, step: int) -> int:
        """``_mru_idle`` over the idle processors among ``first``,
        ``first + step``, ... (-1: none idle): tie candidates accumulate
        in ascending order, and only a genuine tie draws — creating the
        scheduling substream then, as in the scalar engine."""
        best_t = _NEVER
        best: List[int] = []
        for q in range(first, n_procs, step):
            if mask >> q & 1:
                tq = last_end[q]
                if tq > best_t:
                    best_t = tq
                    best = [q]
                elif tq == best_t:
                    best.append(q)
        if len(best) > 1:
            return best[int(system.rngs.scheduling.integers(0, len(best)))]
        return best[0] if best else -1

    def pick_idle(mask: int) -> int:
        """``random_choice`` over the idle processors (two or more)."""
        idle = [q for q in range(n_procs) if mask >> q & 1]
        return idle[int(system.rngs.scheduling.integers(0, len(idle)))]

    def pick_victim() -> int:
        """The steal victim among all queues (-1: none over the
        threshold): the first longest queue, or for ``newest`` the
        scheduling RNG's pick among tied longest queues."""
        longest = max(map(len, queues))
        if longest <= steal_thr:
            return -1
        victims = [q for q in range(n_procs) if len(queues[q]) == longest]
        if s_newest and len(victims) > 1:
            return victims[int(system.rngs.scheduling.integers(0, len(victims)))]
        return victims[0]

    comp_heap: List[tuple] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    done: List[tuple] = []
    done_append = done.append

    rem = list(counts)
    # Each stream's first arrival stamp: the scalar engine pushes every
    # stream's first batch, in stream order, before the run starts.
    next_stamp = [-1] * n_streams
    seq = 0
    for s, c in enumerate(counts):
        if c:
            next_stamp[s] = seq
            seq += 1
    ai = 0
    n_packets = len(m_times)
    m_times.append(math.inf)  # sentinel: loop needs no bounds check
    m_sids.append(0)
    backlog = 0
    max_backlog = 0
    INF = math.inf

    while True:
        at = m_times[ai]
        if comp_heap:
            head = comp_heap[0]
            ct = head[0]
            if at < ct:
                take_arrival = True
            elif ct < at:
                if ct > duration_us:
                    break
                take_arrival = False
            else:
                take_arrival = next_stamp[m_sids[ai]] < head[1]
        else:
            if at == INF:
                break
            take_arrival = True

        if take_arrival:
            # ---------------- arrival event ----------------
            if not idle_mask:
                # Every processor is busy: arrivals strictly before the
                # next completion can only queue.  Process that whole
                # presorted slice in one sweep — each firing does exactly
                # what the scalar per-event path does (route and enqueue,
                # the spill test included, an idle stack registering as
                # runnable, then stamp the stream's next batch), and the
                # backlog rises monotonically so one max update at the
                # end is exact.
                j = bisect_left(m_times, ct, ai)
                if j == ai:
                    j = ai + 1  # tie with the completion, won on stamp
                for i in range(ai, j):
                    s = m_sids[i]
                    step = s >= 0
                    if not step:
                        s += n_streams
                    if r_wired or r_group:
                        queues[s % n_queues].append((m_times[i], s, i))
                    elif r_stack:
                        k = s % n_queues
                        qk = queues[k]
                        if not (qk or stack_busy[k]):
                            heappush(runnable[k % n_runq], (m_times[i], k))
                        qk.append((m_times[i], s, i))
                    else:
                        queues[spill_route(s)].append((m_times[i], s, i))
                    if step:
                        rem_s = rem[s] - 1
                        rem[s] = rem_s
                        if rem_s:
                            next_stamp[s] = seq
                            seq += 1
                backlog += j - ai
                if backlog > max_backlog:
                    max_backlog = backlog
                ai = j
                continue
            s = m_sids[ai]
            step = s >= 0
            if not step:
                s += n_streams
            now = a = at
            pid = ai
            ai += 1
            backlog += 1
            if backlog > max_backlog:
                max_backlog = backlog
            # --- routing + dispatch decision
            victim = -1
            if r_group:
                g = s % n_queues
                qg = queues[g]
                lastp = stream_lp[s]
                if qg:
                    p = -1  # nonempty queue ⇒ no idle member (I1)
                elif pick_stream and lastp >= 0 and idle_mask >> lastp & 1:
                    p = lastp
                elif pick_random and idle_mask & (idle_mask - 1):
                    p = pick_idle(idle_mask)
                else:
                    p = mru_idle(idle_mask, g, n_queues)
                if p < 0:
                    qg.append((at, s, pid))
            elif r_stack:
                tid = s % n_queues
                qk = queues[tid]
                if qk or stack_busy[tid]:
                    p = -1  # the stack serves its packets in order
                    qk.append((at, s, pid))
                else:
                    # The packet is an idle stack's head; every other
                    # runnable stack was refused this idle set (I3), so
                    # at most this one dispatches.
                    if pick_wired:
                        p = tid % n_procs
                        if not idle_mask >> p & 1:
                            p = -1
                    elif not idle_mask & (idle_mask - 1):
                        p = idle_mask.bit_length() - 1  # one idle: no draw
                    elif pick_random:
                        p = pick_idle(idle_mask)
                    else:
                        p = tlp[tid]
                        if p < 0 or not idle_mask >> p & 1:
                            p = mru_idle(idle_mask, 0, 1)
                    if p < 0:
                        qk.append((at, s, pid))
                        heappush(runnable[tid % n_runq], (at, tid))
            else:
                tgt = s % n_procs if r_wired else spill_route(s)
                if idle_mask >> tgt & 1:
                    # Idle target ⇒ its queue is empty (I1): the new
                    # packet dispatches without touching the deque.
                    p = tgt
                else:
                    p = -1
                    qt = queues[tgt]
                    qt.append((at, s, pid))
                    if steal and len(qt) > steal_thr:
                        # Only the target can be over the threshold (I2).
                        victim = tgt
                        p = mru_idle(idle_mask, 0, 1)
            if p >= 0:
                cstamp = seq
                seq += 1
            if step:
                rem_s = rem[s] - 1
                rem[s] = rem_s
                if rem_s:
                    next_stamp[s] = seq
                    seq += 1
            if p < 0:
                continue
            if victim >= 0:
                qt = queues[victim]
                a, s, pid = qt.pop() if s_newest else qt.popleft()
                steals += 1
            # --- serving context acquire (IPS: the stack, ``tid``)
            if per_proc:
                tid = p
                free.remove(p)
            elif r_stack:
                stack_busy[tid] = True
            else:
                for tid in reversed(free):
                    if tlp[tid] == p:
                        free.remove(tid)
                        break
                else:
                    tid = free.pop()
        else:
            # ---------------- completion event ----------------
            heappop(comp_heap)
            done_append(head)
            now = head[0]
            p = head[2]
            s = head[3]
            ex = head[6]
            tid = head[8]
            epoch += 1
            clock = ref_clock[p] + ex * refs_per_us
            ref_clock[p] = clock
            accrued[p] = now
            code_touch[p] = clock
            stream_touch[p][s] = clock
            thread_touch[p][tid] = clock
            pbusy_us[p] += ex
            last_end[p] = now
            epoch_seen[p] = epoch
            backlog -= 1
            tlp[tid] = p  # release: _last_proc[tid] = p ...
            if stream_lp[s] < 0:
                first_completion_order.append(s)
            stream_lp[s] = p
            if r_stack:
                # The earliest runnable stack p may serve dispatches.
                # Every other stack in rh was refused each idle processor
                # it may use (I3), so it gets p without a draw; ``random``
                # redraws over every idle processor, p included.
                stack_busy[tid] = False
                qk = queues[tid]
                rh = runnable[p % n_runq]
                if qk:
                    heappush(rh, (qk[0][0], tid))
                while rh:
                    t2, tid = heappop(rh)
                    qk = queues[tid]
                    if qk and qk[0][0] == t2 and not stack_busy[tid]:
                        break
                else:
                    idle_mask |= 1 << p
                    continue
                if pick_random and idle_mask:
                    idle_mask |= 1 << p
                    p = pick_idle(idle_mask)
                stack_busy[tid] = True
                a, s, pid = qk.popleft()
            else:
                # Only p can refill: every other idle processor's queue
                # is empty (I1), and with another processor idle no queue
                # is over the steal threshold (I2), so p is the only
                # possible thief.  The refill needs no draw (p is the
                # only idle processor its queue may use), and the scalar
                # release-append + acquire-pop cancel out, so the free
                # list is untouched.
                qp = queues[p % n_queues]
                if qp:
                    a, s, pid = qp.popleft()
                else:
                    victim = pick_victim() if steal and not idle_mask else -1
                    if victim < 0:
                        idle_mask |= 1 << p
                        free.append(tid)
                        continue
                    qt = queues[victim]
                    a, s, pid = qt.pop() if s_newest else qt.popleft()
                    steals += 1
            cstamp = seq
            seq += 1

        # ---------------- service start (inlined _start_service) -------
        # A Locking completion refill has dt == 0.0 here (accrued[p] ==
        # now): the scalar no-op branch.
        dt = now - accrued[p]
        if dt > 0.0:
            ref_clock[p] += dt * refs_per_us * v_intensity
            np_us[p] += dt
            accrued[p] = now
        elif dt < -1e-9:
            raise ValueError(f"time went backwards: {now} < {accrued[p]}")
        clock = ref_clock[p]
        d = clock - code_touch[p]
        code_refs = d if d > 0.0 else 0.0
        lp_s = stream_lp[s]
        if lp_s != p:
            if lp_s >= 0:
                migrations += 1
            stream_refs = COLD_
        else:
            d = clock - stream_touch[p][s]
            stream_refs = d if d > 0.0 else 0.0
        if tlp[tid] == p:
            d = clock - thread_touch[p][tid]
            thread_refs = d if d > 0.0 else 0.0
        else:
            thread_refs = COLD_
        n_calls += 1
        if code_refs == 0.0:
            n_analytic += 1
            pc = 0.0
        elif code_refs == COLD_:
            n_analytic += 1
            pc = pen_cold
        else:
            pc = cache_get(code_refs)
            if pc is None:
                n_flush += 1
                pc = flush(code_refs)
            else:
                n_cache += 1
        if stream_refs == code_refs:
            ps = pc
        elif stream_refs == 0.0:
            n_analytic += 1
            ps = 0.0
        elif stream_refs == COLD_:
            n_analytic += 1
            ps = pen_cold
        else:
            ps = cache_get(stream_refs)
            if ps is None:
                n_flush += 1
                ps = flush(stream_refs)
            else:
                n_cache += 1
        if thread_refs == code_refs:
            pt = pc
        elif thread_refs == stream_refs:
            pt = ps
        elif thread_refs == 0.0:
            n_analytic += 1
            pt = 0.0
        elif thread_refs == COLD_:
            n_analytic += 1
            pt = pen_cold
        else:
            pt = cache_get(thread_refs)
            if pt is None:
                n_flush += 1
                pt = flush(thread_refs)
            else:
                n_cache += 1
        if (tlp[tid] != p) if r_stack else (epoch > epoch_seen[p]):
            pen_code = w_shared * pen_cold + (1.0 - w_shared) * pc
        else:
            pen_code = pc
        penalty = w_code * pen_code + w_stream * ps + w_thread * pt
        t_exec = t_warm + penalty + dispatch_c + extra_c
        t_exec += lock_oh
        if data_touching:
            t_exec += dt_const
        w = lock_free_at - now
        if w > 0.0:
            lock_wait_us = w
            lock_contended += 1
        else:
            lock_wait_us = 0.0
        lock_free_at = now + lock_wait_us + cs_us
        lock_total_wait_us += lock_wait_us
        lock_total_hold_us += cs_us
        lock_acqs += 1
        # A refill keeps p busy (scalar: idle in _complete, busy again in
        # the immediately following _start_service).
        idle_mask &= ~(1 << p)
        heappush(comp_heap, (now + (lock_wait_us + t_exec), cstamp, p, s,
                             a, now, t_exec, lock_wait_us, tid, pid))

    # ---------------- fold back into the live objects ----------------
    n_comp_fired = len(done)
    sim = system.sim
    sim._seq = seq
    sim._events_processed += n_batches + n_comp_fired
    sim._now = duration_us if duration_us > sim._now else sim._now

    model._n_fast_calls += n_calls
    model._n_analytic_hits += n_analytic
    model._n_cache_hits += n_cache
    model._n_flush_computes += n_flush
    dispatcher.migrations += migrations

    skeys = dispatcher._stream_keys
    for s in first_completion_order:
        skeys[s] = ("stream", s)
        dispatcher._stream_last_proc[s] = stream_lp[s]
    procs = system.processors
    for p, proc in enumerate(procs):
        if epoch_seen[p] < 0 and idle_mask >> p & 1:
            continue  # never served: the processor is still in its initial state
        proc.busy = not (idle_mask >> p & 1)
        proc._ref_clock = ref_clock[p]
        proc._accrued_until = accrued[p]
        proc.nonprotocol_us = np_us[p]
        proc.protocol_busy_us = pbusy_us[p]
        proc.last_protocol_end = last_end[p]
        proc.protocol_epoch_seen = epoch_seen[p]
        touch = proc._last_touch
        v = code_touch[p]
        if v != _NEVER:
            touch[_CODE_KEY] = v
        row = stream_touch[p]
        touch.update({skeys[s]: row[s] for s in first_completion_order
                      if row[s] != _NEVER})
        touch.update({ctx_keys[t]: v for t, v in enumerate(thread_touch[p])
                      if v != _NEVER})
    dispatcher.protocol_epoch = epoch
    dispatcher._idle[:] = [q for q in range(len(procs)) if idle_mask >> q & 1]
    for t, lp in enumerate(tlp):
        ctx_last_proc[t] = lp if lp >= 0 else None
    if r_stack:
        dispatcher._stack_busy[:] = stack_busy
    else:
        dispatcher.threads._free[:] = free
        lock0 = dispatcher.lock.locks[0]
        (lock0._free_at, lock0.total_wait_us, lock0.total_hold_us,
         lock0.acquisitions, lock0.contended) = (
            lock_free_at, lock_total_wait_us, lock_total_hold_us, lock_acqs,
            lock_contended)
    if r_steer:
        for s in range(n_streams):
            if steer[s] >= 0:
                policy._steer[s] = steer[s]
        policy.resteers = resteers
    if steal:
        policy.steals = steals

    size_bytes = system._fixed_size
    pool = None if r_stack else dispatcher.threads
    records = dispatcher._completion_records
    sim_heap = sim._heap
    for entry in comp_heap:
        ctime, stamp, p, s, arr_t, sstart, ex, lw, tid, pid = entry
        pkt = Packet(pid, s, arr_t, size_bytes)
        pkt.service_start_us = sstart
        pkt.exec_time_us = ex
        pkt.lock_wait_us = lw
        pkt.processor_id = p
        pkt.thread_id = tid
        procs[p].current_packet = pkt
        if pool is not None:
            pool._busy[tid] = p
        heapq.heappush(sim_heap, (ctime, stamp, records[p]))
    for src, dst in zip(queues, dst_queues):
        for a, s, pid in src:
            dst.append(Packet(pid, s, a, size_bytes))

    system._packet_counter = n_packets
    _fold_metrics_rows(system, done)
    system.metrics.fold_batch_counts(n_packets, n_comp_fired,
                                     backlog, max_backlog)
