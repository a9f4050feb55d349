"""Fused batched engine core (``REPRO_ENGINE=auto|batched|scalar``).

The scalar engine executes one Python callback per event: heap pop →
``_arrival_fire``/``_complete`` → dispatcher → policy → model, a dozen
attribute loads and method frames per packet.  This module replaces that
tower with **one flat loop** over two pre-merged event feeds:

1. **Arrivals are pregenerated and merged up front.**  Every stream's
   interarrival gaps are drawn in blocks from its private RNG substream
   (``ArrivalProcess.next_batches_array``) and turned into absolute times
   with a cumulative sum — ``np.add.accumulate`` is a strict sequential
   left fold, so the times are bit-identical to the scalar
   ``t += gap`` chain.  The per-stream time arrays are merged into one
   global arrival order with a stable ``argsort``; in the (measure-zero
   for Poisson, common for deterministic workloads) case of exact
   cross-stream time ties the merge falls back to an explicit k-way heap
   merge that reproduces the scalar engine's push-order tie-breaking
   decision for decision.

2. **Completions live in a tiny local heap** keyed ``(time, stamp)``
   where ``stamp`` mirrors — increment for increment — the scalar
   engine's global ``seq`` counter, so arrival/completion ties resolve in
   exactly the historical order.

The loop body inlines the dispatcher's service-start and completion
sequences (idle-clock accrual, touch-table reads/stamps, thread-pool
acquire/release, lock reservation, the penalty analytic/cache/flush
ladder) **preserving every float expression tree operation for
operation**: moving work is allowed, changing arithmetic is not.
Representation tricks that keep the loop allocation- and
attribute-access-free without changing results:

- touch tables are per-processor ``list``\\ s initialized to ``-inf``
  instead of dicts: ``clock - (-inf) == +inf == COLD``, bit-identically
  the scalar "never touched" branch;
- the idle-processor set is a bitmask (the scalar sorted list is scanned
  in ascending processor order; so is the mask);
- queued packets are ``(arrival_us, stream_id, packet_id)`` tuples;
  real :class:`~repro.sim.entities.Packet` objects are only materialized
  for work still pending when the horizon folds back;
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
configurations it was proven against: Poisson/deterministic arrivals,
fixed packet sizes, no churn, no trace, no invariant checking, and the
policies ``mru``/``fcfs``/``stream-mru`` (Locking, one coarse lock,
shared thread pool), ``flow-steer``/``grouped`` (Locking, one coarse
lock, per-processor threads and queues — see ``_run_locking_pools``) and
``ips-mru``/``ips-wired`` (IPS).  Anything else — notably the
``work-steal`` policy, whose victim/thief draw interleaving has no
proven fused replication — falls back to the scalar engine: silently
under ``REPRO_ENGINE=auto`` (the default), loudly under
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
    IPSMRUPolicy,
    IPSWiredPolicy,
    MRUPolicy,
    StreamMRUPolicy,
)
from ..workloads.arrivals import DeterministicSpec, PoissonSpec
from ..workloads.traffic import FixedSize
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


_LOCKING_POLICIES = (MRUPolicy, FCFSPolicy, StreamMRUPolicy)
#: Locking policies with per-processor threads and per-processor (or
#: per-group) queues, fused by ``_run_locking_pools``.
_LOCKING_POOL_POLICIES = (FlowSteerPolicy, GroupedAffinityPolicy)
_IPS_POLICIES = (IPSMRUPolicy, IPSWiredPolicy)
_ARRIVAL_SPECS = (PoissonSpec, DeterministicSpec)

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
#: :func:`unsupported_reason` returning "... is not fused").  The linter
#: requires every RNG-consuming registry policy to appear either in the
#: fused tuples above or in this dict with a reason.
_SCALAR_FALLBACK_POLICIES: Dict[str, str] = {
    "HybridPolicy": (
        "hybrid wired/MRU switching re-evaluates residency per packet; "
        "kept on the scalar engine until a fused variant is profiled"
    ),
    "WorkStealingPolicy": (
        "stealing inspects victim queues at completion time; the "
        "documented random_choice draw-order contract pins it to the "
        "scalar engine"
    ),
    "IPSRandomPolicy": (
        "E11's unaffinitized reference draws a random idle processor per "
        "dispatch; the fused IPS loop has no random_choice draw point, so "
        "it stays on the scalar engine"
    ),
}


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
    if type(cfg.traffic.size_model) is not FixedSize:
        return "non-fixed packet sizes draw the size RNG per packet"
    for spec in cfg.traffic.stream_specs:
        if type(spec) not in _ARRIVAL_SPECS:
            return (
                f"arrival spec {type(spec).__name__} has no "
                "order-preserving block pregeneration"
            )
    if system.model._penalty_cache is None:
        return "execution-time model built without memoization"
    expected = cfg.traffic.total_rate_pps * cfg.duration_us * 1e-6
    if not (expected < _MAX_EXPECTED_ARRIVALS):
        return "expected arrival count too large to pregenerate"
    policy = system.dispatcher.policy
    if cfg.paradigm == "locking":
        if (type(policy) not in _LOCKING_POLICIES
                and type(policy) not in _LOCKING_POOL_POLICIES):
            return f"locking policy {policy.name!r} is not fused"
        if system.dispatcher.lock.n_locks != 1:
            return "layered locks pipeline per-packet reservations"
    else:
        if type(policy) not in _IPS_POLICIES:
            return f"IPS policy {policy.name!r} is not fused"
    return None


# ----------------------------------------------------------------------
# Arrival pregeneration
# ----------------------------------------------------------------------
def _pregenerate_arrivals(
    system: "NetworkProcessingSystem",
) -> Tuple[List[float], List[int], List[int]]:
    """Draw, truncate and merge every stream's arrivals for the full run.

    Returns ``(times, stream_ids, per_stream_counts)`` in exactly the
    order the scalar engine would fire the arrival events.  Drawing past
    each stream's first beyond-horizon arrival is unobservable: the
    per-stream RNG substream is private, so surplus draws are discarded
    values no other consumer can see (the same argument as the scalar
    engine's chunked ``_ArrivalSource`` pregeneration).
    """
    cfg = system.config
    duration_us = cfg.duration_us
    per_stream: List[List[float]] = []
    for stream_id, spec in enumerate(cfg.traffic.stream_specs):
        process = spec.build(system.rngs.arrivals(stream_id))
        expected = spec.mean_rate_pps * duration_us * 1e-6
        chunk = min(4_000_000, max(64, int(expected * 1.05) + 16))
        chunks: List[np.ndarray] = []
        base = 0.0
        drawn = 0
        while True:
            gaps, _sizes = process.next_batches_array(chunk)
            # Strict left fold from the previous absolute time: identical
            # to the scalar t_k = t_{k-1} + gap_k chain.
            times = np.add.accumulate(np.concatenate(((base,), gaps)))[1:]
            chunks.append(times)
            base = float(times[-1])
            drawn += chunk
            if base > duration_us:
                break
            if drawn > 4.0 * expected + 1e6:
                raise RuntimeError(
                    f"stream {stream_id} pregeneration ran away "
                    f"({drawn} draws without passing the horizon)"
                )
        merged = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        # Keep arrivals with time <= duration: the scalar horizon test is
        # strictly `when > horizon` ends the stream, and gaps are
        # non-negative so the first exceedance ends it for good.
        cut = int(np.searchsorted(merged, duration_us, side="right"))
        per_stream.append(merged[:cut].tolist())
    counts = [len(t) for t in per_stream]
    total = sum(counts)
    if total == 0:
        return [], [], counts
    n_streams = len(per_stream)
    cat = np.empty(total, dtype=np.float64)
    sid_arr = np.empty(total, dtype=np.int64)
    pos = 0
    for s, times_list in enumerate(per_stream):
        n = len(times_list)
        cat[pos:pos + n] = times_list
        sid_arr[pos:pos + n] = s
        pos += n
    order = np.argsort(cat, kind="stable")
    sorted_t = cat[order]
    # Exact cross-stream time ties need the scalar push-order resolution;
    # same-stream duplicates are already in order under the stable sort.
    if total > 1:
        eq = sorted_t[1:] == sorted_t[:-1]
        if bool(eq.any()):
            sorted_s = sid_arr[order]
            if bool((sorted_s[1:][eq] != sorted_s[:-1][eq]).any()):
                return _merge_with_push_order(per_stream, n_streams) + (counts,)
    return sorted_t.tolist(), sid_arr[order].tolist(), counts


def _merge_with_push_order(
    per_stream: List[List[float]], n_streams: int,
) -> Tuple[List[float], List[int]]:
    """Exact-tie fallback: k-way merge with scalar push-order stamps.

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
    heap: List[Tuple[float, int, int]] = []
    idx = [1] * n_streams
    for s in range(n_streams):
        times_list = per_stream[s]
        if times_list:
            # Initial pushes happen in stream order before the run starts.
            heap.append((times_list[0], s, s))
    heapq.heapify(heap)
    counter = n_streams
    out_t: List[float] = []
    out_s: List[int] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    while heap:
        t, _po, s = heappop(heap)
        out_t.append(t)
        out_s.append(s)
        i = idx[s]
        times_list = per_stream[s]
        if i < len(times_list):
            heappush(heap, (times_list[i], counter, s))
            counter += 1
            idx[s] = i + 1
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
    m_times, m_sids, counts = _pregenerate_arrivals(system)
    # The loops allocate short-lived acyclic tuples at a rate that makes
    # generational GC scans pure overhead (~8% of the run); results are
    # unaffected, so suspend collection for the duration.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        if system.config.paradigm != "locking":
            _run_ips(system, m_times, m_sids, counts)
        elif type(system.dispatcher.policy) in _LOCKING_POOL_POLICIES:
            _run_locking_pools(system, m_times, m_sids, counts)
        else:
            _run_locking(system, m_times, m_sids, counts)
    finally:
        if gc_was_enabled:
            gc.enable()


def _fold_metrics_rows(
    system: "NetworkProcessingSystem",
    done: List[tuple],
    lw_col: Optional[int],
) -> None:
    """Fold completed-service tuples into the collector's columns.

    ``done`` holds the completion-heap tuples in firing order —
    ``(completion, stamp, proc, stream, arrival, start, exec, ...)`` —
    with nondecreasing completion times, so the scalar per-completion
    ``completion_us >= warmup_us`` filter reduces to one binary search.
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
    lock_waits_us = (
        cols[lw_col] if lw_col is not None
        else [0.0] * len(rows)
    )
    system.metrics.extend_columns(
        cols[3], cols[4], cols[5], cols[0], cols[6], lock_waits_us, cols[2],
    )


# ----------------------------------------------------------------------
# Locking paradigm
# ----------------------------------------------------------------------
def _run_locking(
    system: "NetworkProcessingSystem",
    m_times: List[float],
    m_sids: List[int],
    counts: List[int],
) -> None:
    cfg = system.config
    dispatcher = system.dispatcher
    model = system.model
    policy = dispatcher.policy
    n_procs = cfg.platform.n_processors
    n_streams = cfg.traffic.n_streams
    duration_us = cfg.duration_us

    pk_fcfs = type(policy) is FCFSPolicy
    pk_stream = type(policy) is StreamMRUPolicy

    # --- model constants / fast-path state (locals: no attribute loads
    # in the loop; every float expression below replicates the scalar
    # code's tree exactly — see exec_model.execution_time_scalar,
    # exec_model._pen1 and dispatch.LockingDispatcher).
    COLD_ = COLD
    fast_ok = model._fast_l1 is not None
    pen_cold = model._pen_cold
    w_shared = model._w_shared
    w_code = model._w_code
    w_stream = model._w_stream
    w_thread = model._w_thread
    t_warm = model._t_warm
    dispatch_c = model._dispatch_us
    lock_oh = model._lock_oh
    extra_c = cfg.fixed_overhead_us
    cache = model._penalty_cache
    cache_get = cache.get
    cache_max = model._PENALTY_CACHE_MAX
    model_pen1 = model._pen1
    data_touching = cfg.data_touching
    dt_const = (
        model.costs.data_touching_us(system._fixed_size)
        if data_touching else 0.0
    )
    size_bytes = system._fixed_size
    refs_per_us = cfg.platform.references_per_us
    v_intensity = cfg.nonprotocol_intensity
    cs_us = dispatcher._lock_cs_us
    sched_int = system.rngs.scheduling.integers
    log10 = math.log10
    expm1 = math.expm1

    n_calls = 0
    n_analytic = 0
    n_cache = 0
    n_flush = 0
    migrations = 0

    if fast_ok:
        split1, c01, slope1, u11, lp1 = model._fast_l1
        split2, c02, slope2, u12, lp2 = model._fast_l2
        delta1 = model._delta1
        delta2 = model._delta2

        def flush(refs: float) -> float:
            """Two-level flush math of ExecutionTimeModel._pen1, verbatim
            (cache maintenance included; counters folded by the caller)."""
            r = refs * split1
            u = r * u11 if r < 1.0 else 10.0 ** (c01 + slope1 * log10(r))
            if u > r:
                u = r
            f = -expm1(u * lp1)
            f1 = 1.0 if f > 1.0 else (0.0 if f < 0.0 else f)
            r = refs * split2
            u = r * u12 if r < 1.0 else 10.0 ** (c02 + slope2 * log10(r))
            if u > r:
                u = r
            f = -expm1(u * lp2)
            f2 = 1.0 if f > 1.0 else (0.0 if f < 0.0 else f)
            value = f1 * delta1 + f2 * delta2
            if len(cache) >= cache_max:
                cache.clear()
            cache[refs] = value
            return value

    def pen_of(refs: float) -> float:
        """Non-fast-path fallback (associative cache levels): cache probe
        here, everything else delegated to the model."""
        nonlocal n_cache
        hit = cache_get(refs)
        if hit is not None:
            n_cache += 1
            return hit
        return model_pen1(refs)

    # --- processor state (parallel lists; -inf touch sentinels)
    busy = [False] * n_procs
    ref_clock = [0.0] * n_procs
    accrued = [0.0] * n_procs
    np_us = [0.0] * n_procs
    pbusy_us = [0.0] * n_procs
    last_end = [_NEVER] * n_procs
    epoch_seen = [-1] * n_procs
    code_touch = [_NEVER] * n_procs
    stream_touch = [[_NEVER] * n_streams for _ in range(n_procs)]
    thread_touch = [[_NEVER] * n_procs for _ in range(n_procs)]
    epoch = 0
    # Idle set as a bitmask; scanned in ascending processor order exactly
    # like the dispatcher's sorted ``_idle`` list.
    idle_mask = (1 << n_procs) - 1

    # --- shared thread pool (free LIFO list; -1 = "never ran anywhere")
    free = list(range(n_procs - 1, -1, -1))
    tlp = [-1] * n_procs

    # --- stream affinity / key interning order
    stream_lp = [-1] * n_streams
    first_completion_order: List[int] = []

    # --- single coarse lock
    lock_free_at = 0.0
    lock_total_wait_us = 0.0
    lock_total_hold_us = 0.0
    lock_acqs = 0
    lock_contended = 0

    # --- queues / event feeds
    queue: Deque[Tuple[float, int, int]] = deque()
    queue_append = queue.append
    queue_popleft = queue.popleft
    comp_heap: List[tuple] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    done: List[tuple] = []
    done_append = done.append

    rem = list(counts)
    next_stamp = [-1] * n_streams
    seq = 0
    for s in range(n_streams):
        if rem[s]:
            next_stamp[s] = seq
            seq += 1

    ai = 0
    n_merged = len(m_times)
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
                # what the scalar per-event path does (enqueue, then
                # stamp the stream's next arrival), and the backlog rises
                # monotonically so one max update at the end is exact.
                j = bisect_left(m_times, ct, ai)
                if j == ai:
                    j = ai + 1  # tie with the completion, won on stamp
                for i in range(ai, j):
                    s = m_sids[i]
                    queue_append((m_times[i], s, i))
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
            now = at
            pid = ai
            ai += 1
            backlog += 1
            if backlog > max_backlog:
                max_backlog = backlog
            if idle_mask:
                # Queue is empty (loop invariant): dispatch immediately.
                if not (idle_mask & (idle_mask - 1)):
                    p = idle_mask.bit_length() - 1
                elif pk_fcfs:
                    idle = [q for q in range(n_procs) if idle_mask >> q & 1]
                    p = idle[int(sched_int(0, len(idle)))]
                else:
                    p = -1
                    if pk_stream:
                        lastp = stream_lp[s]
                        if lastp >= 0 and idle_mask >> lastp & 1:
                            p = lastp
                    if p < 0:
                        best_t = _NEVER
                        best = []
                        for q in range(n_procs):
                            if idle_mask >> q & 1:
                                tq = last_end[q]
                                if tq > best_t:
                                    best_t = tq
                                    best = [q]
                                elif tq == best_t:
                                    best.append(q)
                        p = (best[0] if len(best) == 1
                             else best[int(sched_int(0, len(best)))])
                # --- inlined _start_service (dispatch.LockingDispatcher)
                tid = free[-1]
                if tlp[tid] == p:
                    free.pop()
                else:
                    found = -1
                    for cand in reversed(free):
                        if tlp[cand] == p:
                            found = cand
                            break
                    if found < 0:
                        tid = free.pop()
                    else:
                        tid = found
                        free.remove(tid)
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
                if fast_ok:
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
                else:
                    pc = pen_of(code_refs)
                    ps = pc if stream_refs == code_refs else pen_of(stream_refs)
                    if thread_refs == code_refs:
                        pt = pc
                    elif thread_refs == stream_refs:
                        pt = ps
                    else:
                        pt = pen_of(thread_refs)
                if epoch > epoch_seen[p]:
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
                busy[p] = True
                idle_mask ^= 1 << p
                heappush(comp_heap, (now + (lock_wait_us + t_exec), seq, p, s,
                                     now, now, t_exec, lock_wait_us, tid, pid))
                seq += 1
            rem_s = rem[s] - 1
            rem[s] = rem_s
            if rem_s:
                next_stamp[s] = seq
                seq += 1
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
            tlp[tid] = p
            free.append(tid)
            if stream_lp[s] < 0:
                first_completion_order.append(s)
            stream_lp[s] = p
            if queue:
                # Queue non-empty ⇒ every other processor is busy: the
                # policy (all three) must pick p, consulting no RNG.
                a2, s2, pid2 = queue_popleft()
                tid = free[-1]
                if tlp[tid] == p:
                    free.pop()
                else:
                    found = -1
                    for cand in reversed(free):
                        if tlp[cand] == p:
                            found = cand
                            break
                    if found < 0:
                        tid = free.pop()
                    else:
                        tid = found
                        free.remove(tid)
                # dt = now - accrued[p] == 0.0 here: no accrual (exactly
                # the scalar no-op branch after _complete set accrued=now).
                d = clock - code_touch[p]
                code_refs = d if d > 0.0 else 0.0
                lp_s2 = stream_lp[s2]
                if lp_s2 != p:
                    if lp_s2 >= 0:
                        migrations += 1
                    stream_refs = COLD_
                else:
                    d = clock - stream_touch[p][s2]
                    stream_refs = d if d > 0.0 else 0.0
                if tlp[tid] == p:
                    d = clock - thread_touch[p][tid]
                    thread_refs = d if d > 0.0 else 0.0
                else:
                    thread_refs = COLD_
                n_calls += 1
                if fast_ok:
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
                else:
                    pc = pen_of(code_refs)
                    ps = pc if stream_refs == code_refs else pen_of(stream_refs)
                    if thread_refs == code_refs:
                        pt = pc
                    elif thread_refs == stream_refs:
                        pt = ps
                    else:
                        pt = pen_of(thread_refs)
                if epoch > epoch_seen[p]:
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
                # busy[p] stays True (scalar: False in _complete, True in
                # the immediately following _start_service).
                heappush(comp_heap, (now + (lock_wait_us + t_exec), seq, p, s2,
                                     a2, now, t_exec, lock_wait_us, tid, pid2))
                seq += 1
            else:
                busy[p] = False
                idle_mask |= 1 << p

    # ------------------------------------------------------------------
    # Fold back into the live objects
    # ------------------------------------------------------------------
    n_comp_fired = len(done)
    sim = system.sim
    sim._seq = seq
    sim._events_processed += n_merged + n_comp_fired
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
    thread_keys = dispatcher._thread_keys
    procs = system.processors
    for p in range(n_procs):
        proc = procs[p]
        proc.busy = busy[p]
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
        for s in range(n_streams):
            v = row[s]
            if v != _NEVER:
                touch[skeys[s]] = v
        row = thread_touch[p]
        for t in range(n_procs):
            v = row[t]
            if v != _NEVER:
                touch[thread_keys[t]] = v
    dispatcher.protocol_epoch = epoch
    dispatcher._idle[:] = [q for q in range(n_procs) if idle_mask >> q & 1]

    pool = dispatcher.threads
    pool._free[:] = free
    pool_last = pool._last_proc
    for t in range(n_procs):
        pool_last[t] = tlp[t] if tlp[t] >= 0 else None

    lock0 = dispatcher.lock.locks[0]
    lock0._free_at = lock_free_at
    lock0.total_wait_us = lock_total_wait_us
    lock0.total_hold_us = lock_total_hold_us
    lock0.acquisitions = lock_acqs
    lock0.contended = lock_contended

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
        pool._busy[tid] = p
        heappush(sim_heap, (ctime, stamp, records[p]))

    pqueue = policy._queue
    for a, s, pid in queue:
        pqueue.append(Packet(pid, s, a, size_bytes))

    system._packet_counter = n_merged
    _fold_metrics_rows(system, done, 7)
    system.metrics.fold_batch_counts(n_merged, n_comp_fired,
                                     backlog, max_backlog)


# ----------------------------------------------------------------------
# Locking paradigm, per-processor-queue policies (flow-steer, grouped)
# ----------------------------------------------------------------------
def _run_locking_pools(
    system: "NetworkProcessingSystem",
    m_times: List[float],
    m_sids: List[int],
    counts: List[int],
) -> None:
    """Fused loop for :class:`FlowSteerPolicy` / :class:`GroupedAffinityPolicy`.

    Both policies keep per-processor (flow-steer) or per-group (grouped)
    queues and run with processor-bound threads (``tid == proc``, so the
    shared-pool preference scan of ``_run_locking`` collapses to
    ``free.remove(p)``/``free.append(p)`` — exactly the scalar
    per-processor :class:`~repro.sim.entities.ThreadPool` history).  The
    structural invariant making the fusion exact: **a nonempty queue
    implies its owning processor (flow-steer) / every processor of its
    group (grouped) is busy** — arrivals whose final target is idle
    dispatch immediately (the target's queue is empty, so the new packet
    is the head), and a completion can only refill its own processor
    (every other idle processor's queue is empty), so the completion
    path consults no RNG.  The only RNG use in the whole loop is the
    grouped policy's MRU tie-break among a group's idle members at
    arrival, replicated draw for draw from ``_mru_idle``.  Flow-steer's
    rebalance check runs on every arrival; it can never trigger toward
    an idle processor's (empty) queue, so re-steers only move *queued*
    streams — the Flow Director reordering pathology.
    """
    cfg = system.config
    dispatcher = system.dispatcher
    model = system.model
    policy = dispatcher.policy
    n_procs = cfg.platform.n_processors
    n_streams = cfg.traffic.n_streams
    duration_us = cfg.duration_us

    pk_flow = type(policy) is FlowSteerPolicy
    if pk_flow:
        n_queues = n_procs
        threshold = policy.rebalance_threshold
        steer = [-1] * n_streams
        resteers = 0
        n_eff = 1  # unused
    else:
        n_eff = policy._n_eff
        n_queues = n_eff
        threshold = 0  # unused
        steer = []  # unused
        resteers = 0  # unused

    COLD_ = COLD
    fast_ok = model._fast_l1 is not None
    pen_cold = model._pen_cold
    w_shared = model._w_shared
    w_code = model._w_code
    w_stream = model._w_stream
    w_thread = model._w_thread
    t_warm = model._t_warm
    dispatch_c = model._dispatch_us
    lock_oh = model._lock_oh
    extra_c = cfg.fixed_overhead_us
    cache = model._penalty_cache
    cache_get = cache.get
    cache_max = model._PENALTY_CACHE_MAX
    model_pen1 = model._pen1
    data_touching = cfg.data_touching
    dt_const = (
        model.costs.data_touching_us(system._fixed_size)
        if data_touching else 0.0
    )
    size_bytes = system._fixed_size
    refs_per_us = cfg.platform.references_per_us
    v_intensity = cfg.nonprotocol_intensity
    cs_us = dispatcher._lock_cs_us
    sched_int = system.rngs.scheduling.integers
    log10 = math.log10
    expm1 = math.expm1

    n_calls = 0
    n_analytic = 0
    n_cache = 0
    n_flush = 0
    migrations = 0

    if fast_ok:
        split1, c01, slope1, u11, lp1 = model._fast_l1
        split2, c02, slope2, u12, lp2 = model._fast_l2
        delta1 = model._delta1
        delta2 = model._delta2

        def flush(refs: float) -> float:
            """Two-level flush math of ExecutionTimeModel._pen1, verbatim
            (cache maintenance included; counters folded by the caller)."""
            r = refs * split1
            u = r * u11 if r < 1.0 else 10.0 ** (c01 + slope1 * log10(r))
            if u > r:
                u = r
            f = -expm1(u * lp1)
            f1 = 1.0 if f > 1.0 else (0.0 if f < 0.0 else f)
            r = refs * split2
            u = r * u12 if r < 1.0 else 10.0 ** (c02 + slope2 * log10(r))
            if u > r:
                u = r
            f = -expm1(u * lp2)
            f2 = 1.0 if f > 1.0 else (0.0 if f < 0.0 else f)
            value = f1 * delta1 + f2 * delta2
            if len(cache) >= cache_max:
                cache.clear()
            cache[refs] = value
            return value

    def pen_of(refs: float) -> float:
        """Non-fast-path fallback (associative cache levels): cache probe
        here, everything else delegated to the model."""
        nonlocal n_cache
        hit = cache_get(refs)
        if hit is not None:
            n_cache += 1
            return hit
        return model_pen1(refs)

    # --- processor state (parallel lists; -inf touch sentinels)
    busy = [False] * n_procs
    ref_clock = [0.0] * n_procs
    accrued = [0.0] * n_procs
    np_us = [0.0] * n_procs
    pbusy_us = [0.0] * n_procs
    last_end = [_NEVER] * n_procs
    epoch_seen = [-1] * n_procs
    code_touch = [_NEVER] * n_procs
    stream_touch = [[_NEVER] * n_streams for _ in range(n_procs)]
    # Per-processor threads: tid == p always, so one touch cell per
    # processor replaces the shared pool's per-thread table.
    thread_touch = [_NEVER] * n_procs
    epoch = 0
    idle_mask = (1 << n_procs) - 1

    # --- per-processor thread pool (tid == p; -1 = never released here)
    free = list(range(n_procs - 1, -1, -1))
    tlp = [-1] * n_procs

    stream_lp = [-1] * n_streams
    first_completion_order: List[int] = []

    lock_free_at = 0.0
    lock_total_wait_us = 0.0
    lock_total_hold_us = 0.0
    lock_acqs = 0
    lock_contended = 0

    queues: List[Deque[Tuple[float, int, int]]] = [
        deque() for _ in range(n_queues)
    ]
    comp_heap: List[tuple] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    done: List[tuple] = []
    done_append = done.append

    rem = list(counts)
    next_stamp = [-1] * n_streams
    seq = 0
    for s in range(n_streams):
        if rem[s]:
            next_stamp[s] = seq
            seq += 1

    ai = 0
    n_merged = len(m_times)
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
                # Every processor is busy: no dispatch is possible, but
                # the policy's enqueue step (including flow-steer's
                # rebalance test, which consults no RNG) still runs per
                # arrival, exactly as the scalar on_arrival path does.
                j = bisect_left(m_times, ct, ai)
                if j == ai:
                    j = ai + 1  # tie with the completion, won on stamp
                for i in range(ai, j):
                    s = m_sids[i]
                    if pk_flow:
                        tgt = steer[s]
                        if tgt < 0:
                            tgt = s % n_procs
                            steer[s] = tgt
                        short_len = len(queues[0])
                        for q in range(1, n_procs):
                            lq = len(queues[q])
                            if lq < short_len:
                                short_len = lq
                        if len(queues[tgt]) > short_len + threshold:
                            for q in range(n_procs):
                                if len(queues[q]) == short_len:
                                    tgt = q
                                    break
                            steer[s] = tgt
                            resteers += 1
                        queues[tgt].append((m_times[i], s, i))
                    else:
                        queues[s % n_eff].append((m_times[i], s, i))
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
            now = at
            pid = ai
            ai += 1
            backlog += 1
            if backlog > max_backlog:
                max_backlog = backlog
            # --- policy enqueue + dispatch decision
            p = -1
            if pk_flow:
                tgt = steer[s]
                if tgt < 0:
                    tgt = s % n_procs
                    steer[s] = tgt
                short_len = len(queues[0])
                for q in range(1, n_procs):
                    lq = len(queues[q])
                    if lq < short_len:
                        short_len = lq
                if len(queues[tgt]) > short_len + threshold:
                    for q in range(n_procs):
                        if len(queues[q]) == short_len:
                            tgt = q
                            break
                    steer[s] = tgt
                    resteers += 1
                if idle_mask >> tgt & 1:
                    # Idle target ⇒ its queue is empty (invariant): the
                    # new packet dispatches without touching the deque.
                    p = tgt
                else:
                    queues[tgt].append((at, s, pid))
            else:
                g = s % n_eff
                qg = queues[g]
                if qg:
                    # Nonempty group queue ⇒ no idle group member.
                    qg.append((at, s, pid))
                else:
                    # MRU among the group's idle members, draw for draw
                    # as _mru_idle: tie candidates accumulate in
                    # ascending order, RNG only for genuine ties.
                    best_t = _NEVER
                    best: List[int] = []
                    for q in range(n_procs):
                        if idle_mask >> q & 1 and q % n_eff == g:
                            tq = last_end[q]
                            if tq > best_t:
                                best_t = tq
                                best = [q]
                            elif tq == best_t:
                                best.append(q)
                    if not best:
                        qg.append((at, s, pid))
                    else:
                        p = (best[0] if len(best) == 1
                             else best[int(sched_int(0, len(best)))])
            if p >= 0:
                # --- inlined _start_service (per-processor thread pool:
                # acquire is free.remove(p), preference scan not needed)
                free.remove(p)
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
                if tlp[p] == p:
                    d = clock - thread_touch[p]
                    thread_refs = d if d > 0.0 else 0.0
                else:
                    thread_refs = COLD_
                n_calls += 1
                if fast_ok:
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
                else:
                    pc = pen_of(code_refs)
                    ps = pc if stream_refs == code_refs else pen_of(stream_refs)
                    if thread_refs == code_refs:
                        pt = pc
                    elif thread_refs == stream_refs:
                        pt = ps
                    else:
                        pt = pen_of(thread_refs)
                if epoch > epoch_seen[p]:
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
                busy[p] = True
                idle_mask ^= 1 << p
                heappush(comp_heap, (now + (lock_wait_us + t_exec), seq, p, s,
                                     now, now, t_exec, lock_wait_us, p, pid))
                seq += 1
            rem_s = rem[s] - 1
            rem[s] = rem_s
            if rem_s:
                next_stamp[s] = seq
                seq += 1
        else:
            # ---------------- completion event ----------------
            heappop(comp_heap)
            done_append(head)
            now = head[0]
            p = head[2]
            s = head[3]
            ex = head[6]
            epoch += 1
            clock = ref_clock[p] + ex * refs_per_us
            ref_clock[p] = clock
            accrued[p] = now
            code_touch[p] = clock
            stream_touch[p][s] = clock
            thread_touch[p] = clock
            pbusy_us[p] += ex
            last_end[p] = now
            epoch_seen[p] = epoch
            backlog -= 1
            tlp[p] = p  # release: _last_proc[p] = p ...
            if stream_lp[s] < 0:
                first_completion_order.append(s)
            stream_lp[s] = p
            qp = queues[p if pk_flow else p % n_eff]
            if qp:
                # Only p can refill (every other idle processor's queue
                # is empty by the invariant), so no RNG is consulted; the
                # scalar release-append + acquire-remove cancel out, so
                # the free list is untouched.
                a2, s2, pid2 = qp.popleft()
                # dt = now - accrued[p] == 0.0 here: no accrual.
                d = clock - code_touch[p]
                code_refs = d if d > 0.0 else 0.0
                lp_s2 = stream_lp[s2]
                if lp_s2 != p:
                    if lp_s2 >= 0:
                        migrations += 1
                    stream_refs = COLD_
                else:
                    d = clock - stream_touch[p][s2]
                    stream_refs = d if d > 0.0 else 0.0
                # tlp[p] == p (just released): thread stack warm here.
                d = clock - thread_touch[p]
                thread_refs = d if d > 0.0 else 0.0
                n_calls += 1
                if fast_ok:
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
                else:
                    pc = pen_of(code_refs)
                    ps = pc if stream_refs == code_refs else pen_of(stream_refs)
                    if thread_refs == code_refs:
                        pt = pc
                    elif thread_refs == stream_refs:
                        pt = ps
                    else:
                        pt = pen_of(thread_refs)
                if epoch > epoch_seen[p]:
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
                # busy[p] stays True.
                heappush(comp_heap, (now + (lock_wait_us + t_exec), seq, p, s2,
                                     a2, now, t_exec, lock_wait_us, p, pid2))
                seq += 1
            else:
                busy[p] = False
                idle_mask |= 1 << p
                free.append(p)

    # ------------------------------------------------------------------
    # Fold back into the live objects
    # ------------------------------------------------------------------
    n_comp_fired = len(done)
    sim = system.sim
    sim._seq = seq
    sim._events_processed += n_merged + n_comp_fired
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
    thread_keys = dispatcher._thread_keys
    procs = system.processors
    for p in range(n_procs):
        proc = procs[p]
        proc.busy = busy[p]
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
        for s in range(n_streams):
            v = row[s]
            if v != _NEVER:
                touch[skeys[s]] = v
        v = thread_touch[p]
        if v != _NEVER:
            touch[thread_keys[p]] = v
    dispatcher.protocol_epoch = epoch
    dispatcher._idle[:] = [q for q in range(n_procs) if idle_mask >> q & 1]

    pool = dispatcher.threads
    pool._free[:] = free
    pool_last = pool._last_proc
    for t in range(n_procs):
        pool_last[t] = tlp[t] if tlp[t] >= 0 else None

    lock0 = dispatcher.lock.locks[0]
    lock0._free_at = lock_free_at
    lock0.total_wait_us = lock_total_wait_us
    lock0.total_hold_us = lock_total_hold_us
    lock0.acquisitions = lock_acqs
    lock0.contended = lock_contended

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
        pool._busy[tid] = p
        heappush(sim_heap, (ctime, stamp, records[p]))

    if pk_flow:
        psteer = policy._steer
        for s in range(n_streams):
            if steer[s] >= 0:
                psteer[s] = steer[s]
        policy.resteers = resteers
        pqueues = policy._queues
        for q in range(n_procs):
            dst = pqueues[q]
            for a, s, pid in queues[q]:
                dst.append(Packet(pid, s, a, size_bytes))
    else:
        gqueues = policy._queues
        for g in range(n_eff):
            dst = gqueues[g]
            for a, s, pid in queues[g]:
                dst.append(Packet(pid, s, a, size_bytes))

    system._packet_counter = n_merged
    _fold_metrics_rows(system, done, 7)
    system.metrics.fold_batch_counts(n_merged, n_comp_fired,
                                     backlog, max_backlog)


# ----------------------------------------------------------------------
# IPS paradigm
# ----------------------------------------------------------------------
def _run_ips(
    system: "NetworkProcessingSystem",
    m_times: List[float],
    m_sids: List[int],
    counts: List[int],
) -> None:
    cfg = system.config
    dispatcher = system.dispatcher
    model = system.model
    policy = dispatcher.policy
    n_procs = cfg.platform.n_processors
    n_streams = cfg.traffic.n_streams
    n_stacks = dispatcher.n_stacks
    duration_us = cfg.duration_us

    pk_wired = type(policy) is IPSWiredPolicy

    COLD_ = COLD
    fast_ok = model._fast_l1 is not None
    pen_cold = model._pen_cold
    w_shared = model._w_shared
    w_code = model._w_code
    w_stream = model._w_stream
    w_thread = model._w_thread
    t_warm = model._t_warm
    dispatch_c = model._dispatch_us
    extra_c = cfg.fixed_overhead_us
    cache = model._penalty_cache
    cache_get = cache.get
    cache_max = model._PENALTY_CACHE_MAX
    model_pen1 = model._pen1
    data_touching = cfg.data_touching
    dt_const = (
        model.costs.data_touching_us(system._fixed_size)
        if data_touching else 0.0
    )
    size_bytes = system._fixed_size
    refs_per_us = cfg.platform.references_per_us
    v_intensity = cfg.nonprotocol_intensity
    sched_int = system.rngs.scheduling.integers
    log10 = math.log10
    expm1 = math.expm1

    n_calls = 0
    n_analytic = 0
    n_cache = 0
    n_flush = 0
    migrations = 0

    if fast_ok:
        split1, c01, slope1, u11, lp1 = model._fast_l1
        split2, c02, slope2, u12, lp2 = model._fast_l2
        delta1 = model._delta1
        delta2 = model._delta2

        def flush(refs: float) -> float:
            """Two-level flush math of ExecutionTimeModel._pen1, verbatim
            (cache maintenance included; counters folded by the caller)."""
            r = refs * split1
            u = r * u11 if r < 1.0 else 10.0 ** (c01 + slope1 * log10(r))
            if u > r:
                u = r
            f = -expm1(u * lp1)
            f1 = 1.0 if f > 1.0 else (0.0 if f < 0.0 else f)
            r = refs * split2
            u = r * u12 if r < 1.0 else 10.0 ** (c02 + slope2 * log10(r))
            if u > r:
                u = r
            f = -expm1(u * lp2)
            f2 = 1.0 if f > 1.0 else (0.0 if f < 0.0 else f)
            value = f1 * delta1 + f2 * delta2
            if len(cache) >= cache_max:
                cache.clear()
            cache[refs] = value
            return value

    def pen_of(refs: float) -> float:
        """Non-fast-path fallback (associative cache levels)."""
        nonlocal n_cache
        hit = cache_get(refs)
        if hit is not None:
            n_cache += 1
            return hit
        return model_pen1(refs)

    busy = [False] * n_procs
    ref_clock = [0.0] * n_procs
    accrued = [0.0] * n_procs
    np_us = [0.0] * n_procs
    pbusy_us = [0.0] * n_procs
    last_end = [_NEVER] * n_procs
    epoch_seen = [-1] * n_procs
    code_touch = [_NEVER] * n_procs
    stream_touch = [[_NEVER] * n_streams for _ in range(n_procs)]
    stack_touch = [[_NEVER] * n_stacks for _ in range(n_procs)]
    epoch = 0
    idle_mask = (1 << n_procs) - 1

    stream_lp = [-1] * n_streams
    stack_lp = [-1] * n_stacks
    stack_busy = [False] * n_stacks
    first_completion_order: List[int] = []

    queues: List[Deque[Tuple[float, int, int]]] = [deque() for _ in range(n_stacks)]
    # Runnable stacks: lazily validated min-heaps of (head_arrival, k).
    # ips-wired partitions by the stack's wired processor so a completion
    # consults only candidates its freed processor may serve.
    if pk_wired:
        runnable_by_proc: List[List[Tuple[float, int]]] = [[] for _ in range(n_procs)]
    else:
        runnable: List[Tuple[float, int]] = []
    comp_heap: List[tuple] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    done: List[tuple] = []
    done_append = done.append

    rem = list(counts)
    next_stamp = [-1] * n_streams
    seq = 0
    for s in range(n_streams):
        if rem[s]:
            next_stamp[s] = seq
            seq += 1

    ai = 0
    n_merged = len(m_times)
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
                # next completion can only queue (an idle stack still
                # registers as runnable, exactly as the per-event path
                # does after its dispatch attempt is refused).  The
                # backlog rises monotonically across the sweep, so one
                # max update at the end is exact.
                j = bisect_left(m_times, ct, ai)
                if j == ai:
                    j = ai + 1  # tie with the completion, won on stamp
                for i in range(ai, j):
                    s = m_sids[i]
                    k = s % n_stacks
                    qk = queues[k]
                    if stack_busy[k] or qk:
                        qk.append((m_times[i], s, i))
                    else:
                        t2b = m_times[i]
                        qk.append((t2b, s, i))
                        if pk_wired:
                            heappush(runnable_by_proc[k % n_procs], (t2b, k))
                        else:
                            heappush(runnable, (t2b, k))
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
            now = at
            pid = ai
            ai += 1
            backlog += 1
            if backlog > max_backlog:
                max_backlog = backlog
            k = s % n_stacks
            qk = queues[k]
            if stack_busy[k] or qk:
                qk.append((at, s, pid))
            else:
                # Stack idle with empty queue: this packet is its head.
                # Every other runnable stack was already refused with the
                # same idle set, so at most this stack can dispatch.
                p = -1
                if pk_wired:
                    wp = k % n_procs
                    if idle_mask >> wp & 1:
                        p = wp
                elif idle_mask:
                    if not (idle_mask & (idle_mask - 1)):
                        p = idle_mask.bit_length() - 1
                    else:
                        lastp = stack_lp[k]
                        if lastp >= 0 and idle_mask >> lastp & 1:
                            p = lastp
                        else:
                            best_t = _NEVER
                            best = []
                            for q in range(n_procs):
                                if idle_mask >> q & 1:
                                    tq = last_end[q]
                                    if tq > best_t:
                                        best_t = tq
                                        best = [q]
                                    elif tq == best_t:
                                        best.append(q)
                            p = (best[0] if len(best) == 1
                                 else best[int(sched_int(0, len(best)))])
                if p < 0:
                    qk.append((at, s, pid))
                    if pk_wired:
                        heappush(runnable_by_proc[k % n_procs], (at, k))
                    else:
                        heappush(runnable, (at, k))
                else:
                    # --- inlined IPS _start_service
                    migrated = stack_lp[k] != p
                    stack_busy[k] = True
                    dt = now - accrued[p]
                    if dt > 0.0:
                        ref_clock[p] += dt * refs_per_us * v_intensity
                        np_us[p] += dt
                        accrued[p] = now
                    elif dt < -1e-9:
                        raise ValueError(
                            f"time went backwards: {now} < {accrued[p]}")
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
                    if migrated:
                        thread_refs = COLD_
                    else:
                        d = clock - stack_touch[p][k]
                        thread_refs = d if d > 0.0 else 0.0
                    n_calls += 1
                    if fast_ok:
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
                    else:
                        pc = pen_of(code_refs)
                        ps = (pc if stream_refs == code_refs
                              else pen_of(stream_refs))
                        if thread_refs == code_refs:
                            pt = pc
                        elif thread_refs == stream_refs:
                            pt = ps
                        else:
                            pt = pen_of(thread_refs)
                    if migrated:
                        pen_code = w_shared * pen_cold + (1.0 - w_shared) * pc
                    else:
                        pen_code = pc
                    penalty = w_code * pen_code + w_stream * ps + w_thread * pt
                    t_exec = t_warm + penalty + dispatch_c + extra_c
                    if data_touching:
                        t_exec += dt_const
                    busy[p] = True
                    idle_mask ^= 1 << p
                    heappush(comp_heap, (now + t_exec, seq, p, s,
                                         now, now, t_exec, k, pid))
                    seq += 1
            rem_s = rem[s] - 1
            rem[s] = rem_s
            if rem_s:
                next_stamp[s] = seq
                seq += 1
        else:
            # ---------------- completion event ----------------
            heappop(comp_heap)
            done_append(head)
            now = head[0]
            p = head[2]
            s = head[3]
            ex = head[6]
            k = head[7]
            epoch += 1
            clock = ref_clock[p] + ex * refs_per_us
            ref_clock[p] = clock
            accrued[p] = now
            code_touch[p] = clock
            stream_touch[p][s] = clock
            stack_touch[p][k] = clock
            pbusy_us[p] += ex
            last_end[p] = now
            epoch_seen[p] = epoch
            backlog -= 1
            stack_busy[k] = False
            stack_lp[k] = p
            if stream_lp[s] < 0:
                first_completion_order.append(s)
            stream_lp[s] = p
            qk = queues[k]
            rh = runnable_by_proc[p] if pk_wired else runnable
            if qk:
                heappush(rh, (qk[0][0], k))
            # Any runnable stack the freed processor may serve dispatches
            # now; under both fused IPS policies the chosen processor can
            # only be p (every other idle processor was already refused),
            # so no RNG is consulted.
            k2 = -1
            while rh:
                t2, kk = rh[0]
                q2 = queues[kk]
                if stack_busy[kk] or not q2 or q2[0][0] != t2:
                    heappop(rh)
                    continue
                heappop(rh)
                k2 = kk
                break
            if k2 >= 0:
                a2, s2, pid2 = queues[k2].popleft()
                migrated = stack_lp[k2] != p
                stack_busy[k2] = True
                # dt == 0.0: accrued[p] was just set to now.
                d = clock - code_touch[p]
                code_refs = d if d > 0.0 else 0.0
                lp_s2 = stream_lp[s2]
                if lp_s2 != p:
                    if lp_s2 >= 0:
                        migrations += 1
                    stream_refs = COLD_
                else:
                    d = clock - stream_touch[p][s2]
                    stream_refs = d if d > 0.0 else 0.0
                if migrated:
                    thread_refs = COLD_
                else:
                    d = clock - stack_touch[p][k2]
                    thread_refs = d if d > 0.0 else 0.0
                n_calls += 1
                if fast_ok:
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
                else:
                    pc = pen_of(code_refs)
                    ps = (pc if stream_refs == code_refs
                          else pen_of(stream_refs))
                    if thread_refs == code_refs:
                        pt = pc
                    elif thread_refs == stream_refs:
                        pt = ps
                    else:
                        pt = pen_of(thread_refs)
                if migrated:
                    pen_code = w_shared * pen_cold + (1.0 - w_shared) * pc
                else:
                    pen_code = pc
                penalty = w_code * pen_code + w_stream * ps + w_thread * pt
                t_exec = t_warm + penalty + dispatch_c + extra_c
                if data_touching:
                    t_exec += dt_const
                heappush(comp_heap, (now + t_exec, seq, p, s2,
                                     a2, now, t_exec, k2, pid2))
                seq += 1
            else:
                busy[p] = False
                idle_mask |= 1 << p

    # ------------------------------------------------------------------
    # Fold back into the live objects
    # ------------------------------------------------------------------
    n_comp_fired = len(done)
    sim = system.sim
    sim._seq = seq
    sim._events_processed += n_merged + n_comp_fired
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
    stack_keys = dispatcher._stack_thread_keys
    procs = system.processors
    for p in range(n_procs):
        proc = procs[p]
        proc.busy = busy[p]
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
        for s in range(n_streams):
            v = row[s]
            if v != _NEVER:
                touch[skeys[s]] = v
        row = stack_touch[p]
        for t in range(n_stacks):
            v = row[t]
            if v != _NEVER:
                touch[stack_keys[t]] = v
    dispatcher.protocol_epoch = epoch
    dispatcher._idle[:] = [q for q in range(n_procs) if idle_mask >> q & 1]
    for k in range(n_stacks):
        dispatcher._stack_busy[k] = stack_busy[k]
        dispatcher._stack_last_proc[k] = stack_lp[k] if stack_lp[k] >= 0 else None

    records = dispatcher._completion_records
    sim_heap = sim._heap
    for entry in comp_heap:
        ctime, stamp, p, s, arr_t, sstart, ex, k, pid = entry
        pkt = Packet(pid, s, arr_t, size_bytes)
        pkt.service_start_us = sstart
        pkt.exec_time_us = ex
        pkt.lock_wait_us = 0.0
        pkt.processor_id = p
        pkt.thread_id = k
        procs[p].current_packet = pkt
        heappush(sim_heap, (ctime, stamp, records[p]))

    dqueues = dispatcher._queues
    for k in range(n_stacks):
        dq = dqueues[k]
        for a, s, pid in queues[k]:
            dq.append(Packet(pid, s, a, size_bytes))

    system._packet_counter = n_merged
    _fold_metrics_rows(system, done, None)
    system.metrics.fold_batch_counts(n_merged, n_comp_fired,
                                     backlog, max_backlog)
