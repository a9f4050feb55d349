"""Affinity keys and the parent-side task router for the warm backend.

The paper's thesis, one level up: scheduling work without regard to which
processor already holds its state warm throws away locality.  For sweep
execution the "state" is not a CPU cache but a worker process's memoized
:class:`~repro.core.exec_model.ExecutionTimeModel` (penalty caches) —
expensive to rebuild, free to reuse, and shared by every config with the
same exec-model parameters.

:func:`affinity_key` names that reusable state: a digest of the
exec-model parameters (costs, composition, platform), the workload
family, and the code version.  :class:`AffinityScheduler` then mirrors
the paper's policy structure at the sweep level:

- **per-worker queues** — tasks are routed to the worker that most
  recently ran their affinity key (MRU, the paper's winning policy),
  with same-key tasks kept contiguous so a worker rides one warm model
  for a whole run of chunks;
- **load balancing** — a key's tasks are split across workers once one
  queue would exceed its fair share, so a single-family sweep (the
  common case) still uses every worker;
- **idle stealing** — a worker with an empty queue steals a same-key run
  from the *tail* of the longest queue (the victim keeps its warm head),
  so affinity never costs utilization — the work-stealing hybrid of Gu
  et al. (PAPERS.md).

None of this can affect results: every config carries its own seed, so
routing, stealing, and chunk boundaries change only wall-clock and the
operational counters (``routed_affine``/``steals``).  The determinism
suite (``tests/properties/test_backend_determinism.py``) enforces that
contract under adversarial routing.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

from ..sim.system import SystemConfig
from .keys import UncacheableConfig, canonicalize, code_version

__all__ = [
    "AffinityScheduler",
    "QueuedTask",
    "SchedulerStats",
    "affinity_key",
    "workload_family",
]


def workload_family(config: SystemConfig) -> str:
    """Coarse workload-family tag for affinity grouping.

    Configs in one family share dispatch structure (paradigm, policy
    kind, traffic shape), so a worker that just ran one is warm for the
    next.  The tag deliberately ignores per-run knobs (rate, seed,
    horizon): those vary *within* a sweep and must not fragment routing.
    """
    policy = config.policy
    policy_tag = policy if isinstance(policy, str) else type(policy).__name__
    spec_types = ",".join(sorted({type(s).__name__
                                  for s in config.traffic.stream_specs}))
    return "|".join((
        config.paradigm,
        policy_tag,
        type(config.traffic.size_model).__name__,
        spec_types,
        f"churn={config.churn is not None}",
        f"data={config.data_touching}",
    ))


#: Parent-side memo of exec-model fingerprints.  Canonicalizing the
#: (costs, composition, platform) triple costs ~0.1 ms and a sweep
#: reuses a handful of parameterizations across hundreds of configs, so
#: the routing layer must not pay it per task.  Keyed by the *values*
#: (frozen dataclasses hash by field), bounded FIFO.  Parent-side only —
#: never worker warm state, so outside the RPR012 ledger's scope.
_FINGERPRINT_CACHE: Dict[object, str] = {}
_FINGERPRINT_CACHE_MAX = 64


def _exec_fingerprint(config: SystemConfig) -> Optional[str]:
    """Digest of the exec-model parameters, or None when uncanonicalizable."""
    try:
        key: Optional[object] = (config.costs, config.composition,
                                 config.platform)
        hit = _FINGERPRINT_CACHE.get(key)
        if hit is not None:
            return hit
    except TypeError:           # unhashable custom parameter object
        key = None
    try:
        canonical = canonicalize(
            (config.costs, config.composition, config.platform))
    except UncacheableConfig:
        return None
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    if key is not None:
        if len(_FINGERPRINT_CACHE) >= _FINGERPRINT_CACHE_MAX:
            _FINGERPRINT_CACHE.pop(next(iter(_FINGERPRINT_CACHE)))
        _FINGERPRINT_CACHE[key] = digest
    return digest


def affinity_key(config: SystemConfig) -> str:
    """Digest naming the warm state a config's execution can reuse.

    Covers the exec-model parameters (the memoized penalty caches are
    pure functions of these), the workload family,
    and the code version — so a code change or a different platform
    geometry can never alias into stale warm state.  Configs that cannot
    be canonicalized (e.g. policy instances) fall back to a family-only
    key: they still group by family, just without exec-model identity.
    """
    payload = {
        "code": code_version(),
        "exec_model": _exec_fingerprint(config),
        "family": workload_family(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class QueuedTask:
    """One task attempt waiting in a worker queue."""

    index: int       # position in the submitted batch
    attempt: int     # 1-based
    key: str         # affinity key


@dataclass
class SchedulerStats:
    """Operational counters (never result-affecting)."""

    routed_affine: int = 0   # tasks placed on a worker already warm for their key
    routed_cold: int = 0     # tasks placed on a cold/least-loaded worker
    steals: int = 0          # tasks stolen by an idle worker


class AffinityScheduler:
    """Per-worker task queues with MRU affinity routing and idle stealing.

    The scheduler lives in the parent and survives across batches, so a
    worker's MRU key — the affinity key of the last chunk dispatched to
    it — reflects what its process-level caches actually hold.
    """

    def __init__(self, n_workers: int, *,
                 route: str = "affinity") -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if route not in ("affinity", "scatter"):
            raise ValueError(f"unknown route mode {route!r}")
        self.n_workers = n_workers
        self.route = route
        self.queues: List[Deque[QueuedTask]] = [deque() for _ in range(n_workers)]
        self.mru: List[Optional[str]] = [None] * n_workers
        self.stats = SchedulerStats()
        self._rr = 0  # scatter-mode round-robin cursor

    # ------------------------------------------------------------------
    # enqueue
    # ------------------------------------------------------------------
    def pending(self) -> int:
        return sum(len(q) for q in self.queues)

    def assign(self, tasks: Sequence[QueuedTask]) -> None:
        """Place a batch of tasks onto the worker queues.

        ``affinity`` mode groups tasks by key (submission order preserved
        within a group), prefers the MRU-matching worker while it is
        under its fair share, and spills the rest to the least-loaded
        workers.  ``scatter`` mode round-robins tasks one by one,
        deliberately destroying affinity — the adversarial-routing lever
        the determinism tests use.
        """
        if not tasks:
            return
        if self.route == "scatter":
            for task in tasks:
                self.queues[self._rr % self.n_workers].append(task)
                self._rr += 1
                self.stats.routed_cold += 1
            return

        groups: Dict[str, List[QueuedTask]] = {}
        for task in tasks:
            groups.setdefault(task.key, []).append(task)
        total = self.pending() + len(tasks)
        # Fair share per worker; a group larger than this is split so a
        # single-family sweep cannot serialize onto one warm worker.
        target = -(-total // self.n_workers)  # ceil
        loads = [len(q) for q in self.queues]
        for key, group in groups.items():
            remaining = group
            while remaining:
                worker = self._pick_worker(key, loads, target)
                room = max(1, target - loads[worker])
                take, remaining = remaining[:room], remaining[room:]
                self.queues[worker].extend(take)
                loads[worker] += len(take)
                if self.mru[worker] == key:
                    self.stats.routed_affine += len(take)
                else:
                    self.stats.routed_cold += len(take)

    def _pick_worker(self, key: str, loads: List[int], target: int) -> int:
        """MRU-matching worker while under target, else least-loaded."""
        best = -1
        for w in range(self.n_workers):
            if self.mru[w] == key and loads[w] < target:
                if best < 0 or loads[w] < loads[best]:
                    best = w
        if best >= 0:
            return best
        return min(range(self.n_workers), key=lambda w: loads[w])

    def push(self, task: QueuedTask) -> None:
        """Re-queue one task (retry path): back to its affinity home."""
        self.assign([task])

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def next_chunk(self, worker: int, max_tasks: int) -> List[QueuedTask]:
        """Pop the next same-key run (up to ``max_tasks``) for ``worker``.

        Serves the worker's own queue head first; an empty queue steals a
        same-key run from the *tail* of the longest queue, so the victim
        keeps the warm run at its head.  Returns ``[]`` when no work is
        left anywhere.  Every returned chunk is single-key by
        construction — one warm model serves the whole chunk.
        """
        if max_tasks < 1:
            raise ValueError("max_tasks must be >= 1")
        queue = self.queues[worker]
        if not queue:
            victim = self._steal_victim(worker)
            if victim is None:
                return []
            vq = self.queues[victim]
            run: Deque[QueuedTask] = deque()
            key = vq[-1].key
            while vq and len(run) < max_tasks and vq[-1].key == key:
                run.appendleft(vq.pop())
            self.stats.steals += len(run)
            self.mru[worker] = key
            return list(run)
        chunk: List[QueuedTask] = [queue.popleft()]
        key = chunk[0].key
        while queue and len(chunk) < max_tasks and queue[0].key == key:
            chunk.append(queue.popleft())
        self.mru[worker] = key
        return chunk

    def _steal_victim(self, thief: int) -> Optional[int]:
        victim = -1
        longest = 0
        for w in range(self.n_workers):
            if w != thief and len(self.queues[w]) > longest:
                victim, longest = w, len(self.queues[w])
        return victim if victim >= 0 else None

    # ------------------------------------------------------------------
    def drain(self) -> List[QueuedTask]:
        """Remove and return every queued task, in batch-index order
        (the serial-degradation path wants deterministic order)."""
        out: List[QueuedTask] = []
        for queue in self.queues:
            out.extend(queue)
            queue.clear()
        return sorted(out, key=lambda t: (t.index, t.attempt))
