"""Lease bookkeeping for the fleet coordinator (:mod:`.fleet`).

A *lease* is the unit of at-least-once dispatch: the coordinator grants a
worker a chunk of tasks, and every beat or result from that worker
refreshes all of its leases.  A lease whose worker stays silent past the
budget is *expired* — its tasks are requeued (consuming an attempt from
the retry budget, exactly like a crashed worker) and the worker is
presumed lost.  A worker that was merely slow or partitioned may later
deliver a result for an expired lease; the :class:`LeaseTable` keeps
retired leases addressable so the coordinator can still interpret (and
byte-compare) those stale deliveries instead of dropping data it cannot
attribute.

Time never comes from the wall clock directly: every decision reads the
injectable ``clock`` callable handed to the table (lint rule RPR013).
Tests drive expiry with a fake clock; production passes
``time.monotonic`` *by reference*.  This is what keeps lease semantics
unit-testable and chaos runs replayable — the fault plan decides *what*
fails, and no hidden clock read can smuggle in wall-time dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .base import Task

__all__ = ["Clock", "Lease", "LeaseTable"]

#: The injectable time source (RPR013): monotonic seconds.  Production
#: passes ``time.monotonic`` by reference; tests pass a fake.
Clock = Callable[[], float]


@dataclass
class Lease:
    """One granted chunk: who holds it, what it covers, when it last spoke."""

    lease_id: int
    worker_id: str
    tasks: Tuple[Task, ...]
    granted_at_s: float
    last_beat_s: float


class LeaseTable:
    """Active and retired leases of one batch, with heartbeat expiry.

    ``timeout_s`` is the heartbeat budget: a lease whose ``last_beat_s``
    is older than this (by the injected clock) is expired by the next
    :meth:`expired` sweep; ``None`` means leases never expire (the
    worker's loss is reported some other way).  Retired leases (expired,
    released, or completed) stay addressable so late results can be
    matched to their tasks and routed through the idempotent commit
    gate.
    """

    def __init__(self, timeout_s: Optional[float], clock: Clock) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("lease timeout_s must be positive")
        self.timeout_s = timeout_s
        self._clock = clock
        self._active: Dict[int, Lease] = {}
        self._retired: Dict[int, Lease] = {}

    # -- granting / liveness -----------------------------------------
    def grant(self, lease_id: int, worker_id: str,
              tasks: Sequence[Task]) -> Lease:
        if lease_id in self._active or lease_id in self._retired:
            raise ValueError(f"lease id {lease_id} already used")
        now = self._clock()
        lease = Lease(lease_id, worker_id, tuple(tasks), now, now)
        self._active[lease_id] = lease
        return lease

    def heartbeat(self, lease_id: int) -> bool:
        """Refresh every active lease of ``lease_id``'s worker: it spoke,
        so it is alive.  False if the lease is no longer active (the beat
        arrived after expiry — the worker is stale)."""
        lease = self._active.get(lease_id)
        if lease is None:
            return False
        now = self._clock()
        for held in self._active.values():
            if held.worker_id == lease.worker_id:
                held.last_beat_s = now
        return True

    # -- retirement ---------------------------------------------------
    def complete(self, lease_id: int) -> Tuple[Optional[Lease], bool]:
        """Look up a result's lease: ``(lease, was_active)``.

        An active lease is retired (normal completion).  A retired lease
        is returned with ``was_active=False`` — the stale-delivery path.
        Unknown ids (e.g. leftovers from a previous batch) return
        ``(None, False)``.
        """
        lease = self._active.pop(lease_id, None)
        if lease is not None:
            self._retired[lease_id] = lease
            return lease, True
        return self._retired.get(lease_id), False

    def expired(self) -> List[Lease]:
        """Pop every active lease whose heartbeat budget ran out."""
        if self.timeout_s is None:
            return []
        now = self._clock()
        return self._retire([lease for lease in self._active.values()
                             if now - lease.last_beat_s > self.timeout_s])

    def release_worker(self, worker_id: str) -> List[Lease]:
        """Pop every active lease held by ``worker_id`` (it was lost)."""
        return self._retire([lease for lease in self._active.values()
                             if lease.worker_id == worker_id])

    def release_all(self) -> List[Lease]:
        """Pop every active lease (fleet retirement / fallback path)."""
        return self._retire(list(self._active.values()))

    def _retire(self, leases: List[Lease]) -> List[Lease]:
        for lease in leases:
            self._retired[lease.lease_id] = self._active.pop(lease.lease_id)
        return leases

    # -- inspection ---------------------------------------------------
    def active(self) -> int:
        return len(self._active)

    def held(self, worker_id: str) -> int:
        """Active leases held by ``worker_id``."""
        return sum(1 for lease in self._active.values()
                   if lease.worker_id == worker_id)

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-ready view of the active leases (``repro sweep status``)."""
        now = self._clock()
        return [
            {
                "lease": lease.lease_id,
                "worker": lease.worker_id,
                "tasks": [index for index, _ in lease.tasks],
                "age_s": round(now - lease.granted_at_s, 3),
                "beat_age_s": round(now - lease.last_beat_s, 3),
            }
            for lease in sorted(self._active.values(),
                                key=lambda lease: lease.lease_id)
        ]
