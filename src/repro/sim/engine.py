"""Minimal deterministic discrete-event simulation engine.

A classic calendar-queue (binary heap) engine.  The calendar holds
``(time, seq, event)`` entries where ``event`` is a slotted
:class:`Event` record; ``seq`` is a monotonically increasing tie-breaker
so simultaneous events fire in scheduling order, making runs fully
deterministic for a given seed.  Because ``seq`` is unique, heap
comparisons never reach the record itself — entries order exactly as the
historical ``(time, seq, callback)`` tuples did.

Event records carry a *kind* tag plus a ``fn``/``arg`` pair and are
designed for reuse: the hot producers (per-stream arrival sources,
per-processor service completions) allocate one record up front and
re-push it for every occurrence, so steady-state operation allocates one
small tuple per event and zero closures.  The generic ``schedule``/``at``
API still accepts arbitrary zero-argument callbacks.

Time is a ``float`` in **microseconds** throughout the reproduction (the
unit of the paper's measured constants).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

__all__ = [
    "Event",
    "EVENT_CALL",
    "EVENT_ARRIVAL",
    "EVENT_COMPLETION",
    "EVENT_SESSION",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised on engine misuse (e.g. scheduling into the past)."""


#: Event kinds (observability tags; dispatch itself goes through the
#: record's bound ``fn``, so firing never branches on the kind).
EVENT_CALL: int = 0        #: generic zero-argument callback
EVENT_ARRIVAL: int = 1     #: packet-arrival batch for one stream source
EVENT_COMPLETION: int = 2  #: service completion on one processor
EVENT_SESSION: int = 3     #: session-churn event (open/close bookkeeping)

_EVENT_KIND_NAMES = {
    EVENT_CALL: "call",
    EVENT_ARRIVAL: "arrival",
    EVENT_COMPLETION: "completion",
    EVENT_SESSION: "session",
}


class Event:
    """Slotted, reusable event record.

    ``fn`` is invoked as ``fn(arg)`` when ``arg`` is not ``None`` and as
    ``fn()`` otherwise (the generic-callback convention).  Fast-path
    producers therefore must use a non-``None`` ``arg``.
    """

    __slots__ = ("kind", "fn", "arg")

    def __init__(self, kind: int, fn: Callable[..., None],
                 arg: Any = None) -> None:
        self.kind = kind
        self.fn = fn
        self.arg = arg

    def __repr__(self) -> str:
        name = _EVENT_KIND_NAMES.get(self.kind, str(self.kind))
        return f"Event(kind={name}, fn={getattr(self.fn, '__qualname__', self.fn)!r})"


class Simulator:
    """Event calendar and clock.

    Usage::

        sim = Simulator()
        sim.schedule(10.0, lambda: ...)      # absolute-time variant: sim.at
        sim.run_until(1_000_000.0)

    Generic callbacks receive no arguments; closures capture whatever
    context they need.  Hot paths avoid the closure by scheduling a
    reusable :class:`Event` record via :meth:`at_record` /
    :meth:`schedule_record` (or a one-off ``fn(arg)`` pair via
    :meth:`at_call`).  A callback may schedule further events freely.

    ``on_event``, when given, is invoked with the event time immediately
    before each callback fires — the observability hook the runtime
    invariant checker (:mod:`repro.verify.invariants`) uses to assert
    clock monotonicity.  The default ``None`` keeps the event loop free of
    any per-event work beyond a single pointer comparison.
    """

    def __init__(self,
                 on_event: Optional[Callable[[float], None]] = None) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._stopped: bool = False
        self._on_event = on_event

    @property
    def now(self) -> float:
        """Current simulation time (µs)."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still in the calendar."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_us: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay_us`` after the current time."""
        if math.isnan(delay_us):
            raise SimulationError(
                "cannot schedule with NaN delay (a cost or interarrival "
                "computation produced NaN)"
            )
        if delay_us < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay_us!r}")
        self.at(self._now + delay_us, callback)

    def at(self, time_us: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute simulation time."""
        self.at_record(time_us, Event(EVENT_CALL, callback))

    def schedule_call(self, delay_us: float, fn: Callable[[Any], None],
                      arg: Any) -> None:
        """Relative-time variant of :meth:`at_call`."""
        if math.isnan(delay_us):
            raise SimulationError(
                "cannot schedule with NaN delay (a cost or interarrival "
                "computation produced NaN)"
            )
        if delay_us < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay_us!r}")
        self.at_record(self._now + delay_us,
                       Event(EVENT_CALL, fn, arg))

    def at_call(self, time_us: float, fn: Callable[[Any], None],
                arg: Any) -> None:
        """Schedule ``fn(arg)`` at an absolute time (no closure needed)."""
        self.at_record(time_us, Event(EVENT_CALL, fn, arg))

    def schedule_record(self, delay_us: float, record: Event) -> None:
        """Schedule a (reusable) event record ``delay_us`` from now.

        The record is *not* copied: producers that re-push one record per
        logical entity (stream, processor) must guarantee at most one
        pending occurrence at a time.

        Self-contained (no :meth:`at_record` delegation): this runs once
        per service completion.  A non-negative delay from a finite clock
        can never land in the past, so only the NaN/negative checks are
        needed.
        """
        if delay_us != delay_us:  # NaN check without a function call
            raise SimulationError(
                "cannot schedule with NaN delay (a cost or interarrival "
                "computation produced NaN)"
            )
        if delay_us < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay_us!r}")
        heapq.heappush(self._heap, (self._now + delay_us, self._seq, record))
        self._seq += 1

    def at_record(self, time_us: float, record: Event) -> None:
        """Schedule a (reusable) event record at an absolute time."""
        if time_us != time_us:  # NaN check without a function call
            raise SimulationError(
                "cannot schedule at NaN time (a cost or interarrival "
                "computation produced NaN)"
            )
        if time_us < self._now:
            raise SimulationError(
                f"cannot schedule at {time_us!r} (now = {self._now!r}): "
                "time is in the past"
            )
        heapq.heappush(self._heap, (time_us, self._seq, record))
        self._seq += 1

    def stop(self) -> None:
        """Request that the run loop return after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event; returns ``False`` if the calendar is empty."""
        if not self._heap:
            return False
        time_us, _, record = heapq.heappop(self._heap)
        self._now = time_us
        self._events_processed += 1
        if self._on_event is not None:
            self._on_event(time_us)
        arg = record.arg
        if arg is None:
            record.fn()
        else:
            record.fn(arg)
        return True

    def run_until(self, end_time_us: float) -> None:
        """Run events with ``time <= end_time_us``; clock ends at that time.

        Events scheduled beyond the horizon remain in the calendar (so a
        run can be resumed), and the clock is advanced to exactly
        ``end_time_us`` on return.

        This is the simulation's innermost loop: the heap pop, dispatch
        and bookkeeping are inlined rather than delegated to
        :meth:`step` (one attribute-laden method call per event is
        measurable at millions of events per sweep).  Each event is popped
        eagerly — the first one past the horizon is pushed back (one extra
        sift per ``run_until`` call instead of a peek per event) — the
        observability branch is hoisted out of the loop, and
        ``events_processed`` is folded in once per call, not per event.
        """
        if end_time_us < self._now:
            raise SimulationError(
                f"end time {end_time_us!r} is before now ({self._now!r})"
            )
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        on_event = self._on_event
        fired = 0
        try:
            if on_event is None:
                while heap:
                    entry = heappop(heap)
                    time_us = entry[0]
                    if time_us > end_time_us:
                        heapq.heappush(heap, entry)
                        break
                    self._now = time_us
                    fired += 1
                    record = entry[2]
                    arg = record.arg
                    if arg is None:
                        record.fn()
                    else:
                        record.fn(arg)
                    if self._stopped:
                        return
            else:
                while heap:
                    entry = heappop(heap)
                    time_us = entry[0]
                    if time_us > end_time_us:
                        heapq.heappush(heap, entry)
                        break
                    self._now = time_us
                    fired += 1
                    on_event(time_us)
                    record = entry[2]
                    arg = record.arg
                    if arg is None:
                        record.fn()
                    else:
                        record.fn(arg)
                    if self._stopped:
                        return
        finally:
            self._events_processed += fired
        self._now = max(self._now, end_time_us)

    def run_to_completion(self, max_events: int = 50_000_000) -> None:
        """Drain the calendar entirely (bounded by ``max_events``)."""
        self._stopped = False
        for _ in range(max_events):
            if self._stopped or not self.step():
                return
        raise SimulationError(f"exceeded {max_events} events; likely runaway")
