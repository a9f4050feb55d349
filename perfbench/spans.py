"""In-memory span recorder that wraps the program's layer entry points.

Nothing here edits the program: :class:`Tracer.install` replaces a few
public methods with timing wrappers for the duration of a traced body and
:class:`Tracer.uninstall` puts the originals back.  Spans are kept in
memory as ``(name, start, end, parent)`` tuples and written out once, at
the end of the run (:meth:`Tracer.dump`).

Only the benchmark process records.  Warm sweep workers are forked and
inherit the wrappers, so every wrapper checks the process id and calls
straight through in a worker.
"""

from __future__ import annotations

import functools
import json
import os
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Fallback reasons of ``repro.sim.batch.unsupported_reason`` mapped to the
#: short names used in metric names (``sim.fallback.<name>.*``).  Policy
#: and arrival-spec reasons carry their own name; anything else not listed
#: here is counted under ``other``.
FALLBACK_NAMES = (
    "wired-streams", "pools", "ips-random", "work-steal", "hybrid",
    "BatchPoissonSpec", "PacketTrainSpec", "layered-locks", "other",
)

#: Span names that belong to a program layer (the rest, such as
#: ``experiments.<eid>``, are the benchmark's own containers).
LAYER_PREFIXES = ("sim.", "runner.", "workloads.")


def fallback_name(reason: str) -> str:
    """Short metric name for one ``unsupported_reason`` string."""
    if reason.startswith("layered locks"):
        return "layered-locks"
    if "'" in reason:                       # "... policy 'wired-streams' is not fused"
        name = reason.split("'")[1]
    elif reason.startswith("arrival spec "):
        name = reason.split()[2]
    else:
        return "other"
    return name if name in FALLBACK_NAMES else "other"


class Tracer:
    """Span stack plus counters for one traced body."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: One record per span: [name, start, end, parent, is_layer, is_top].
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._layer_depth = 0
        self.top_level_s = 0.0
        self._patches: List[Tuple[Any, str, Any]] = []
        self._model_seen: "weakref.WeakKeyDictionary[Any, Dict[str, float]]" = \
            weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        layer = name.startswith(LAYER_PREFIXES)
        top = layer and self._layer_depth == 0
        if layer:
            self._layer_depth += 1
        self.spans.append([name, time.perf_counter(), 0.0, parent, layer, top])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        self._stack.pop()
        if rec[4]:
            self._layer_depth -= 1
        if rec[5]:
            self.top_level_s += rec[2] - rec[1]
        return rec[2] - rec[1]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def mine(self) -> bool:
        return os.getpid() == self.pid

    # -- aggregation ---------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``busy_s`` and ``self_s``."""
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent, _layer, _top in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, _parent, _layer, _top) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["busy_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_s[i]
        return out

    def dump(self, path: str) -> None:
        """Write every span (name, start, end, parent index) as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": [r[:4] for r in self.spans],
                       "counters": dict(self.counters)}, fh)

    # -- wrappers ------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_span(self, owner: Any, attr: str, name: str,
                   reentrant: bool = True) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            if not tracer.mine() or (not reentrant and tracer._inside(name)):
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        self._patch(owner, attr, wrapped)

    def _inside(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from repro import ResultCache
        from repro.runner import checkpoint, runner
        from repro.runner.backends.serial import SerialBackend
        from repro.runner.backends.warm import WarmBackend
        from repro.sim.metrics import MetricsCollector
        from repro.sim.system import NetworkProcessingSystem
        from repro.workloads.arrivals import ArrivalProcess

        self._wrap_span(runner.SweepRunner, "run_many", "runner.run_many")
        self._wrap_span(runner, "config_key", "runner.keys")
        self._wrap_cache_get(ResultCache)
        self._wrap_span(ResultCache, "put", "runner.cache.put")
        self._wrap_span(checkpoint.CheckpointJournal, "record",
                        "runner.checkpoint.record")
        for backend in (SerialBackend, WarmBackend):
            self._wrap_span(backend, "run_batch", "runner.backends.run_batch")
        self._wrap_span(NetworkProcessingSystem, "__init__", "sim.system.build")
        self._wrap_system_run(NetworkProcessingSystem)
        self._wrap_span(MetricsCollector, "summarize", "sim.metrics.summarize")
        pending = [ArrivalProcess]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for attr in ("next_batches", "next_batches_array"):
                if attr in cls.__dict__:
                    self._wrap_span(cls, attr, "workloads.arrivals",
                                    reentrant=False)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_cache_get(self, cls: type) -> None:
        fn = cls.get
        tracer = self

        @functools.wraps(fn)
        def get(cache: Any, key: str) -> Any:
            if not tracer.mine():
                return fn(cache, key)
            idx = tracer.open("runner.cache.get")
            try:
                found = fn(cache, key)
            finally:
                tracer.close(idx)
            if found is not None:
                tracer.counters["runner.cache.get.hits"] += 1
            return found

        self._patch(cls, "get", get)

    def _wrap_system_run(self, cls: type) -> None:
        """Classify each run with the public engine predicates, then time it
        as ``sim.batch`` (fused) or ``sim.engine`` (scalar, per reason)."""
        from repro.sim import batch

        fn = cls.run
        tracer = self

        @functools.wraps(fn)
        def run(system: Any) -> Any:
            if not tracer.mine():
                return fn(system)
            reason: Optional[str]
            if batch.engine_mode() == "scalar":
                reason = "scalar engine forced"
            else:
                reason = batch.unsupported_reason(system)
            idx = tracer.open("sim.batch" if reason is None else "sim.engine")
            try:
                summary = fn(system)
            finally:
                busy = tracer.close(idx)
            if reason is not None:
                slug = fallback_name(reason)
                tracer.counters[f"sim.fallback.{slug}.runs"] += 1
                tracer.counters[f"sim.fallback.{slug}.busy_s"] += busy
                tracer.counters["sim.engine.events"] += system.sim.events_processed
            tracer._note_model(system.model)
            return summary

        self._patch(cls, "run", run)

    def _note_model(self, model: Any) -> None:
        """Accumulate exec-model counter deltas (a model may be reused)."""
        stats = model.stats()
        before = self._model_seen.get(model, {})
        self._model_seen[model] = stats
        for key in ("calls", "fast_calls", "component_evals", "analytic_hits",
                    "dedup_hits", "cache_hits"):
            self.counters[f"core.exec_model.{key}"] += stats[key] - before.get(key, 0)

