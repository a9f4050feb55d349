"""Analytic packet execution-time model (the paper's Section 3.2).

The model interpolates the measured execution-time bounds by the fraction
of the protocol footprint displaced from each cache level — the
Squillante-Lazowska ``D + R*C`` reload-transient form, applied per level
(the paper: "task execution time as the linear interpolation of the
maximum reload transient is also the approach taken in [24]"; "the impact
of the non-protocol workload is captured by scaling these bounds by the
fraction of the protocol footprint found at each corresponding layer in
the cache hierarchy"):

.. math::

    t(x) = t_{warm} + F_1(x)\\,(t_{L2} - t_{warm}) + F_2(x)\\,(t_{cold} - t_{L2})

where ``F1``/``F2`` come from :class:`repro.cache.CacheHierarchy` driven by
the intervening displacing reference count.

On top of the single-footprint form, the model decomposes the footprint
into components (:class:`repro.core.params.FootprintComposition`) whose
cache states evolve independently — protocol code+globals, per-stream
state, per-thread stack — because different scheduling policies preserve
affinity for different components.  Each component contributes its weight
times the per-level transients, driven by *its own* intervening reference
count on the serving processor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..cache.hierarchy import CacheHierarchy
from .params import FootprintComposition, ProtocolCosts

__all__ = ["ComponentState", "ExecutionTimeModel", "COLD"]

#: Sentinel intervening-reference count meaning "never resident here".
COLD: float = math.inf


@dataclass(frozen=True)
class ComponentState:
    """Cache-state inputs for one packet execution on one processor.

    Each field is the number of displacing memory references issued on the
    serving processor since the corresponding footprint component last
    executed there; ``COLD`` (infinity) means the component was never
    resident.  ``shared_invalidated`` marks that another processor has
    executed protocol code since this one last did, so the writable shared
    portion of the code+globals component has migrated away (Locking
    only).
    """

    code_refs: float = COLD
    stream_refs: float = COLD
    thread_refs: float = COLD
    shared_invalidated: bool = False

    def __post_init__(self) -> None:
        for name in ("code_refs", "stream_refs", "thread_refs"):
            v = getattr(self, name)
            if not (v >= 0.0):  # also rejects NaN
                raise ValueError(f"{name} must be >= 0 or COLD, got {v!r}")


class ExecutionTimeModel:
    """Maps cache state to packet execution time.

    Parameters
    ----------
    costs:
        Measured execution-time bounds and per-packet overheads.
    composition:
        Footprint component weights.
    hierarchy:
        Two-level (or deeper) cache hierarchy; only the first two levels
        participate in the interpolation (matching the paper's platform) —
        deeper levels would require additional measured bounds.
    memoize:
        Enable the bounded reload-penalty cache behind
        :meth:`component_penalty_us`.  The simulator's hot path presents
        a tiny set of recurring *discrete* component states — fully-warm
        (``refs == 0``), fully-cold (``COLD``), and the shared-writable
        invalidation flag — mixed with continuously-valued intervening
        reference counts that essentially never repeat exactly.  The
        fast path therefore resolves the discrete states analytically
        (no flush math at all), reuses one component's penalty for any
        other component with the *same* reference count (back-to-back
        service makes ``code``/``thread``/``stream`` counts coincide
        constantly), and caches the remaining per-count penalties in a
        bounded exact-keyed table (cleared wholesale when full).  Every
        path reproduces the generic computation's float results bit for
        bit; :meth:`stats` reports the hit-rate counters.
    """

    #: Bound on the per-reference-count penalty cache (float -> float);
    #: cleared wholesale when full, so even the worst case costs a few MB.
    _PENALTY_CACHE_MAX = 65_536

    def __init__(
        self,
        costs: ProtocolCosts,
        composition: FootprintComposition,
        hierarchy: CacheHierarchy,
        *,
        memoize: bool = True,
    ) -> None:
        if hierarchy.n_levels < 2:
            raise ValueError(
                "the execution-time model needs a two-level hierarchy "
                "(t_warm / t_l2 / t_cold bounds)"
            )
        self.costs = costs
        self.composition = composition
        self.hierarchy = hierarchy
        self._delta1 = costs.l1_reload_us
        self._delta2 = costs.l2_reload_us
        #: Reload penalty of a fully-cold component: bit-identical to
        #: ``reload_penalty(COLD)`` because ``1.0 * d == d`` exactly.
        self._pen_cold = self._delta1 + self._delta2
        # Hot-path constants hoisted out of per-packet attribute chains.
        self._w_code = composition.code_global
        self._w_stream = composition.stream_state
        self._w_thread = composition.thread_stack
        self._w_shared = composition.shared_writable_of_code
        self._t_warm = costs.t_warm_us
        self._dispatch_us = costs.dispatch_us
        self._lock_oh = costs.lock_overhead_us
        self._penalty_cache: Optional[Dict[float, float]] = (
            {} if memoize else None
        )
        # Fast-path hit-rate counters — the minimal independent set; the
        # remaining stats() figures (calls, dedup hits, component evals)
        # are derived, keeping the per-packet path to one increment plus
        # one per _pen1 outcome.
        self._n_fast_calls = 0
        self._n_slow_calls = 0
        self._n_analytic_hits = 0
        self._n_cache_hits = 0
        self._n_flush_computes = 0
        # Precomputed per-level constants for the scalar fast path used by
        # the simulator (millions of per-packet evaluations; the generic
        # NumPy path costs ~50x more on scalars).  Only direct-mapped
        # levels qualify; higher associativity falls back to the exact
        # vectorized path.
        fp = hierarchy.footprint_fn
        self._scalar_levels = []
        for lv in hierarchy.levels[:2]:
            log_L = math.log10(lv.line_bytes)
            self._scalar_levels.append({
                "split": lv.split_fraction,
                "c0": math.log10(fp.W) + fp.a * log_L,       # log10 u at R=1
                "slope": fp.b + fp.log10_d * log_L,          # d log10 u / d log10 R
                "u1": 10.0 ** (math.log10(fp.W) + fp.a * log_L),
                "log1m_p": math.log1p(-1.0 / lv.n_sets),
                "direct_mapped": lv.associativity == 1,
                "index": len(self._scalar_levels),
            })
        self._all_direct_mapped = all(
            p["direct_mapped"] for p in self._scalar_levels
        )
        # Unpacked level constants for the inlined two-level fast path
        # (``None`` doubles as the "not all direct-mapped" flag in _pen1).
        if self._all_direct_mapped:
            p0, p1 = self._scalar_levels
            self._fast_l1 = (p0["split"], p0["c0"], p0["slope"],
                             p0["u1"], p0["log1m_p"])
            self._fast_l2 = (p1["split"], p1["c0"], p1["slope"],
                             p1["u1"], p1["log1m_p"])
        else:
            self._fast_l1 = None
            self._fast_l2 = None

    def _flush_scalar(self, refs: float, level: int) -> float:
        """Scalar ``F_level`` (exact same math as the vectorized path)."""
        p = self._scalar_levels[level]
        if not p["direct_mapped"]:
            return float(self.hierarchy.flush_fraction_for_references(refs, level))
        if refs <= 0.0:
            return 0.0
        if math.isinf(refs):
            return 1.0
        r = refs * p["split"]
        if r < 1.0:
            u = r * p["u1"]
        else:
            u = 10.0 ** (p["c0"] + p["slope"] * math.log10(r))
        if u > r:
            u = r
        f = -math.expm1(u * p["log1m_p"])
        return 1.0 if f > 1.0 else (0.0 if f < 0.0 else f)

    # ------------------------------------------------------------------
    # Single-footprint form: the t(x) curve (experiment E05)
    # ------------------------------------------------------------------
    def flush_fractions(self, intervening_refs):
        """``(F1, F2)`` for a displacing reference count (scalar or array)."""
        if isinstance(intervening_refs, float):
            return (
                self._flush_scalar(intervening_refs, 0),
                self._flush_scalar(intervening_refs, 1),
            )
        refs = np.asarray(intervening_refs, dtype=np.float64)
        finite = np.isfinite(refs)
        safe = np.where(finite, refs, 0.0)
        f1 = np.asarray(self.hierarchy.flush_fraction_for_references(safe, 0))
        f2 = np.asarray(self.hierarchy.flush_fraction_for_references(safe, 1))
        f1 = np.where(finite, f1, 1.0)
        f2 = np.where(finite, f2, 1.0)
        if np.ndim(intervening_refs) == 0:
            return float(f1), float(f2)
        return f1, f2

    def reload_penalty(self, intervening_refs):
        """Reload transient ``F1*Δ1 + F2*Δ2`` (µs) for a whole footprint."""
        f1, f2 = self.flush_fractions(intervening_refs)
        return f1 * self._delta1 + f2 * self._delta2

    def execution_time_after_idle(self, idle_us, intensity: float = 1.0):
        """The paper's ``t(x)``: execution time after ``x`` µs of
        intervening non-protocol activity at intensity ``V`` displaced a
        previously fully-warm footprint.

        Accepts scalars or arrays of ``idle_us``.  ``t(0) = t_warm`` and
        ``t(x) -> t_cold`` as ``x -> inf`` (for ``V > 0``).
        """
        refs = self.hierarchy.references_for_time(idle_us, intensity)
        return self.costs.t_warm_us + self.reload_penalty(refs)

    # ------------------------------------------------------------------
    # Component-decomposed form used by the simulator
    # ------------------------------------------------------------------
    def component_penalty_us(self, state: ComponentState) -> float:
        """Total reload transient (µs) given per-component cache state.

        When the model was built with ``memoize=True`` (the default) and
        every reference count is a plain ``float``, the scalar fast path
        resolves the penalty via analytic discrete states, intra-state
        deduplication, and the bounded per-count cache; otherwise it falls
        back to the generic computation.  Both paths return bit-identical
        floats (see the class docstring).
        """
        code = state.code_refs
        if (
            self._penalty_cache is not None
            and type(code) is float
            and type(state.stream_refs) is float
            and type(state.thread_refs) is float
        ):
            return self._penalty_scalar(
                code, state.stream_refs, state.thread_refs,
                state.shared_invalidated,
            )
        self._n_slow_calls += 1
        return self._component_penalty_uncached(state)

    def _pen1(self, refs: float) -> float:
        """Reload penalty of one component (``F1*Δ1 + F2*Δ2``), fast.

        The analytic branches reproduce the generic expression exactly:
        ``refs == 0`` gives ``0.0*Δ1 + 0.0*Δ2 == 0.0`` and ``COLD`` gives
        ``1.0*Δ1 + 1.0*Δ2 == Δ1 + Δ2`` bit for bit, so skipping the flush
        math cannot change a result.  Remaining counts go through a
        bounded cache keyed on the *exact* float (the exactness guard: a
        key can only ever map to the value the uncached path computes for
        it), cleared wholesale at :attr:`_PENALTY_CACHE_MAX` entries.

        Only ever called from :meth:`_penalty_scalar`, which runs only
        when the model memoizes — so ``self._penalty_cache`` is a dict.
        """
        l1 = self._fast_l1  # None unless both levels are direct-mapped
        if l1 is not None:
            if refs == 0.0:
                self._n_analytic_hits += 1
                return 0.0
            if refs == COLD:
                self._n_analytic_hits += 1
                return self._pen_cold
        cache = self._penalty_cache
        hit = cache.get(refs)
        if hit is not None:
            self._n_cache_hits += 1
            return hit
        self._n_flush_computes += 1
        if l1 is not None:
            # Inlined _flush_scalar for both levels (refs is finite and
            # positive here — the analytic branches caught 0 and COLD):
            # identical operations on identical constants, so identical
            # floats, without two calls and a dozen dict lookups.
            split, c0, slope, u1, log1m_p = l1
            r = refs * split
            if r < 1.0:
                u = r * u1
            else:
                u = 10.0 ** (c0 + slope * math.log10(r))
            if u > r:
                u = r
            f = -math.expm1(u * log1m_p)
            f1 = 1.0 if f > 1.0 else (0.0 if f < 0.0 else f)
            split, c0, slope, u1, log1m_p = self._fast_l2
            r = refs * split
            if r < 1.0:
                u = r * u1
            else:
                u = 10.0 ** (c0 + slope * math.log10(r))
            if u > r:
                u = r
            f = -math.expm1(u * log1m_p)
            f2 = 1.0 if f > 1.0 else (0.0 if f < 0.0 else f)
            value = f1 * self._delta1 + f2 * self._delta2
        else:
            value = (
                self._flush_scalar(refs, 0) * self._delta1
                + self._flush_scalar(refs, 1) * self._delta2
            )
        if len(cache) >= self._PENALTY_CACHE_MAX:
            cache.clear()
        cache[refs] = value
        return value

    def _penalty_scalar(self, code: float, stream: float, thread: float,
                        shared_invalidated: bool) -> float:
        """Scalar fast-path component penalty (bit-identical).

        Back-to-back service under affinity policies makes the three
        reference counts coincide constantly, so equal counts reuse one
        computed penalty (equal inputs give equal outputs — the penalty is
        a pure function of the count).
        """
        self._n_fast_calls += 1
        pen_code_resident = self._pen1(code)
        if stream == code:
            pen_stream = pen_code_resident
        else:
            pen_stream = self._pen1(stream)
        if thread == code:
            pen_thread = pen_code_resident
        elif thread == stream:
            pen_thread = pen_stream
        else:
            pen_thread = self._pen1(thread)
        if shared_invalidated:
            w_shared = self._w_shared
            pen_code = (
                w_shared * self._pen_cold
                + (1.0 - w_shared) * pen_code_resident
            )
        else:
            pen_code = pen_code_resident
        return (
            self._w_code * pen_code
            + self._w_stream * pen_stream
            + self._w_thread * pen_thread
        )

    def _component_penalty_uncached(self, state: ComponentState) -> float:
        comp = self.composition
        pen_stream = self.reload_penalty(state.stream_refs)
        pen_thread = self.reload_penalty(state.thread_refs)
        # Code+globals: optionally split into a migrating writable part
        # (cold whenever another processor ran protocol since) and the
        # read-only remainder (displaced only by intervening references).
        pen_code_resident = self.reload_penalty(state.code_refs)
        if state.shared_invalidated:
            w_shared = comp.shared_writable_of_code
            pen_code = (
                w_shared * (self._delta1 + self._delta2)
                + (1.0 - w_shared) * pen_code_resident
            )
        else:
            pen_code = pen_code_resident
        return (
            comp.code_global * pen_code
            + comp.stream_state * pen_stream
            + comp.thread_stack * pen_thread
        )

    def execution_time_us(
        self,
        state: ComponentState,
        *,
        penalty_us: Optional[float] = None,
        payload_bytes: float = 0.0,
        data_touching: bool = False,
        locking: bool = False,
        extra_us: float = 0.0,
    ) -> float:
        """Full per-packet processing time (µs).

        ``t_warm`` + component reload transients + dispatch overhead
        (+ lock acquire/release under Locking)
        (+ per-byte data-touching time when enabled — the paper's default
        results exclude it, "motivated by the fact that in many real
        environments packet processing time is dominated by non-data
        touching operations")
        (+ ``extra_us``, the paper's ``V``: a fixed cache-independent
        per-packet overhead; the V-family curves of Figures 10/11 sweep
        it, and checksumming a maximal FDDI payload corresponds to
        V ≈ 139 µs at the quoted 32 B/µs rate).

        Callers that already hold the state's reload penalty (trace
        attribution, the batch paths) pass it via ``penalty_us`` so it is
        not recomputed here; ``None`` (the default) computes it from
        ``state``.
        """
        if extra_us < 0:
            raise ValueError("extra_us must be non-negative")
        if penalty_us is None:
            penalty_us = self.component_penalty_us(state)
        t = (
            self.costs.t_warm_us
            + penalty_us
            + self.costs.dispatch_us
            + extra_us
        )
        if locking:
            t += self.costs.lock_overhead_us
        if data_touching:
            t += self.costs.data_touching_us(payload_bytes)
        return t

    def execution_time_scalar(
        self,
        code_refs: float,
        stream_refs: float,
        thread_refs: float,
        shared_invalidated: bool,
        *,
        payload_bytes: float = 0.0,
        data_touching: bool = False,
        locking: bool = False,
        extra_us: float = 0.0,
    ) -> float:
        """Hot-path :meth:`execution_time_us` taking raw reference counts.

        The dispatchers call this once per packet; skipping the
        :class:`ComponentState` dataclass (validation + hashing) and using
        the scalar penalty fast path is worth ~2 µs of host time per
        simulated packet.  The arithmetic replicates
        :meth:`execution_time_us` term for term, so results are
        bit-identical.
        """
        if extra_us < 0:
            raise ValueError("extra_us must be non-negative")
        if self._penalty_cache is not None:
            # Inlined _penalty_scalar (this is the once-per-packet call of
            # the whole simulation; one saved frame is measurable).  Same
            # statements, same counters, bit-identical result.
            self._n_fast_calls += 1
            pen_code_resident = self._pen1(code_refs)
            if stream_refs == code_refs:
                pen_stream = pen_code_resident
            else:
                pen_stream = self._pen1(stream_refs)
            if thread_refs == code_refs:
                pen_thread = pen_code_resident
            elif thread_refs == stream_refs:
                pen_thread = pen_stream
            else:
                pen_thread = self._pen1(thread_refs)
            if shared_invalidated:
                w_shared = self._w_shared
                pen_code = (
                    w_shared * self._pen_cold
                    + (1.0 - w_shared) * pen_code_resident
                )
            else:
                pen_code = pen_code_resident
            penalty = (
                self._w_code * pen_code
                + self._w_stream * pen_stream
                + self._w_thread * pen_thread
            )
        else:
            self._n_slow_calls += 1
            penalty = self._component_penalty_uncached(ComponentState(
                code_refs=code_refs,
                stream_refs=stream_refs,
                thread_refs=thread_refs,
                shared_invalidated=shared_invalidated,
            ))
        t = self._t_warm + penalty + self._dispatch_us + extra_us
        if locking:
            t += self._lock_oh
        if data_touching:
            t += self.costs.data_touching_us(payload_bytes)
        return t

    def stats(self) -> Dict[str, float]:
        """Fast-path hit-rate counters.

        ``hit_rate`` is the fraction of penalty evaluations resolved
        entirely on the scalar fast path (analytic states, intra-state
        deduplication, or the bounded count cache — never the generic
        NumPy fallback); the acceptance gate for the hot-path overhaul is
        ``hit_rate >= 0.90`` on the default workload.
        ``component_reuse_rate`` is the stricter per-component view: the
        fraction of the ``3 × calls`` component evaluations that avoided
        the transcendental flush math outright.

        Only five counters are maintained on the hot path; the rest are
        identities: every fast call evaluates exactly three components,
        each resolved by analytic state, cache hit, or flush compute
        (once per distinct count — the ``_pen1`` calls) or by intra-state
        deduplication (the remainder).
        """
        fast = self._n_fast_calls
        calls = fast + self._n_slow_calls
        evals = 3 * fast
        pen1_calls = (
            self._n_analytic_hits + self._n_cache_hits + self._n_flush_computes
        )
        dedup = evals - pen1_calls
        reused = self._n_analytic_hits + dedup + self._n_cache_hits
        cache = self._penalty_cache
        return {
            "calls": calls,
            "fast_calls": fast,
            "hit_rate": (fast / calls) if calls else 0.0,
            "component_evals": evals,
            "analytic_hits": self._n_analytic_hits,
            "dedup_hits": dedup,
            "cache_hits": self._n_cache_hits,
            "flush_computes": self._n_flush_computes,
            "component_reuse_rate": (reused / evals) if evals else 0.0,
            "cache_size": len(cache) if cache is not None else 0,
        }

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def warm_service_us(self, *, locking: bool = False) -> float:
        """Best-case service time (all components warm)."""
        return self.execution_time_us(
            ComponentState(code_refs=0.0, stream_refs=0.0, thread_refs=0.0),
            locking=locking,
        )

    def cold_service_us(self, *, locking: bool = False) -> float:
        """Worst-case service time (all components cold)."""
        return self.execution_time_us(ComponentState(), locking=locking)

    def utilization_bound_rate(self, *, locking: bool, n_processors: int) -> float:
        """Crude aggregate capacity bound (packets/µs).

        The minimum of the CPU bound ``N / t_warm_service`` and — under
        Locking — the critical-section bound ``1 / lock_cs``.  Used by the
        capacity-search experiment to bracket its bisection.
        """
        best = self.warm_service_us(locking=locking)
        rate = n_processors / best
        if locking and self.costs.lock_cs_us > 0:
            rate = min(rate, 1.0 / self.costs.lock_cs_us)
        return rate

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        c = self.costs
        return (
            f"ExecutionTimeModel(t_warm={c.t_warm_us:.1f}us, "
            f"t_l2={c.t_l2_us:.1f}us, t_cold={c.t_cold_us:.1f}us, "
            f"max_benefit={c.max_affinity_benefit:.1%})"
        )
