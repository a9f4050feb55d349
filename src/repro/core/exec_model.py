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
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..cache.footprint import FootprintFunction
from ..cache.hierarchy import CacheHierarchy, CacheLevelConfig
from .params import FootprintComposition, ProtocolCosts

__all__ = ["ComponentState", "ExecutionTimeModel", "COLD"]

#: Sentinel intervening-reference count meaning "never resident here".
COLD: float = math.inf

#: Hoisted constants of one direct-mapped level for the scalar flush:
#: ``(split, c0, slope, u1, log1m_p)`` — ``log10 u(R)`` is
#: ``c0 + slope*log10 R`` for ``R >= 1`` and ``u(R) = R*u1`` below, and
#: ``log1m_p = log(1 - 1/n_sets)``.
_LevelConstants = Tuple[float, float, float, float, float]


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


def _level_constants(level: CacheLevelConfig,
                     fp: FootprintFunction) -> Optional[_LevelConstants]:
    """Hoisted scalar constants of one direct-mapped level (``None`` for a
    set-associative level, which :func:`_flush_scalar` hands to the
    binomial model)."""
    if level.associativity != 1:
        return None
    log_L = math.log10(level.line_bytes)
    c0 = math.log10(fp.W) + fp.a * log_L           # log10 u at R=1
    return (
        level.split_fraction,
        c0,
        fp.b + fp.log10_d * log_L,                 # d log10 u / d log10 R
        10.0 ** c0,                                # u at R=1
        math.log1p(-1.0 / level.n_sets),
    )


def _flush_scalar(refs: float, level: int, hierarchy: CacheHierarchy,
                 consts: Optional[_LevelConstants]) -> float:
    """Reference scalar ``F_level`` (the same math as the vectorized
    path): 0 for a warm count and 1 for ``COLD`` on every level, the
    direct-mapped closed form over ``consts``, else the binomial model."""
    if refs <= 0.0:
        return 0.0
    if refs == COLD:
        return 1.0
    if consts is None:
        return float(hierarchy.flush_fraction_for_references(refs, level))
    split, c0, slope, u1, log1m_p = consts
    r = refs * split
    if r < 1.0:
        u = r * u1
    else:
        u = 10.0 ** (c0 + slope * math.log10(r))
    if u > r:
        u = r
    f = -math.expm1(u * log1m_p)
    return 1.0 if f > 1.0 else (0.0 if f < 0.0 else f)


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

    The simulator's hot path presents a tiny set of recurring *discrete*
    component states — fully-warm (``refs == 0``), fully-cold (``COLD``),
    and the shared-writable invalidation flag — mixed with
    continuously-valued intervening reference counts that essentially
    never repeat exactly.  :meth:`component_penalty_us` therefore
    resolves the discrete states analytically (no flush math at all),
    reuses one component's penalty for any other component with the
    *same* reference count (back-to-back service makes
    ``code``/``thread``/``stream`` counts coincide constantly), and keeps
    the remaining per-count penalties in a bounded exact-keyed memo
    (cleared wholesale when full), filled by the one flush kernel of
    :meth:`penalty_fill`.  Every path reproduces the reference
    computation (:meth:`_component_penalty_uncached`) bit for bit;
    :meth:`stats` reports the hit-rate counters.
    """

    #: Bound on the per-reference-count penalty memo (float -> float);
    #: cleared wholesale when full, so even the worst case costs a few MB.
    #: May be overridden per instance (see :meth:`penalty_fill`).
    _PENALTY_CACHE_MAX = 65_536

    def __init__(
        self,
        costs: ProtocolCosts,
        composition: FootprintComposition,
        hierarchy: CacheHierarchy,
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
        self._penalty_cache: Dict[float, float] = {}
        #: ``(bound, kernel)``: the memo-miss kernel of :meth:`penalty_fill`
        #: and the memo bound it was built with.
        self._fill: Optional[Tuple[int, Callable[[float], float]]] = None
        # Fast-path hit-rate counters — the minimal independent set; the
        # remaining stats() figures (dedup hits, component evals) are
        # derived, keeping the per-packet path to one increment plus one
        # per _pen1 outcome.
        self._n_fast_calls = 0
        self._n_analytic_hits = 0
        self._n_cache_hits = 0
        self._n_flush_computes = 0
        # Per-level scalar constants (the generic NumPy path costs ~50x
        # more on scalars than the closed form over these).
        fp = hierarchy.footprint_fn
        self._levels = (_level_constants(hierarchy.levels[0], fp),
                        _level_constants(hierarchy.levels[1], fp))

    def __getstate__(self) -> Dict[str, object]:
        # The kernel is a closure (unpicklable); a copy rebuilds it over
        # its own memo on first use.
        state = self.__dict__.copy()
        state["_fill"] = None
        return state

    # ------------------------------------------------------------------
    # Single-footprint form: the t(x) curve (experiment E05)
    # ------------------------------------------------------------------
    def flush_fractions(self, intervening_refs):
        """``(F1, F2)`` for a displacing reference count (scalar or array)."""
        if isinstance(intervening_refs, float):
            h, (l1, l2) = self.hierarchy, self._levels
            return (_flush_scalar(intervening_refs, 0, h, l1),
                    _flush_scalar(intervening_refs, 1, h, l2))
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

        Resolved on the fast path (analytic discrete states, intra-state
        deduplication, the bounded per-count memo); bit-identical to
        :meth:`_component_penalty_uncached` (see the class docstring).
        """
        return self._penalty_scalar(
            state.code_refs, state.stream_refs, state.thread_refs,
            state.shared_invalidated,
        )

    def penalty_fill(self) -> Callable[[float], float]:
        """The memo-miss kernel, the one fast two-level flush:
        ``fill(refs)`` stores the reload penalty ``F1*Δ1 + F2*Δ2`` of a
        finite, positive count in the bounded memo (cleared wholesale at
        :attr:`_PENALTY_CACHE_MAX` entries) and returns it.

        :meth:`_pen1` and the fused loop (:mod:`repro.sim.batch`) call
        it on a memo miss, after resolving ``0`` and ``COLD``.  A closure
        over hoisted locals (no attribute loads, no reference to the
        model), built on first use and rebuilt if the bound was
        overridden since.  With both levels direct-mapped it inlines
        :func:`_flush_scalar`'s closed form (identical operations on
        identical constants, so identical floats); otherwise it calls
        :func:`_flush_scalar` per level.
        """
        cache_max = self._PENALTY_CACHE_MAX
        built = self._fill
        if built is not None and built[0] == cache_max:
            return built[1]
        cache = self._penalty_cache
        delta1 = self._delta1
        delta2 = self._delta2
        l1, l2 = self._levels
        if l1 is None or l2 is None:
            hierarchy = self.hierarchy

            def fill(refs: float) -> float:
                value = (_flush_scalar(refs, 0, hierarchy, l1) * delta1
                         + _flush_scalar(refs, 1, hierarchy, l2) * delta2)
                if len(cache) >= cache_max:
                    cache.clear()
                cache[refs] = value
                return value
        else:
            split1, c01, slope1, u11, lp1 = l1
            split2, c02, slope2, u12, lp2 = l2
            log10 = math.log10
            expm1 = math.expm1

            def fill(refs: float) -> float:
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
        self._fill = (cache_max, fill)
        return fill

    def _pen1(self, refs: float) -> float:
        """Reload penalty of one component (``F1*Δ1 + F2*Δ2``), fast.

        The analytic branches reproduce the reference expression exactly
        on every hierarchy: ``refs == 0`` gives ``0.0*Δ1 + 0.0*Δ2 == 0.0``
        and ``COLD`` gives ``1.0*Δ1 + 1.0*Δ2 == Δ1 + Δ2`` bit for bit, so
        skipping the flush math cannot change a result.  Remaining counts
        go through the memo keyed on the *exact* float (the exactness
        guard: a key can only ever map to the value the kernel computes
        for it) and, on a miss, the kernel of :meth:`penalty_fill`.
        """
        if refs == 0.0:
            self._n_analytic_hits += 1
            return 0.0
        if refs == COLD:
            self._n_analytic_hits += 1
            return self._pen_cold
        hit = self._penalty_cache.get(refs)
        if hit is not None:
            self._n_cache_hits += 1
            return hit
        self._n_flush_computes += 1
        return self.penalty_fill()(refs)

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
        """Reference for :meth:`component_penalty_us`: no memo, no
        dedup, the flush of :meth:`reload_penalty` per component (the
        tests compare the fast path against it bit for bit)."""
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
        if penalty_us is None:
            penalty_us = self.component_penalty_us(state)
        return self._service_us(penalty_us, payload_bytes, data_touching,
                                locking, extra_us)

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

        The scalar engine's dispatchers call this once per packet;
        skipping the :class:`ComponentState` dataclass (validation +
        hashing) is worth ~2 µs of host time per simulated packet.
        """
        penalty = self._penalty_scalar(
            code_refs, stream_refs, thread_refs, shared_invalidated)
        return self._service_us(penalty, payload_bytes, data_touching,
                                locking, extra_us)

    def _service_us(self, penalty_us: float, payload_bytes: float,
                    data_touching: bool, locking: bool,
                    extra_us: float) -> float:
        """The service-time sum shared by both entry points (the fused
        loop inlines the same expression tree)."""
        if extra_us < 0:
            raise ValueError("extra_us must be non-negative")
        t = self._t_warm + penalty_us + self._dispatch_us + extra_us
        if locking:
            t += self._lock_oh
        if data_touching:
            t += self.costs.data_touching_us(payload_bytes)
        return t

    def stats(self) -> Dict[str, float]:
        """Fast-path hit-rate counters.

        Every call resolves on the fast path, so ``fast_calls == calls``
        and ``hit_rate`` is 1.0 once any call was made (both kept for the
        readers that report them).  ``component_reuse_rate`` is the
        per-component view: the fraction of the ``3 × calls`` component
        evaluations that avoided the transcendental flush math outright.

        Only four counters are maintained on the hot path; the rest are
        identities: every call evaluates exactly three components, each
        resolved by analytic state, memo hit, or flush compute (once per
        distinct count — the ``_pen1`` calls) or by intra-state
        deduplication (the remainder).
        """
        calls = self._n_fast_calls
        evals = 3 * calls
        pen1_calls = (
            self._n_analytic_hits + self._n_cache_hits + self._n_flush_computes
        )
        dedup = evals - pen1_calls
        reused = self._n_analytic_hits + dedup + self._n_cache_hits
        return {
            "calls": calls,
            "fast_calls": calls,
            "hit_rate": 1.0 if calls else 0.0,
            "component_evals": evals,
            "analytic_hits": self._n_analytic_hits,
            "dedup_hits": dedup,
            "cache_hits": self._n_cache_hits,
            "flush_computes": self._n_flush_computes,
            "component_reuse_rate": (reused / evals) if evals else 0.0,
            "cache_size": len(self._penalty_cache),
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
