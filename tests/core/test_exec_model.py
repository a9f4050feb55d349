"""Tests for the analytic packet execution-time model."""

import dataclasses
import math
import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.hierarchy import R4400_L1D, CacheHierarchy, sgi_challenge_hierarchy
from repro.core.exec_model import COLD, ComponentState, ExecutionTimeModel
from repro.core.params import PAPER_COMPOSITION, PAPER_COSTS, FootprintComposition


class TestBounds:
    def test_t_of_zero_is_t_warm(self, model):
        assert model.execution_time_after_idle(0.0) == pytest.approx(
            PAPER_COSTS.t_warm_us
        )

    def test_t_approaches_t_cold(self, model):
        t = model.execution_time_after_idle(1e9)  # ~17 minutes idle
        assert t == pytest.approx(PAPER_COSTS.t_cold_us, rel=1e-3)

    def test_monotone_in_idle_time(self, model):
        xs = np.logspace(0, 8, 40)
        ts = model.execution_time_after_idle(xs)
        assert np.all(np.diff(ts) >= -1e-9)

    def test_intensity_zero_stays_warm(self, model):
        assert model.execution_time_after_idle(1e9, intensity=0.0) == pytest.approx(
            PAPER_COSTS.t_warm_us
        )

    def test_lower_intensity_slower_decay(self, model):
        t_full = model.execution_time_after_idle(1e4, intensity=1.0)
        t_half = model.execution_time_after_idle(1e4, intensity=0.5)
        assert t_half < t_full

    def test_warm_and_cold_service(self, model):
        warm = model.warm_service_us()
        cold = model.cold_service_us()
        assert warm == pytest.approx(
            PAPER_COSTS.t_warm_us + PAPER_COSTS.dispatch_us
        )
        assert cold == pytest.approx(
            PAPER_COSTS.t_cold_us + PAPER_COSTS.dispatch_us
        )

    def test_locking_adds_lock_overhead(self, model):
        assert model.warm_service_us(locking=True) - model.warm_service_us() == (
            pytest.approx(PAPER_COSTS.lock_overhead_us)
        )

    def test_requires_two_levels(self):
        single = CacheHierarchy(levels=(R4400_L1D,))
        with pytest.raises(ValueError, match="two-level"):
            ExecutionTimeModel(PAPER_COSTS, PAPER_COMPOSITION, single)


class TestComponentState:
    def test_defaults_are_cold(self):
        s = ComponentState()
        assert s.code_refs is COLD and s.stream_refs is COLD

    def test_rejects_negative_refs(self):
        with pytest.raises(ValueError):
            ComponentState(code_refs=-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ComponentState(stream_refs=float("nan"))


class TestComponentPenalty:
    def test_all_warm_zero_penalty(self, model):
        s = ComponentState(code_refs=0.0, stream_refs=0.0, thread_refs=0.0)
        assert model.component_penalty_us(s) == pytest.approx(0.0)

    def test_all_cold_full_transient(self, model):
        pen = model.component_penalty_us(ComponentState())
        assert pen == pytest.approx(
            PAPER_COSTS.t_cold_us - PAPER_COSTS.t_warm_us
        )

    def test_single_cold_component_weighted(self, model):
        s = ComponentState(code_refs=0.0, stream_refs=COLD, thread_refs=0.0)
        expected = PAPER_COMPOSITION.stream_state * (
            PAPER_COSTS.t_cold_us - PAPER_COSTS.t_warm_us
        )
        assert model.component_penalty_us(s) == pytest.approx(expected)

    def test_shared_invalidation_penalty(self, model):
        warm = ComponentState(code_refs=0.0, stream_refs=0.0, thread_refs=0.0)
        inv = ComponentState(code_refs=0.0, stream_refs=0.0, thread_refs=0.0,
                             shared_invalidated=True)
        diff = model.component_penalty_us(inv) - model.component_penalty_us(warm)
        expected = (
            PAPER_COMPOSITION.code_global
            * PAPER_COMPOSITION.shared_writable_of_code
            * (PAPER_COSTS.t_cold_us - PAPER_COSTS.t_warm_us)
        )
        assert diff == pytest.approx(expected)

    def test_invalidation_irrelevant_when_code_cold(self, model):
        cold = ComponentState()
        cold_inv = ComponentState(shared_invalidated=True)
        assert model.component_penalty_us(cold) == pytest.approx(
            model.component_penalty_us(cold_inv)
        )

    def test_penalty_monotone_in_refs(self, model):
        pens = [
            model.component_penalty_us(
                ComponentState(code_refs=r, stream_refs=r, thread_refs=r)
            )
            for r in (0.0, 100.0, 10_000.0, 1e6, COLD)
        ]
        assert pens == sorted(pens)


class TestExecutionTime:
    def test_extra_us_added_verbatim(self, model):
        s = ComponentState(code_refs=0.0, stream_refs=0.0, thread_refs=0.0)
        base = model.execution_time_us(s)
        assert model.execution_time_us(s, extra_us=139.0) == pytest.approx(base + 139.0)

    def test_extra_us_rejects_negative(self, model):
        with pytest.raises(ValueError):
            model.execution_time_us(ComponentState(), extra_us=-1.0)

    def test_data_touching_scales_with_payload(self, model):
        s = ComponentState(code_refs=0.0, stream_refs=0.0, thread_refs=0.0)
        base = model.execution_time_us(s, payload_bytes=4432, data_touching=False)
        touched = model.execution_time_us(s, payload_bytes=4432, data_touching=True)
        assert touched - base == pytest.approx(4432 / 32.0)

    def test_utilization_bound_locking_capped_by_cs(self, model):
        unlocked = model.utilization_bound_rate(locking=False, n_processors=64)
        locked = model.utilization_bound_rate(locking=True, n_processors=64)
        assert locked == pytest.approx(1.0 / PAPER_COSTS.lock_cs_us)
        assert unlocked > locked

    def test_describe_mentions_bounds(self, model):
        text = model.describe()
        assert "284.3" in text


#: Module-level model for hypothesis tests (function-scoped fixtures are
#: not reset between generated examples).
_MODEL = ExecutionTimeModel(
    PAPER_COSTS, PAPER_COMPOSITION, sgi_challenge_hierarchy()
)


class TestScalarVectorEquivalence:
    @given(refs=st.floats(min_value=0.0, max_value=1e10))
    @settings(max_examples=100, deadline=None)
    def test_scalar_matches_vector(self, refs):
        f1s, f2s = _MODEL.flush_fractions(float(refs))
        f1v, f2v = _MODEL.flush_fractions(np.array([refs]))
        assert f1s == pytest.approx(float(f1v[0]), abs=1e-12)
        assert f2s == pytest.approx(float(f2v[0]), abs=1e-12)

    def test_infinite_refs_fully_flushed(self, model):
        assert model.flush_fractions(math.inf) == (1.0, 1.0)
        f1, f2 = model.flush_fractions(np.array([math.inf]))
        assert float(f1[0]) == 1.0 and float(f2[0]) == 1.0

    @given(refs=st.floats(min_value=0.0, max_value=1e9))
    @settings(max_examples=60, deadline=None)
    def test_reload_penalty_within_transient(self, refs):
        pen = _MODEL.reload_penalty(float(refs))
        assert 0.0 <= pen <= (PAPER_COSTS.t_cold_us - PAPER_COSTS.t_warm_us) + 1e-9


class TestAlternativeComposition:
    def test_weights_change_penalty_split(self, hierarchy):
        stream_heavy = FootprintComposition(
            code_global=0.2, stream_state=0.7, thread_stack=0.1
        )
        m = ExecutionTimeModel(PAPER_COSTS, stream_heavy, hierarchy)
        s = ComponentState(code_refs=0.0, stream_refs=COLD, thread_refs=0.0)
        assert m.component_penalty_us(s) == pytest.approx(
            0.7 * (PAPER_COSTS.t_cold_us - PAPER_COSTS.t_warm_us)
        )


class TestMemoization:
    """The per-state penalty memo must be invisible except for speed."""

    def _states(self):
        return [
            ComponentState(code_refs=0.0, stream_refs=0.0, thread_refs=0.0),
            ComponentState(),  # fully cold
            ComponentState(code_refs=0.0, stream_refs=COLD, thread_refs=1e4),
            ComponentState(code_refs=123.0, stream_refs=456.0,
                           thread_refs=789.0, shared_invalidated=True),
        ]

    def test_fast_path_matches_uncached(self, hierarchy):
        model = ExecutionTimeModel(PAPER_COSTS, PAPER_COMPOSITION, hierarchy)
        for state in self._states():
            for _ in range(3):  # repeated lookups hit the memo table
                assert model.component_penalty_us(state) == \
                    model._component_penalty_uncached(state)

    def test_memo_table_populates_and_bounds(self, hierarchy):
        model = ExecutionTimeModel(PAPER_COSTS, PAPER_COMPOSITION, hierarchy)
        for state in self._states():
            model.component_penalty_us(state)
        assert len(model._penalty_cache) == len(self._states())
        model._PENALTY_CACHE_MAX = len(model._penalty_cache)
        extra = ComponentState(code_refs=42.0)
        model.component_penalty_us(extra)  # triggers wholesale clear
        assert len(model._penalty_cache) == 1

    def test_pickled_model_rebuilds_its_kernel(self, hierarchy):
        model = ExecutionTimeModel(PAPER_COSTS, PAPER_COMPOSITION, hierarchy)
        state = ComponentState(code_refs=42.0, stream_refs=7.0)
        want = model.component_penalty_us(state)
        copy = pickle.loads(pickle.dumps(model))
        copy._penalty_cache.clear()  # force the copy's own kernel to run
        assert copy.component_penalty_us(state) == want
        assert len(copy._penalty_cache) == 2
        assert len(model._penalty_cache) == 2  # the original memo is untouched


class TestFastPathStats:
    """The scalar fast path is bit-identical and its counters add up."""

    STATES = [
        (0.0, 0.0, 0.0, False),          # all warm: analytic + dedup only
        (COLD, COLD, COLD, False),       # fully cold
        (0.0, COLD, 1e4, False),         # mixed discrete/continuous
        (123.0, 456.0, 789.0, True),     # distinct finite, invalidated
        (777.0, 777.0, 777.0, False),    # equal counts: dedup
        (50.0, 50.0, 3.0, True),
    ]

    def test_scalar_fast_path_matches_uncached_bitwise(self, hierarchy):
        model = ExecutionTimeModel(PAPER_COSTS, PAPER_COMPOSITION, hierarchy)
        for code, stream, thread, inv in self.STATES:
            reference = model._component_penalty_uncached(ComponentState(
                code_refs=code, stream_refs=stream, thread_refs=thread,
                shared_invalidated=inv))
            for locking in (False, True):
                want = model.execution_time_us(
                    ComponentState(), penalty_us=reference, locking=locking)
                got = model.execution_time_scalar(
                    code, stream, thread, inv, locking=locking)
                assert got == want  # exact: no tolerance

    def test_counters_all_warm_call(self, model):
        model.execution_time_scalar(0.0, 0.0, 0.0, False)
        s = model.stats()
        assert s["calls"] == s["fast_calls"] == 1
        assert s["hit_rate"] == 1.0
        assert s["component_evals"] == 3
        # code resolves analytically; stream/thread dedup against it.
        assert s["analytic_hits"] == 1
        assert s["dedup_hits"] == 2
        assert s["flush_computes"] == 0
        assert s["component_reuse_rate"] == 1.0

    def test_counters_distinct_counts_then_cache_hits(self, model):
        model.execution_time_scalar(100.0, 200.0, 300.0, False)
        s = model.stats()
        assert s["flush_computes"] == 3
        assert s["cache_size"] == 3
        model.execution_time_scalar(100.0, 200.0, 300.0, False)
        s = model.stats()
        assert s["cache_hits"] == 3
        assert s["flush_computes"] == 3  # unchanged: all served from cache
        assert s["component_evals"] == 6
        assert s["component_reuse_rate"] == 0.5

    def test_cache_bound_respected_by_fast_path(self, model):
        model._PENALTY_CACHE_MAX = 8
        for i in range(1, 40):
            model.execution_time_scalar(float(i), 0.0, 0.0, False)
        assert len(model._penalty_cache) <= 8


def _two_way(hierarchy):
    """``hierarchy`` with every level made 2-way set-associative."""
    return dataclasses.replace(hierarchy, levels=tuple(
        dataclasses.replace(level, associativity=2)
        for level in hierarchy.levels))


class TestSetAssociative:
    """0 and COLD resolve exactly on set-associative levels too."""

    @pytest.fixture
    def two_way(self, hierarchy):
        return ExecutionTimeModel(PAPER_COSTS, PAPER_COMPOSITION,
                                  _two_way(hierarchy))

    def test_cold_component_pays_the_full_transient(self, two_way):
        assert two_way.flush_fractions(COLD) == (1.0, 1.0)
        assert two_way.flush_fractions(0.0) == (0.0, 0.0)
        assert two_way.reload_penalty(COLD) == (
            PAPER_COSTS.l1_reload_us + PAPER_COSTS.l2_reload_us)
        assert two_way.cold_service_us() > two_way.warm_service_us()

    def test_fast_path_matches_uncached_bitwise(self, two_way):
        for code, stream, thread, inv in TestFastPathStats.STATES:
            state = ComponentState(code_refs=code, stream_refs=stream,
                                   thread_refs=thread, shared_invalidated=inv)
            for _ in range(2):  # second pass reads the memo
                assert two_way.component_penalty_us(state) == \
                    two_way._component_penalty_uncached(state)
