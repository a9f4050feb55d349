"""Tests for simulation entities: packets, processor state, thread pool."""

import pytest

from repro.core.exec_model import COLD
from repro.sim.entities import Packet, ProcessorState, ThreadPool


def proc(V=1.0, rate=20.0):
    return ProcessorState(0, references_per_us=rate, nonprotocol_intensity=V)


def packet(stream=0, arrival=0.0):
    return Packet(packet_id=0, stream_id=stream, arrival_us=arrival)


class TestPacket:
    def test_delay_and_queueing(self):
        p = packet(arrival=10.0)
        p.service_start_us = 25.0
        p.completion_us = 40.0
        assert p.queueing_us == pytest.approx(15.0)
        assert p.delay_us == pytest.approx(30.0)


class TestProcessorRefClock:
    def test_idle_accrues_at_intensity_rate(self):
        p = proc(V=0.5, rate=20.0)
        assert p.ref_clock(100.0) == pytest.approx(100.0 * 20.0 * 0.5)

    def test_zero_intensity_accrues_nothing(self):
        p = proc(V=0.0)
        assert p.ref_clock(1000.0) == 0.0

    def test_busy_time_does_not_accrue_idle_refs(self):
        p = proc(V=1.0)
        pk = packet()
        p.begin_service(pk, 10.0)
        clock_at_start = p.ref_clock(10.0)
        # While busy, reading the clock later adds nothing.
        assert p.ref_clock(50.0) == pytest.approx(clock_at_start)

    def test_protocol_execution_adds_full_rate_refs(self):
        p = proc(V=0.0)  # isolate protocol refs
        pk = packet()
        p.begin_service(pk, 0.0)
        p.end_service(10.0, exec_time_us=10.0, touched_keys=(("code",),),
                      protocol_epoch=1)
        assert p.ref_clock(10.0) == pytest.approx(10.0 * 20.0)

    def test_time_backwards_rejected(self):
        p = proc()
        p.ref_clock(100.0)
        with pytest.raises(ValueError, match="backwards"):
            p.accrue_idle(50.0)


class TestRefsSinceTouch:
    def test_untouched_is_cold(self):
        assert proc().refs_since_touch(("code",), 100.0) is COLD

    def test_touch_resets_to_zero(self):
        p = proc(V=1.0)
        pk = packet()
        p.begin_service(pk, 0.0)
        p.end_service(10.0, 10.0, (("code",),), 1)
        # Immediately after completion, no displacing refs since touch.
        assert p.refs_since_touch(("code",), 10.0) == pytest.approx(0.0)

    def test_idle_displacement_counts(self):
        p = proc(V=1.0)
        pk = packet()
        p.begin_service(pk, 0.0)
        p.end_service(10.0, 10.0, (("code",),), 1)
        assert p.refs_since_touch(("code",), 60.0) == pytest.approx(50.0 * 20.0)

    def test_other_execution_displaces_untouched_keys(self):
        p = proc(V=0.0)
        pk = packet(stream=1)
        p.begin_service(pk, 0.0)
        p.end_service(10.0, 10.0, (("stream", 1),), 1)
        pk2 = packet(stream=2)
        p.begin_service(pk2, 10.0)
        p.end_service(20.0, 10.0, (("stream", 2),), 2)
        # Stream 1's state was displaced by stream 2's execution refs.
        assert p.refs_since_touch(("stream", 1), 20.0) == pytest.approx(200.0)
        assert p.refs_since_touch(("stream", 2), 20.0) == pytest.approx(0.0)


class TestServiceLifecycle:
    def test_begin_while_busy_raises(self):
        p = proc()
        p.begin_service(packet(), 0.0)
        with pytest.raises(RuntimeError, match="already busy"):
            p.begin_service(packet(), 1.0)

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError, match="not serving"):
            proc().end_service(1.0, 1.0, (), 0)

    def test_end_returns_packet_and_clears_state(self):
        p = proc()
        pk = packet()
        p.begin_service(pk, 0.0)
        out = p.end_service(5.0, 5.0, (), 1)
        assert out is pk
        assert not p.busy
        assert p.last_protocol_end == 5.0
        assert p.protocol_epoch_seen == 1

    def test_utilization(self):
        p = proc()
        p.begin_service(packet(), 0.0)
        p.end_service(25.0, 25.0, (), 1)
        assert p.utilization(100.0) == pytest.approx(0.25)
        assert p.utilization(0.0) == 0.0

    def test_nonprotocol_time_tracked(self):
        p = proc(V=1.0)
        p.accrue_idle(40.0)
        assert p.nonprotocol_us == pytest.approx(40.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessorState(0, references_per_us=0.0, nonprotocol_intensity=1.0)
        with pytest.raises(ValueError):
            ProcessorState(0, references_per_us=20.0, nonprotocol_intensity=-1.0)


class TestThreadPoolShared:
    def test_acquire_release_cycle(self):
        pool = ThreadPool(4, per_processor=False)
        t = pool.acquire(2)
        assert pool.free_count == 3
        pool.release(t)
        assert pool.free_count == 4
        assert pool.last_processor(t) == 2

    def test_prefers_thread_with_matching_last_processor(self):
        pool = ThreadPool(4, per_processor=False)
        t1 = pool.acquire(1)
        t2 = pool.acquire(2)
        pool.release(t1)
        pool.release(t2)
        again = pool.acquire(1)
        assert again == t1  # affinity-preferred free thread

    def test_exhaustion_raises(self):
        pool = ThreadPool(1, per_processor=False)
        pool.acquire(0)
        with pytest.raises(RuntimeError, match="no free"):
            pool.acquire(1)

    def test_double_release_raises(self):
        pool = ThreadPool(2, per_processor=False)
        t = pool.acquire(0)
        pool.release(t)
        with pytest.raises(RuntimeError, match="not busy"):
            pool.release(t)


class TestThreadPoolPerProcessor:
    def test_thread_id_equals_processor(self):
        pool = ThreadPool(4, per_processor=True)
        assert pool.acquire(3) == 3

    def test_bound_thread_busy_raises(self):
        pool = ThreadPool(4, per_processor=True)
        pool.acquire(1)
        with pytest.raises(RuntimeError):
            pool.acquire(1)

    def test_needs_a_thread(self):
        with pytest.raises(ValueError):
            ThreadPool(0, per_processor=True)
