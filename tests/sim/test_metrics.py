"""Tests for metrics collection and summaries."""

import math

import numpy as np
import pytest

from repro.sim.entities import Packet
from repro.sim.metrics import MetricsCollector, PacketRecord, SimulationSummary


def completed_packet(arrival, start, completion, stream=0, exec_us=None,
                     lock_wait=0.0, proc=0):
    p = Packet(packet_id=0, stream_id=stream, arrival_us=arrival)
    p.service_start_us = start
    p.completion_us = completion
    p.exec_time_us = exec_us if exec_us is not None else completion - start
    p.lock_wait_us = lock_wait
    p.processor_id = proc
    return p


class TestCollection:
    def test_warmup_cutoff_discards_early_completions(self):
        m = MetricsCollector(warmup_us=100.0)
        early = completed_packet(0.0, 10.0, 50.0)
        late = completed_packet(90.0, 100.0, 150.0)
        for p in (early, late):
            m.on_arrival(p)
            m.on_completion(p)
        assert len(m.records) == 1
        assert m.records[0].completion_us == 150.0

    def test_backlog_tracking(self):
        m = MetricsCollector()
        packets = [completed_packet(i, i, i + 10) for i in range(3)]
        for p in packets:
            m.on_arrival(p)
        assert m.backlog == 3
        assert m.max_backlog == 3
        m.on_completion(packets[0])
        assert m.backlog == 2

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError):
            MetricsCollector(warmup_us=-1.0)


class TestSummary:
    def make_summary(self, delays, duration=1000.0, warmup=0.0):
        m = MetricsCollector(warmup_us=warmup)
        for i, d in enumerate(delays):
            p = completed_packet(arrival=10.0 * i, start=10.0 * i,
                                 completion=10.0 * i + d, stream=i % 2)
            m.on_arrival(p)
            m.on_completion(p)
        return m.summarize(duration, (0.5, 0.7), offered_rate_pps=1000.0)

    def test_mean_delay(self):
        s = self.make_summary([10.0, 20.0, 30.0])
        assert s.mean_delay_us == pytest.approx(20.0)
        assert s.n_packets == 3

    def test_percentiles_ordered(self):
        s = self.make_summary(list(range(1, 101)))
        assert s.p50_delay_us <= s.p95_delay_us <= s.p99_delay_us

    def test_throughput(self):
        s = self.make_summary([10.0] * 5, duration=1000.0)
        # 5 packets in 1000 us -> 5e3 pps... 5 / 1000us * 1e6 = 5000 pps.
        assert s.throughput_pps == pytest.approx(5000.0)

    def test_per_stream_means(self):
        s = self.make_summary([10.0, 20.0, 10.0, 20.0])
        assert s.per_stream_mean_delay_us[0] == pytest.approx(10.0)
        assert s.per_stream_mean_delay_us[1] == pytest.approx(20.0)

    def test_per_stream_means_equal_masked_means_bitwise(self):
        # Reference: one boolean mask per stream over the completion-
        # ordered rows.  The group-by slices sum the same values in the
        # same order, so the means must agree exactly.
        rng = np.random.default_rng(7)
        m = MetricsCollector()
        streams = rng.integers(0, 9, 5_000)
        delays = rng.exponential(300.0, 5_000) * rng.random(5_000) ** 3
        for i, (sid, d) in enumerate(zip(streams.tolist(), delays.tolist())):
            p = completed_packet(arrival=0.5 * i, start=0.5 * i,
                                 completion=0.5 * i + d, stream=sid)
            m.on_arrival(p)
            m.on_completion(p)
        s = m.summarize(5_000.0, (0.5,), offered_rate_pps=1000.0)
        col_delays = np.array(m._col_completion) - np.array(m._col_arrival)
        col_streams = np.array(m._col_stream)
        expected = {
            int(sid): float(col_delays[col_streams == sid].mean())
            for sid in np.unique(col_streams)
        }
        assert s.per_stream_mean_delay_us == expected

    def test_utilization_mean(self):
        s = self.make_summary([10.0])
        assert s.mean_utilization == pytest.approx(0.6)

    def test_empty_summary_is_nan(self):
        m = MetricsCollector()
        s = m.summarize(1000.0, (0.0,), offered_rate_pps=10.0)
        assert s.n_packets == 0
        assert math.isnan(s.mean_delay_us)
        assert s.throughput_pps == 0.0

    def test_stability_heuristic(self):
        m = MetricsCollector()
        done = [completed_packet(i, i, i + 5) for i in range(100)]
        for p in done:
            m.on_arrival(p)
            m.on_completion(p)
        s = m.summarize(1000.0, (0.1,), 10.0)
        assert s.stable
        # Now a run where most packets never finished.
        m2 = MetricsCollector()
        for p in done:
            m2.on_arrival(p)
        for p in done[:10]:
            m2.on_completion(p)
        s2 = m2.summarize(1000.0, (0.1,), 10.0)
        assert s2.final_backlog == 90
        assert not s2.stable

    def test_row_keys(self):
        s = self.make_summary([10.0, 12.0])
        row = s.row()
        assert {"n_packets", "mean_delay_us", "throughput_pps"} <= set(row)

    def test_ci_contains_mean_for_iid(self):
        s = self.make_summary([10.0, 12.0, 14.0, 16.0] * 20)
        lo, hi = s.delay_ci_us
        assert lo <= s.mean_delay_us <= hi
