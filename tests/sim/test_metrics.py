"""Tests for metrics collection and summaries."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.sim.entities import Packet
from repro.sim.metrics import MetricsCollector


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


def reference_reordering(streams, arrivals, starts, procs):
    """The reordering metrics by definition, one row at a time: sequence
    numbers are arrival ranks within a stream (ties in completion order);
    depth is ``max(seq completed so far) - seq``; migrations are
    processor changes in service-start order (ties in row order)."""
    n = len(streams)
    seq = [0] * n
    for s in set(streams):
        rows = sorted((i for i in range(n) if streams[i] == s),
                      key=lambda i: (arrivals[i], i))
        for rank, i in enumerate(rows):
            seq[i] = rank
    depth_counts, per_stream_ooo = {}, {}
    highest = {}
    for i in range(n):
        s = streams[i]
        if s in highest and highest[s] > seq[i]:
            d = highest[s] - seq[i]
            depth_counts[d] = depth_counts.get(d, 0) + 1
            per_stream_ooo[s] = per_stream_ooo.get(s, 0) + 1
        highest[s] = max(highest.get(s, -1), seq[i])
    per_stream_mig = {}
    last_proc = {}
    for i in sorted(range(n), key=lambda i: (starts[i], i)):
        s = streams[i]
        if s in last_proc and last_proc[s] != procs[i]:
            per_stream_mig[s] = per_stream_mig.get(s, 0) + 1
        last_proc[s] = procs[i]
    return (sum(depth_counts.values()), dict(sorted(depth_counts.items())),
            dict(sorted(per_stream_ooo.items())),
            sum(per_stream_mig.values()), dict(sorted(per_stream_mig.items())))


def summarize_columns(streams, arrivals, starts, completions, procs):
    m = MetricsCollector()
    execs = [c - s for s, c in zip(starts, completions)]
    waits = [0.25 * (s - a) for a, s in zip(arrivals, starts)]
    m.extend_columns(streams, arrivals, starts, completions, execs, waits, procs)
    return m.summarize(2e6, (0.5,), offered_rate_pps=1000.0, n_batches=20), execs, waits


class TestSummaryOracle:
    """Every summary statistic equals its NumPy call (or, for the
    reordering counts, its by-definition loop) exactly, at every row
    count."""

    @staticmethod
    def check(streams, arrivals, starts, completions, procs):
        s, execs, waits = summarize_columns(streams, arrivals, starts,
                                            completions, procs)
        delays = np.array(completions) - np.array(arrivals)
        queueing = np.array(starts) - np.array(arrivals)
        assert s.n_packets == len(streams)
        assert s.mean_delay_us == float(delays.mean())
        assert s.mean_queueing_us == float(queueing.mean())
        assert s.mean_exec_us == float(np.array(execs).mean())
        assert s.mean_lock_wait_us == float(np.array(waits).mean())
        p = np.percentile(delays, (50.0, 95.0, 99.0)).tolist()
        assert [s.p50_delay_us, s.p95_delay_us, s.p99_delay_us] == p
        ids = np.array(streams)
        assert s.per_stream_mean_delay_us == {
            int(sid): float(delays[ids == sid].mean()) for sid in np.unique(ids)
        }
        (ooo, depths, ooo_by_stream, migrations,
         mig_by_stream) = reference_reordering(streams, arrivals, starts, procs)
        assert s.out_of_order_total == ooo
        assert s.ooo_depth_counts == depths
        assert list(s.ooo_depth_counts) == list(depths)
        assert s.per_stream_out_of_order == ooo_by_stream
        assert s.migrations_total == migrations
        assert s.per_stream_migrations == mig_by_stream

    @staticmethod
    def columns(n, n_streams, seed):
        rng = np.random.default_rng(seed)
        arrivals = np.round(np.sort(rng.uniform(0.0, 1e4, n)), 1)  # ties
        starts = arrivals + rng.exponential(50.0, n) * (rng.random(n) < 0.7)
        completions = starts + 10.0 ** rng.uniform(-3.0, 3.0, n)
        order = np.argsort(completions, kind="stable")
        return (rng.integers(0, n_streams, n)[order].tolist(),
                arrivals[order].tolist(), starts[order].tolist(),
                completions[order].tolist(),
                rng.integers(0, 4, n)[order].tolist())

    @pytest.mark.parametrize("n", (1, 2, 8, 9, 39, 40, 41, 128, 129))
    def test_fixed_sizes(self, n):
        for n_streams in (1, 3, 8):
            self.check(*self.columns(n, n_streams, seed=n * 10 + n_streams))

    def test_long_run_per_stream_slices(self):
        # 10k rows over 3 streams: every per-stream slice is far longer
        # than NumPy's 8-value pairwise block.
        self.check(*self.columns(10_000, 3, seed=99))

    @given(rows=st.lists(
        st.tuples(st.integers(0, 5),
                  st.sampled_from([0.0, 1.5, 3.0, 7.25, 1e3]),
                  st.floats(min_value=0.0, max_value=1e4),
                  st.floats(min_value=1e-3, max_value=1e6),
                  st.integers(0, 3)),
        min_size=1, max_size=150))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis(self, rows):
        rows = [(sid, a, a + w, a + w + e, p) for sid, a, w, e, p in rows]
        rows.sort(key=lambda r: r[3])  # completion order
        self.check(*map(list, zip(*rows)))
