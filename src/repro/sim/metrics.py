"""Metrics collection: per-packet records, summaries, batch-means CIs.

The paper's principal response metric is **mean packet delay** (arrival to
completion of protocol processing) as a function of packet arrival rate;
secondary metrics are throughput capacity, per-processor utilization, and
lock contention.  This module records every completed packet (after a
warm-up cutoff), computes summary statistics, and estimates confidence
intervals with the method of non-overlapping batch means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.stats import batch_means_ci, linear_percentiles
from .entities import Packet

__all__ = ["PacketRecord", "MetricsCollector", "SimulationSummary"]

#: RPR010 coverage ledger: summary-table keys (from ``row()`` /
#: ``reordering_row()``) that no golden field pins, mapped to the reason
#: they stay unpinned.  Anything produced but neither golden-covered nor
#: listed here is an unchecked metric and fails lint.
_GOLDEN_UNCOVERED_KEYS = {
    "n_packets": (
        "redundant with throughput_pps x duration; goldens pin the rate"
    ),
    "mean_queueing_us": (
        "derived as mean_delay - mean_exec, both of which are "
        "golden-pinned; pinning the difference would double-count noise"
    ),
    "p95_delay_us": (
        "tail percentile is too seed-sensitive at golden run lengths; "
        "the mean and throughput pin the distribution's mass"
    ),
    "utilization": (
        "algebraically determined by throughput_pps and mean_exec_us "
        "(both pinned) and the processor count"
    ),
}


#: The delay percentiles a summary reports (p50, p95, p99), in percent.
_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class PacketRecord:
    """Immutable snapshot of one completed packet."""

    stream_id: int
    arrival_us: float
    service_start_us: float
    completion_us: float
    exec_time_us: float
    lock_wait_us: float
    processor_id: int

    @property
    def delay_us(self) -> float:
        return self.completion_us - self.arrival_us

    @property
    def queueing_us(self) -> float:
        return self.service_start_us - self.arrival_us


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregated results of one simulation run."""

    n_packets: int
    duration_us: float
    mean_delay_us: float
    delay_ci_us: Tuple[float, float]
    mean_queueing_us: float
    mean_exec_us: float
    mean_lock_wait_us: float
    p50_delay_us: float
    p95_delay_us: float
    p99_delay_us: float
    throughput_pps: float
    offered_rate_pps: float
    utilization_per_proc: Tuple[float, ...]
    max_backlog: int
    final_backlog: int
    per_stream_mean_delay_us: Dict[int, float] = field(default_factory=dict)
    # Reordering metrics (defaulted: summaries predating the policy zoo —
    # e.g. cached pickles — still unpickle and compare cleanly).
    out_of_order_total: int = 0
    migrations_total: int = 0
    ooo_depth_counts: Dict[int, int] = field(default_factory=dict)
    per_stream_out_of_order: Dict[int, int] = field(default_factory=dict)
    per_stream_migrations: Dict[int, int] = field(default_factory=dict)

    @property
    def reordered_fraction(self) -> float:
        """Share of recorded packets completing out of order."""
        return self.out_of_order_total / self.n_packets if self.n_packets else 0.0

    @property
    def max_ooo_depth(self) -> int:
        """Deepest sequence gap observed (0 = fully in order)."""
        return max(self.ooo_depth_counts) if self.ooo_depth_counts else 0

    def reordering_row(self) -> Dict[str, float]:
        """Flat dict of the reordering metrics for table assembly.

        Kept separate from :meth:`row` so existing golden tables keep
        their exact column set.
        """
        return {
            "out_of_order": self.out_of_order_total,
            "ooo_fraction": self.reordered_fraction,
            "max_ooo_depth": self.max_ooo_depth,
            "migrations": self.migrations_total,
        }

    @property
    def mean_utilization(self) -> float:
        return float(np.mean(self.utilization_per_proc)) if self.utilization_per_proc else 0.0

    @property
    def stable(self) -> bool:
        """Heuristic stability check: the run is considered saturated if
        work was still piling up at the end (final backlog comparable to
        everything ever queued) — used by capacity searches."""
        return self.final_backlog <= max(50, 0.02 * self.n_packets)

    def row(self) -> Dict[str, float]:
        """Flat dict for table assembly."""
        return {
            "n_packets": self.n_packets,
            "mean_delay_us": self.mean_delay_us,
            "mean_queueing_us": self.mean_queueing_us,
            "mean_exec_us": self.mean_exec_us,
            "p95_delay_us": self.p95_delay_us,
            "throughput_pps": self.throughput_pps,
            "utilization": self.mean_utilization,
        }


class MetricsCollector:
    """Accumulates packet records and produces a summary.

    Packets completing before ``warmup_us`` are discarded (transient
    removal); the arrival counter still includes them so offered load is
    reported exactly.

    Storage is columnar with a block-flushed staging buffer: the
    per-completion hot path appends one plain row tuple to a small block
    (a :class:`PacketRecord` costs ~7 slow frozen-dataclass
    ``__setattr__`` calls; a tuple build plus one append costs two), and
    every :data:`_BLOCK_ROWS` completions the block is transposed into
    seven parallel column lists in one ``zip(*block)`` pass.  The batched
    engine bypasses the staging buffer entirely via
    :meth:`extend_columns`.  :meth:`summarize` reads the columns straight
    into its NumPy arrays; the :attr:`records` view materializes record
    objects lazily for analysis and tests.
    """

    #: Column layout (must match PacketRecord field order).
    _ROW_FIELDS = (
        "stream_id", "arrival_us", "service_start_us", "completion_us",
        "exec_time_us", "lock_wait_us", "processor_id",
    )

    #: Staging-block flush threshold (rows).
    _BLOCK_ROWS = 4096

    def __init__(self, warmup_us: float = 0.0) -> None:
        if warmup_us < 0:
            raise ValueError("warmup_us must be non-negative")
        self.warmup_us = warmup_us
        # Columnar store (flushed) + row-tuple staging block (hot appends).
        self._col_stream: List[int] = []
        self._col_arrival: List[float] = []
        self._col_start: List[float] = []
        self._col_completion: List[float] = []
        self._col_exec: List[float] = []
        self._col_lock_wait: List[float] = []
        self._col_proc: List[int] = []
        self._block: List[Tuple[int, float, float, float, float, float, int]] = []
        # Bound append: the completion hot path calls this once per packet
        # (the list is never rebound; flushes clear it in place).
        self._append_row = self._block.append
        self._records_cache: Optional[List[PacketRecord]] = None
        self.arrivals: int = 0
        self.completions: int = 0
        self.max_backlog: int = 0
        self._backlog: int = 0

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def on_arrival(self, packet: Packet) -> None:
        self.arrivals += 1
        self._backlog += 1
        if self._backlog > self.max_backlog:
            self.max_backlog = self._backlog

    def on_completion(self, packet: Packet) -> None:
        self.completions += 1
        self._backlog -= 1
        completion_us = packet.completion_us
        if completion_us >= self.warmup_us:
            self._append_row((
                packet.stream_id,
                packet.arrival_us,
                packet.service_start_us,
                completion_us,
                packet.exec_time_us,
                packet.lock_wait_us,
                packet.processor_id,
            ))
            if len(self._block) >= self._BLOCK_ROWS:
                self._flush_block()

    def _flush_block(self) -> None:
        """Transpose the staging block into the column lists."""
        block = self._block
        if not block:
            return
        (stream, arrival, start, completion, exec_, lock_wait_us, proc) = zip(*block)
        self._col_stream.extend(stream)
        self._col_arrival.extend(arrival)
        self._col_start.extend(start)
        self._col_completion.extend(completion)
        self._col_exec.extend(exec_)
        self._col_lock_wait.extend(lock_wait_us)
        self._col_proc.extend(proc)
        block.clear()

    # ------------------------------------------------------------------
    # Batched-engine hooks
    # ------------------------------------------------------------------
    def extend_columns(
        self,
        stream_ids: Sequence[int],
        arrivals_us: Sequence[float],
        starts_us: Sequence[float],
        completions_us: Sequence[float],
        execs_us: Sequence[float],
        lock_waits_us: Sequence[float],
        proc_ids: Sequence[int],
    ) -> None:
        """Append one block of already-filtered completion rows.

        Used by the batched engine, which accumulates post-warmup rows in
        its own column buffers and flushes them here in one call.  Callers
        are responsible for warmup filtering and for folding the
        ``arrivals``/``completions``/backlog counters separately.
        """
        self._flush_block()
        self._col_stream.extend(stream_ids)
        self._col_arrival.extend(arrivals_us)
        self._col_start.extend(starts_us)
        self._col_completion.extend(completions_us)
        self._col_exec.extend(execs_us)
        self._col_lock_wait.extend(lock_waits_us)
        self._col_proc.extend(proc_ids)

    def fold_batch_counts(
        self, n_arrivals: int, n_completions: int,
        backlog: int, max_backlog: int,
    ) -> None:
        """Fold externally tracked counters (batched engine: arrivals,
        completions and the backlog high-water mark are tracked as loop
        locals, not via per-packet hook calls)."""
        self.arrivals += n_arrivals
        self.completions += n_completions
        self._backlog = backlog
        if max_backlog > self.max_backlog:
            self.max_backlog = max_backlog

    @property
    def records(self) -> List[PacketRecord]:
        """Per-packet records (lazily materialized from the columns).

        Columns are append-only, so a stale cache is detected by length
        alone — the hot completion path never touches the cache.
        """
        self._flush_block()
        cache = self._records_cache
        if cache is None or len(cache) != len(self._col_stream):
            self._records_cache = [
                PacketRecord(*row) for row in zip(
                    self._col_stream, self._col_arrival, self._col_start,
                    self._col_completion, self._col_exec,
                    self._col_lock_wait, self._col_proc,
                )
            ]
        return self._records_cache

    @property
    def backlog(self) -> int:
        """Packets arrived but not yet completed."""
        return self._backlog

    @property
    def in_flight(self) -> int:
        """Alias of :attr:`backlog`: the quantity conserved by the
        ``arrivals == completions + in-flight`` invariant
        (:mod:`repro.verify.invariants` cross-checks it at end of run)."""
        return self._backlog

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def summarize(
        self,
        duration_us: float,
        utilization_per_proc: Tuple[float, ...],
        offered_rate_pps: float,
        n_batches: int = 20,
        migrations: Optional[int] = None,
    ) -> SimulationSummary:
        """Build the run summary (delays in µs, rates in packets/second).

        ``migrations`` is the engine-counted stream-migration total
        (dispatches whose processor differs from the stream's previous
        one, warmup included).  When ``None`` it falls back to the count
        reconstructed from the recorded (post-warmup) rows.

        Reordering is computed from the recorded columns, whose row order
        is completion order in both engines — so the metrics agree across
        engines by construction.  A packet's *sequence number* is its
        arrival rank within its stream (ties rank in completion order, so
        simultaneous batch arrivals never count as reordered); a packet is
        **out of order** when a later sequence number of the same stream
        already completed, and its **depth** is the TCP-reassembly-style
        gap ``max(seq already completed) - seq`` (Wu et al.'s Flow
        Director pathology measure).
        """
        self._flush_block()
        if not self._col_stream:
            nan = math.nan
            return SimulationSummary(
                n_packets=0, duration_us=duration_us, mean_delay_us=nan,
                delay_ci_us=(nan, nan), mean_queueing_us=nan, mean_exec_us=nan,
                mean_lock_wait_us=nan, p50_delay_us=nan, p95_delay_us=nan,
                p99_delay_us=nan, throughput_pps=0.0,
                offered_rate_pps=offered_rate_pps,
                utilization_per_proc=utilization_per_proc,
                max_backlog=self.max_backlog, final_backlog=self._backlog,
            )
        # Each column becomes an array once (``fromiter`` with a known
        # count skips ``np.array``'s type discovery; the values are the
        # same doubles and ints).  Elementwise float64 subtraction equals
        # the historical per-record Python-float subtraction bit for bit.
        n = len(self._col_stream)
        stream_ids = np.fromiter(self._col_stream, np.int64, n)
        arrivals_us = np.fromiter(self._col_arrival, np.float64, n)
        starts_us = np.fromiter(self._col_start, np.float64, n)
        delays_us = np.fromiter(self._col_completion, np.float64, n) - arrivals_us
        queueing_us = starts_us - arrivals_us
        execs = np.fromiter(self._col_exec, np.float64, n)
        lock_waits_us = np.fromiter(self._col_lock_wait, np.float64, n)
        proc_ids = np.fromiter(self._col_proc, np.int64, n)
        # Means are NumPy's ``.mean()`` without its wrapper: the same
        # pairwise ``add.reduce`` sum divided by the count.
        add = np.add.reduce
        mean_delay_us = float(add(delays_us)) / n
        p50, p95, p99 = linear_percentiles(delays_us, _PERCENTILES)
        ci = batch_means_ci(delays_us, n_batches=n_batches)
        measured_span = duration_us - self.warmup_us
        throughput_pps = n / measured_span * 1e6 if measured_span > 0 else 0.0
        # Stable group-by-stream of the completion-ordered rows: each
        # stream's rows are one contiguous slice in their original order,
        # so its mean sums the same values in the same order as a boolean
        # mask would.  One ``add.reduce`` per slice, not ``np.add.reduceat``:
        # that sums each segment sequentially, which differs from the
        # pairwise sum beyond 8 values.
        by_stream = stream_ids.argsort(kind="stable")
        streams_c = stream_ids[by_stream]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        np.not_equal(streams_c[1:], streams_c[:-1], out=new_group[1:])
        bounds = new_group.nonzero()[0].tolist()
        delays_by_stream_us = delays_us[by_stream]
        per_stream = {
            s: float(add(delays_by_stream_us[lo:hi])) / (hi - lo)
            for s, lo, hi in zip(streams_c[bounds].tolist(), bounds,
                                 bounds[1:] + [n])
        }
        (ooo_total, depth_counts, per_stream_ooo,
         row_migrations, per_stream_mig) = self._reordering(
            stream_ids, arrivals_us, starts_us, proc_ids,
            by_stream, new_group,
        )
        return SimulationSummary(
            n_packets=n,
            duration_us=duration_us,
            mean_delay_us=mean_delay_us,
            delay_ci_us=ci,
            mean_queueing_us=float(add(queueing_us)) / n,
            mean_exec_us=float(add(execs)) / n,
            mean_lock_wait_us=float(add(lock_waits_us)) / n,
            p50_delay_us=p50,
            p95_delay_us=p95,
            p99_delay_us=p99,
            throughput_pps=throughput_pps,
            offered_rate_pps=offered_rate_pps,
            utilization_per_proc=utilization_per_proc,
            max_backlog=self.max_backlog,
            final_backlog=self._backlog,
            per_stream_mean_delay_us=per_stream,
            out_of_order_total=ooo_total,
            migrations_total=row_migrations if migrations is None else migrations,
            ooo_depth_counts=depth_counts,
            per_stream_out_of_order=per_stream_ooo,
            per_stream_migrations=per_stream_mig,
        )

    @staticmethod
    def _reordering(
        stream_ids: np.ndarray,
        arrivals_us: np.ndarray,
        starts_us: np.ndarray,
        proc_ids: np.ndarray,
        by_stream: np.ndarray,
        new_group: np.ndarray,
    ) -> Tuple[int, Dict[int, int], Dict[int, int], int, Dict[int, int]]:
        """Vectorized reordering/migration metrics over the recorded rows.

        Row index is completion order (both engines append rows in
        completion-event firing order), so "already completed" is simply
        "earlier row".  Fully NumPy — no per-row Python loop — to keep
        :meth:`summarize` out of the hot-path benchmark's way.
        ``by_stream`` is the stable group-by-stream order of the rows and
        ``new_group`` marks each group's first row in it.

        Returns ``(out_of_order_total, depth_counts, per_stream_ooo,
        migrations_total, per_stream_migrations)``; the per-stream dicts
        hold only nonzero entries.
        """
        n = len(stream_ids)
        if n == 0:
            return 0, {}, {}, 0, {}
        # --- sequence numbers: arrival rank within stream -------------
        # One stable lexicographic sort: rows end up grouped per stream,
        # arrival-ordered within the group, ties in completion order (the
        # same permutation as a stable sort by arrival followed by a
        # stable sort by stream).
        ga = np.lexsort((arrivals_us, stream_ids))
        streams_a = stream_ids[ga]
        new_group_a = np.empty(n, dtype=bool)
        new_group_a[0] = True
        np.not_equal(streams_a[1:], streams_a[:-1], out=new_group_a[1:])
        group_start = np.maximum.accumulate(
            np.where(new_group_a, np.arange(n), 0)
        )
        seq = np.empty(n, dtype=np.int64)
        seq[ga] = np.arange(n) - group_start
        # --- out-of-order depth in completion order -------------------
        # Over the stable group-by-stream of the original
        # (completion-ordered) rows, a segmented running max of seq:
        # offsetting each group by group_index * n makes one global
        # maximum.accumulate respect the group boundaries (n > every seq
        # value).
        streams_c = stream_ids[by_stream]
        seq_c = seq[by_stream]
        group_idx = new_group.cumsum() - 1
        run_max = (
            np.maximum.accumulate(seq_c + group_idx * n) - group_idx * n
        )
        # Exclusive running max: the packet itself excluded; a group's
        # first packet can never be late.
        prev_max = np.empty(n, dtype=np.int64)
        prev_max[1:] = run_max[:-1]
        prev_max[new_group] = seq_c[new_group]
        depth_c = prev_max - seq_c  # > 0 iff out of order
        late = depth_c > 0
        ooo_total = int(np.count_nonzero(late))
        depth_counts = _nonzero_counts(depth_c[late]) if ooo_total else {}
        per_stream_ooo = _nonzero_counts(streams_c[late]) if ooo_total else {}
        # --- migrations: processor changes in service-start order -----
        gs = np.lexsort((starts_us, stream_ids))
        streams_s = stream_ids[gs]
        procs_s = proc_ids[gs]
        same_stream = streams_s[1:] == streams_s[:-1]
        moved = same_stream & (procs_s[1:] != procs_s[:-1])
        migrations_total = int(np.count_nonzero(moved))
        per_stream_mig = (_nonzero_counts(streams_s[1:][moved])
                          if migrations_total else {})
        return ooo_total, depth_counts, per_stream_ooo, migrations_total, per_stream_mig


def _nonzero_counts(values: np.ndarray) -> Dict[int, int]:
    """``{value: count}`` over non-negative ints, ascending by value (what
    ``np.unique(values, return_counts=True)`` pairs up), from one
    ``np.bincount``."""
    counts = np.bincount(values)
    present = counts.nonzero()[0]
    return dict(zip(present.tolist(), counts[present].tolist()))
