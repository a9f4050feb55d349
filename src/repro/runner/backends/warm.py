"""Persistent warm workers fed from one shared task queue.

A fresh process per task pays for the process itself (fork, imports,
allocator warm-up) and rebuilds the
:class:`~repro.core.exec_model.ExecutionTimeModel` (penalty caches
empty) before it runs, then pickles a ~20-field summary back.  The warm
backend instead:

- keeps ``jobs`` worker processes alive for the runner's whole lifetime
  (state survives *across* ``run_many`` batches) — the live process is
  what it saves;
- keeps a batch's pending attempts in one FIFO of ``(index, attempt)``
  tasks; an idle worker takes the next chunk from its head, whatever
  configs the chunk mixes;
- sizes chunks so one costs roughly :data:`_TARGET_CHUNK_S` of
  simulation (measured, not guessed), capped once per batch by
  :func:`~.base.chunk_cap` so the tail of the batch stays queued for
  whichever worker frees first; dispatch is double-buffered
  (:data:`_PREFETCH`) so the parent's fold-and-refill never idles a
  worker, and each chunk's summaries return as one pickled tuple.

Each task builds its own model, exactly as a serial run does: building
one costs microseconds, and a model shared across tasks saved under a
millisecond per 600-run session (``docs/PERFORMANCE.md``).

Fault tolerance: per-task SIGALRM deadlines inside workers, a
parent-side hard watchdog that replaces wedged workers, crash detection
via pipe EOF with chunk requeue, serial degradation after
``max_pool_failures`` respawns, and graceful interrupt propagation (a
worker-side injected interrupt folds its completed prefix into the
journal before the parent re-raises).  When a
:class:`~repro.runner.faults.FaultPlan` is armed, chunks are forced to
one task so failure attribution stays per-task.

Worker-held mutable caches in this package must be registered in
:data:`_WARM_LEDGER` and cleared by :func:`reset_warm_state` — enforced
by lint rule RPR012, so no future cache can silently carry state from
one task to the next.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import weakref
from collections import deque
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ...sim.metrics import SimulationSummary
from .base import (
    BatchState,
    ExecutionBackend,
    Task,
    _execute_task,
    _worker_init,
    _WorkerOutcome,
    _WorkerTask,
    chunk_cap,
    take,
)

if TYPE_CHECKING:
    from ..runner import SweepRunner

__all__ = ["WarmBackend", "reset_warm_state"]


# ----------------------------------------------------------------------
# Worker-side warm state (lives in the worker process, module level so it
# survives across chunks; every entry here is governed by RPR012)
# ----------------------------------------------------------------------

#: Ledger of worker-held mutable caches: global name -> why it is safe
#: to hold across tasks.  Lint rule RPR012 cross-checks that every
#: module-level mutable container in ``runner/backends/`` appears here
#: *and* is cleared by :func:`reset_warm_state`.  Empty: a warm worker
#: carries no state from one task to the next.
_WARM_LEDGER: Dict[str, str] = {}


def reset_warm_state() -> None:
    """Drop every worker-held cache (fresh-process semantics).

    Called on worker start; also the RPR012 anchor: every ledger entry
    must be cleared here so 'what state can a warm worker carry?' has
    exactly one auditable answer (today: none).
    """


#: meta entry per executed task: (ok, kind, error, elapsed_s)
_TaskMeta = Tuple[bool, str, str, float]


def _run_chunk(tasks: Sequence[_WorkerTask],
               beat: Optional[Callable[[], None]] = None,
               ) -> Tuple[Tuple[_TaskMeta, ...],
                          Tuple[SimulationSummary, ...], bool]:
    """Execute one chunk in this process; returns (meta, summaries,
    interrupted), with one summary per successful task, in task order.

    ``beat`` (a distributed agent's heartbeat) is called between tasks,
    so the coordinator sees liveness at task granularity: a hung task
    stops the beats and its lease expires, no cooperation needed.
    Separated from the worker loops so tests can drive the exact
    chunk-execution path in-process.
    """
    outcomes: List[_WorkerOutcome] = []
    interrupted = False
    for i, task in enumerate(tasks):
        if i and beat is not None:
            beat()
        try:
            outcomes.append(_execute_task(task))
        except KeyboardInterrupt:
            interrupted = True
            break
    summaries = tuple(o.summary for o in outcomes
                      if o.ok and o.summary is not None)
    meta = tuple((o.ok, o.kind, o.error, o.elapsed_s) for o in outcomes)
    return meta, summaries, interrupted


def _warm_worker_main(conn: Connection) -> None:
    """Worker process entrypoint: serve chunks until 'stop' or EOF.

    Module-level for pickle-safety under spawn contexts (RPR006).
    SIGINT is ignored so a Ctrl-C in the parent's terminal takes the
    parent's graceful-shutdown path (checkpoint flush + resume hint)
    instead of racing worker deaths against it; the parent terminates
    workers explicitly.
    """
    _worker_init()
    if hasattr(signal, "SIGINT"):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    reset_warm_state()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            conn.close()
            return
        _, chunk_id, tasks = msg
        meta, summaries, interrupted = _run_chunk(tasks)
        try:
            conn.send(("done", chunk_id, meta, summaries, interrupted))
        except (BrokenPipeError, OSError):
            return


def _terminate_processes(procs: List[BaseProcess]) -> None:
    """Finalizer/cleanup helper: hard-stop every listed worker."""
    for proc in list(procs):
        try:
            if proc.is_alive():
                proc.terminate()
        except Exception:
            pass
    procs.clear()


def _mp_context() -> BaseContext:
    """Fork where available (fast, inherits imports); default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
#: Auto-sizing target: one chunk (or distributed lease) should cost about
#: this much simulation wall-clock.
_TARGET_CHUNK_S = 0.2
#: Upper bound on auto-sized warm chunks.
_MAX_CHUNK_TASKS = 64


class _ChunkSizer:
    """Auto-size chunks from an EMA of measured per-task cost.

    Starts at 1 (a probe), then targets :data:`_TARGET_CHUNK_S` of work
    per chunk, at most ``max_tasks``, so IPC overhead amortizes without
    head-of-line blocking.  The EMA survives across batches — a runner's
    second sweep starts warm here too.
    """

    def __init__(self, max_tasks: int) -> None:
        self._max_tasks = max_tasks
        self._ema_s: Optional[float] = None

    def observe(self, elapsed_s: Sequence[float]) -> None:
        for sample in elapsed_s:
            if self._ema_s is None:
                self._ema_s = sample
            else:
                self._ema_s = 0.5 * self._ema_s + 0.5 * sample

    def size(self) -> int:
        if self._ema_s is None:
            return 1
        per_task = max(self._ema_s, 1e-6)
        return max(1, min(self._max_tasks, int(_TARGET_CHUNK_S / per_task)))


#: Chunks in flight per worker: one running plus one queued behind it in
#: the worker's pipe, so finishing a chunk never leaves the worker idle
#: while the parent wakes up, folds results, and refills — with ~1 ms
#: tasks that gap is the dominant dispatch overhead.
_PREFETCH = 2


class _WarmWorker:
    """Parent-side handle of one worker process.

    ``chunks`` is the in-flight queue, oldest first: the worker executes
    pipe messages in order, so the head entry is the chunk whose results
    arrive next.
    """

    __slots__ = ("idx", "process", "conn", "chunks", "t_sub")

    def __init__(self, idx: int, process: BaseProcess, conn: Connection) -> None:
        self.idx = idx
        self.process = process
        self.conn = conn
        self.chunks: Deque[Tuple[int, List[Task]]] = deque()
        self.t_sub = 0.0  # when the worker last became busy / was folded

    def inflight(self) -> int:
        return sum(len(tasks) for _, tasks in self.chunks)


class WarmBackend(ExecutionBackend):
    """Long-lived workers fed from one shared queue (module docstring)."""

    name = "warm"

    def __init__(self) -> None:
        self._ctx = _mp_context()
        self._workers: List[_WarmWorker] = []
        self._procs: List[BaseProcess] = []      # shared with the finalizer
        self._sizer = _ChunkSizer(_MAX_CHUNK_TASKS)
        self._chunk_counter = 0
        self._finalizer = weakref.finalize(
            self, _terminate_processes, self._procs)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, idx: int) -> _WarmWorker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_warm_worker_main, args=(child_conn,),
            daemon=True, name=f"repro-warm-{idx}")
        process.start()
        child_conn.close()
        self._procs.append(process)
        return _WarmWorker(idx, process, parent_conn)

    def _ensure_workers(self, n: int) -> None:
        while len(self._workers) < n:
            self._workers.append(self._spawn(len(self._workers)))

    def _kill_worker(self, worker: _WarmWorker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        try:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
                if worker.process.is_alive():  # wedged past SIGTERM
                    worker.process.kill()
                    worker.process.join(timeout=1.0)
        except Exception:
            pass
        if worker.process in self._procs:
            self._procs.remove(worker.process)

    def _respawn(self, worker: _WarmWorker, runner: "SweepRunner") -> None:
        """Replace a dead/wedged worker with a cold one."""
        self._kill_worker(worker)
        self._workers[worker.idx] = self._spawn(worker.idx)
        runner.stats.pool_respawns += 1

    def _shutdown(self, graceful: bool) -> None:
        """Stop every worker (``graceful`` asks idle workers to exit
        cleanly first; abnormal paths go straight to terminate)."""
        for worker in self._workers:
            if graceful and not worker.chunks:
                try:
                    worker.conn.send(("stop",))
                    worker.process.join(timeout=1.0)
                except (OSError, ValueError):
                    pass
            self._kill_worker(worker)
        self._workers.clear()

    def close(self) -> None:
        self._shutdown(graceful=True)

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def run_batch(self, runner: "SweepRunner", batch: BatchState) -> None:
        queue: Deque[Task] = deque((i, 1) for i in batch.work)
        # Fault plans force single-task chunks and one chunk in flight, so
        # a failure is always attributable to the task the parent knows
        # is running, exactly as on the serial path.  Otherwise a chunk
        # is double-buffered: one queued behind the one a worker runs, so
        # the parent's fold-and-refill latency never idles the worker.
        faulty = runner.fault_plan is not None
        prefetch = 1 if faulty else _PREFETCH
        cap = chunk_cap(len(queue), runner.jobs, prefetch)
        hard_s = runner._hard_timeout_s()
        tick_s = None if hard_s is None else max(0.05, min(0.5, hard_s / 4.0))
        respawns = 0
        try:
            self._ensure_workers(runner.jobs)
            while True:
                if runner.fail_fast and batch.failures:
                    # In-flight chunks are abandoned with their workers:
                    # a stale result arriving later could corrupt the
                    # next batch, so failing fast retires the fleet.
                    self._shutdown(graceful=False)
                    return
                if respawns > runner.max_pool_failures:
                    # Graceful degradation: workers keep dying — finish
                    # the remainder serially in-process, in batch-index
                    # order.  Surviving workers' in-flight chunks are
                    # requeued first (no attempt consumed: the parent is
                    # killing them, they did nothing wrong).
                    for worker in self._workers:
                        for _, tasks in worker.chunks:
                            queue.extend(tasks)
                    self._shutdown(graceful=False)
                    for index, attempt in sorted(queue):
                        if runner.fail_fast and batch.failures:
                            return
                        runner._run_inline(index, attempt, batch.configs,
                                           batch.keys, batch.fault_keys,
                                           batch.results, batch.journal,
                                           batch.failures)
                    return

                # Breadth-first fill: every worker gets its first chunk
                # before anyone gets a prefetch top-up.
                for level in range(prefetch):
                    for worker in self._workers:
                        if (len(worker.chunks) <= level and queue
                                and not (runner.fail_fast
                                         and batch.failures)):
                            size = 1 if faulty else min(self._sizer.size(), cap)
                            if not self._dispatch(worker, runner, batch,
                                                  take(queue, size), queue):
                                respawns += 1
                busy = [w for w in self._workers if w.chunks]
                if not busy:
                    if not queue:
                        return  # batch complete; workers stay warm
                    continue    # all dispatches failed; respawn path above

                ready = _conn_wait([w.conn for w in busy], timeout=tick_s)
                now = time.monotonic()
                if not ready:
                    if hard_s is None:
                        continue
                    for worker in busy:
                        budget_s = hard_s * worker.inflight() + 1.0
                        if now - worker.t_sub > budget_s:
                            # Wedged beyond its own SIGALRM guard.
                            self._requeue_chunk(
                                worker, "timeout",
                                "warm worker unresponsive past the hard "
                                "deadline; worker replaced",
                                now, runner, batch, queue)
                            self._respawn(worker, runner)
                            respawns += 1
                    continue

                by_conn = {id(w.conn): w for w in busy}
                for conn in ready:
                    worker = by_conn[id(conn)]
                    try:
                        msg = worker.conn.recv()
                    except (EOFError, OSError):
                        # Worker died mid-chunk (crash/OOM-kill): its
                        # caches and any unsent results are gone; requeue
                        # the whole chunk and respawn cold.
                        self._requeue_chunk(
                            worker, "crash",
                            "warm worker process died mid-chunk",
                            now, runner, batch, queue)
                        self._respawn(worker, runner)
                        respawns += 1
                        continue
                    self._fold(worker, msg, runner, batch, queue)
        except BaseException:
            # Interrupt/unexpected error: in-flight workers may still be
            # computing — retire them so no stale result can ever land.
            self._shutdown(graceful=False)
            raise

    # ------------------------------------------------------------------
    def _dispatch(self, worker: _WarmWorker, runner: "SweepRunner",
                  batch: BatchState, chunk: List[Task],
                  queue: Deque[Task]) -> bool:
        """Send ``chunk`` to the worker.  Returns False when the worker
        turned out to be dead (tasks go back to the queue unconsumed)."""
        tasks = tuple(
            _WorkerTask(batch.configs[i], batch.fault_keys[i], attempt,
                        runner.timeout_s, runner.fault_plan)
            for i, attempt in chunk
        )
        self._chunk_counter += 1
        try:
            worker.conn.send(("run", self._chunk_counter, tasks))
        except (BrokenPipeError, OSError):
            # Dead before dispatch: this chunk never left the parent and
            # any chunks already queued in the pipe died unexecuted with
            # the worker, so all of them re-queue without consuming an
            # attempt (the crash path that *does* consume one is a worker
            # dying mid-chunk, detected at recv).
            queue.extend(chunk)
            for _, queued in worker.chunks:
                queue.extend(queued)
            worker.chunks.clear()
            self._respawn(worker, runner)
            return False
        if not worker.chunks:
            worker.t_sub = time.monotonic()
        worker.chunks.append((self._chunk_counter, chunk))
        runner.stats.chunks += 1
        return True

    def _requeue_chunk(self, worker: _WarmWorker, kind: str, error: str,
                       now: float, runner: "SweepRunner", batch: BatchState,
                       queue: Deque[Task]) -> None:
        """Retire a lost/wedged worker's in-flight chunks into retries.

        Everything queued in the pipe is charged an attempt: the parent
        cannot know how far into the queue the worker got before it died
        or wedged, so the conservative accounting treats all of it as a
        failed attempt (results stay correct either way — a re-run is
        bit-identical)."""
        elapsed_s = now - worker.t_sub
        while worker.chunks:
            _, chunk = worker.chunks.popleft()
            for index, attempt in chunk:
                if kind == "timeout":
                    runner.stats.timeouts += 1
                runner._retry_or_fail(index, attempt, kind, error, elapsed_s,
                                      queue, batch.keys, batch.failures)

    def _fold(self, worker: _WarmWorker, msg: Tuple[Any, ...],
              runner: "SweepRunner", batch: BatchState,
              queue: Deque[Task]) -> None:
        """Fold one chunk response into results/journal/retries."""
        tag, chunk_id, meta, summaries, interrupted = msg
        if not worker.chunks:
            raise RuntimeError(
                f"warm worker protocol violation: unsolicited {tag!r} for "
                f"chunk {chunk_id}")
        expected_id, chunk = worker.chunks.popleft()
        if tag != "done" or chunk_id != expected_id:
            raise RuntimeError(
                f"warm worker protocol violation: got {tag!r} for chunk "
                f"{chunk_id} while expecting {expected_id}")
        cursor = 0
        samples: List[float] = []
        for (index, attempt), (ok, kind, error, elapsed_s) in zip(chunk, meta):
            if ok:
                runner._complete(index, summaries[cursor], batch.keys[index],
                                 batch.results, batch.journal)
                cursor += 1
                samples.append(elapsed_s)
            else:
                if kind == "timeout":
                    runner.stats.timeouts += 1
                runner._retry_or_fail(index, attempt, kind, error, elapsed_s,
                                      queue, batch.keys, batch.failures)
        self._sizer.observe(samples)
        if worker.chunks:
            # The prefetched chunk started the moment the worker sent this
            # response; restart its watchdog clock from the fold.
            worker.t_sub = time.monotonic()
        if interrupted:
            # The worker stopped at an (injected or delivered) interrupt;
            # completed work above is already journaled — propagate the
            # graceful-shutdown path exactly like a serial interrupt.
            raise KeyboardInterrupt("sweep interrupted in a warm worker")
