"""Tests for the distributed backend: options, commit gate, chaos twins.

The lease table and transports have their own unit files
(``test_lease.py``, ``test_transport.py``); the full chaos matrix runs
as ``repro faults --backend distributed``.  This file covers the pieces
in between: options validation and the backend factory, happy-path
bit-identity over tcp, the idempotent commit gate (duplicate
discard, mismatch quarantine + loud abort), the stale-result regression
from the issue (a partitioned-then-healed worker's late result for an
already-committed task is discarded, not double-counted), interrupt →
``repro sweep status`` → resume, and an externally launched
``repro sweep worker`` joining over tcp.
"""

import dataclasses
import json
import socket
import time

import pytest

from repro import cli
from repro.runner import (
    BACKEND_NAMES,
    DistributedOptions,
    FaultPlan,
    ResultCache,
    SweepExecutionError,
    SweepRunner,
    make_backend,
)
from repro.runner.backends import fleet as fleet_mod
from repro.runner.backends.base import BatchState
from repro.runner.backends.distributed import DistributedBackend
from repro.runner.backends.fleet import _mp_context
from repro.runner.cache import encode_body
from repro.runner.faults import _grid_keys, _scenario_grid


def _serial(configs):
    return SweepRunner(jobs=0).run_many(configs)


def _opts(**overrides):
    overrides.setdefault("lease_timeout_s", 30.0)
    overrides.setdefault("idle_poll_s", 0.1)
    return DistributedOptions(**overrides)


# ----------------------------------------------------------------------
# Options / factory
# ----------------------------------------------------------------------
class TestOptions:
    def test_registered_backend(self):
        assert "distributed" in BACKEND_NAMES
        assert isinstance(make_backend("distributed"), DistributedBackend)

    def test_unknown_transport_rejected(self):
        # tcp is the only wire: a transport choice fails loudly instead
        # of being ignored.
        with pytest.raises(TypeError, match="transport"):
            DistributedOptions(transport="tcp")

    @pytest.mark.parametrize("field,bad", [
        ("lease_timeout_s", 0.0),
        ("tick_s", 0.0),
        ("idle_poll_s", -0.5),
    ])
    def test_bad_tuning_rejected(self, field, bad):
        with pytest.raises(ValueError):
            DistributedOptions(**{field: bad})

    @pytest.mark.parametrize("field", ["target_lease_s", "max_lease_tasks",
                                       "lease_tasks"])
    def test_lease_sizing_is_not_a_knob(self, field):
        # Auto-sized leases aim at a fixed target under a fixed cap.
        with pytest.raises(TypeError, match=field):
            DistributedOptions(**{field: 1})

    def test_options_cannot_be_mutated(self):
        opts = DistributedOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.bind = "0.0.0.0:0"


# ----------------------------------------------------------------------
# Happy path: bit-identity over tcp
# ----------------------------------------------------------------------
class TestHappyPath:
    def test_tcp_matches_serial(self):
        configs = _scenario_grid(4, seed=11)
        runner = SweepRunner(jobs=2, backend="distributed",
                             distributed_options=_opts())
        try:
            results = runner.run_many(configs)
        finally:
            runner.close()
        assert results == _serial(configs)
        assert runner.stats.chunks >= 1
        assert runner.stats.failures == 0
        assert runner.stats.lease_expiries == 0

    def test_fixed_single_task_leases_match_serial(self, monkeypatch):
        monkeypatch.setattr(fleet_mod, "_MAX_LEASE_TASKS", 1)
        configs = _scenario_grid(5, seed=13)
        runner = SweepRunner(jobs=2, backend="distributed",
                             distributed_options=_opts())
        try:
            results = runner.run_many(configs)
        finally:
            runner.close()
        assert results == _serial(configs)
        # One task per lease: at least one lease per task executed.
        assert runner.stats.chunks >= runner.stats.executed

    def test_auto_sized_leases_are_capped(self, monkeypatch):
        # 16 tasks on 2 agents x 2 leases: the sizer would ask for 4
        # tasks per lease once it has a sample, but chunk_cap holds every
        # lease of the batch to ceil(16 / 8) = 2.  Capped, the at most 4
        # one-task probes leave at least 12 tasks for 2-task leases:
        # >= 9 leases in all.  Uncapped, 4-task leases would finish the
        # batch in at most 7.
        monkeypatch.setattr(fleet_mod, "_TARGET_CHUNK_S", 1e9)
        monkeypatch.setattr(fleet_mod, "_MAX_LEASE_TASKS", 4)
        configs = _scenario_grid(16, seed=14)
        runner = SweepRunner(jobs=2, backend="distributed",
                             distributed_options=_opts())
        try:
            results = runner.run_many(configs)
        finally:
            runner.close()
        assert results == _serial(configs)
        assert runner.stats.chunks >= 9


# ----------------------------------------------------------------------
# The idempotent commit gate (pure units, no worker processes)
# ----------------------------------------------------------------------
def _gate_fixture(tmp_path, with_cache):
    configs = _scenario_grid(1, seed=21)
    summary = _serial(configs)[0]
    cache = ResultCache(tmp_path / "cache") if with_cache else None
    runner = SweepRunner(jobs=2, backend="distributed", cache=cache,
                         checkpoint_dir=None if with_cache
                         else tmp_path / "ckpt")
    backend = DistributedBackend(_opts())
    batch = BatchState([0], configs, [None], ["fk0"], [None], None, [])
    return runner, backend, batch, summary


class TestCommitGate:
    def test_first_write_wins_then_identical_duplicate_discarded(
            self, tmp_path):
        runner, backend, batch, summary = _gate_fixture(tmp_path, True)
        body = encode_body(summary)
        assert backend._commit(0, summary, body, runner, batch) is True
        assert batch.results[0] == summary
        assert runner.stats.executed == 1
        # Same bytes again: absorbed, counted, not recommitted.
        assert backend._commit(0, summary, body, runner, batch) is False
        assert runner.stats.dup_results == 1
        assert runner.stats.executed == 1

    def test_mismatch_quarantined_and_aborts(self, tmp_path, capsys):
        runner, backend, batch, summary = _gate_fixture(tmp_path, True)
        backend._commit(0, summary, encode_body(summary), runner, batch)
        divergent = dataclasses.replace(summary,
                                        n_packets=summary.n_packets + 1)
        with pytest.raises(RuntimeError, match="determinism contract"):
            backend._commit(0, divergent, encode_body(divergent), runner,
                            batch)
        # The committed result stands; the divergent payload is parked.
        assert batch.results[0] == summary
        parked = list(runner.cache.quarantine_dir.glob("mismatch-*.json"))
        assert len(parked) == 1
        payload = json.loads(parked[0].read_text())
        assert payload["task_index"] == 0
        assert payload["committed"] != payload["duplicate"]
        # `repro cache` surfaces the quarantine ledger, mismatches included.
        assert cli.main(["cache", "--cache-dir",
                         str(runner.cache.root)]) == 0
        out = capsys.readouterr().out
        assert "quarantined: 1 entries" in out
        assert str(runner.cache.quarantine_dir) in out

    def test_mismatch_without_cache_parks_next_to_checkpoints(
            self, tmp_path):
        runner, backend, batch, summary = _gate_fixture(tmp_path, False)
        backend._commit(0, summary, encode_body(summary), runner, batch)
        divergent = dataclasses.replace(summary,
                                        n_packets=summary.n_packets + 1)
        with pytest.raises(RuntimeError, match="quarantined at"):
            backend._commit(0, divergent, encode_body(divergent), runner,
                            batch)
        parked = list((tmp_path / "ckpt" / "quarantine").glob("*.json"))
        assert len(parked) == 1


# ----------------------------------------------------------------------
# Regression: a partitioned-then-healed worker's stale result for an
# already-committed task is discarded, not double-counted (issue item).
# ----------------------------------------------------------------------
class TestStaleResultRegression:
    def test_stale_result_discarded_not_double_counted(self):
        configs = _scenario_grid(4, seed=31)
        reference = _serial(configs)
        # Hold w0.1's first result frame past its lease budget — the
        # partitioned/slow-worker shape: the lease expires, the task
        # re-executes elsewhere and commits, then the held (now stale)
        # result finally lands and must byte-compare + discard.
        plan = FaultPlan(seed=31, delay=1.0, max_faulty_attempts=1,
                         only_keys=("w0.1|result",), delay_polls=40)
        runner = SweepRunner(
            jobs=2, backend="distributed", retries=2, backoff_base_s=0.0,
            fault_plan=plan,
            distributed_options=_opts(lease_timeout_s=0.5))
        try:
            results = runner.run_many(configs)
        finally:
            runner.close()
        assert results == reference
        assert runner.stats.lease_expiries >= 1
        assert runner.stats.dup_results + runner.stats.stale_results >= 1
        # Exactly one commit per task — the stale delivery added nothing.
        assert runner.stats.executed == len(configs)
        assert runner.stats.failures == 0


# ----------------------------------------------------------------------
# Interrupt → `repro sweep status` → resume
# ----------------------------------------------------------------------
def _status_without_live_coordinator(ckpt, journal, capsys):
    """Assert no state file lies beside ``journal`` and `repro sweep
    status` says so; returns the status output."""
    assert not journal.with_name(journal.stem + ".state.json").exists()
    assert cli.main(["sweep", "status", "--checkpoint-dir", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "no live coordinator; resume with --resume" in out
    assert " coordinator:" not in out
    return out


class TestInterruptStatusResume:
    def test_interrupt_persists_state_status_reads_it_resume_finishes(
            self, tmp_path, capsys):
        configs = _scenario_grid(6, seed=41)
        reference = _serial(configs)
        keys = _grid_keys(configs)
        ckpt = tmp_path / "ckpt"
        plan = FaultPlan(seed=41, interrupt=1.0, max_faulty_attempts=None,
                         only_keys=(keys[3],))
        runner = SweepRunner(jobs=2, backend="distributed",
                             checkpoint_dir=ckpt, fault_plan=plan,
                             distributed_options=_opts())
        with pytest.raises(KeyboardInterrupt):
            try:
                runner.run_many(configs)
            finally:
                runner.close()
        capsys.readouterr()  # swallow the runner's resume hint
        journals = list(ckpt.glob("*.log"))
        assert len(journals) == 1
        # The journal is the persisted state; the live state file went
        # with the coordinator, so status hints at --resume.
        out = _status_without_live_coordinator(ckpt, journals[0], capsys)
        assert f"/{len(configs)} done" in out

        # Prefix match selects the same journal, verbose form.
        assert cli.main(["sweep", "status", journals[0].stem[:6],
                         "--checkpoint-dir", str(ckpt)]) == 0
        capsys.readouterr()

        resumed = SweepRunner(jobs=0, checkpoint_dir=ckpt, resume=True)
        results = resumed.run_many(configs)
        assert results == reference
        assert resumed.stats.resumed >= 1
        assert resumed.stats.resumed + resumed.stats.executed \
            == len(configs)
        # Clean completion deletes the journal — nothing left to resume.
        assert not list(ckpt.glob("*.log"))

    @pytest.mark.parametrize("exit_path", ["interrupt", "fail-fast"])
    def test_warm_sweep_leaves_no_live_state(self, exit_path, tmp_path,
                                             capsys):
        # A warm sweep cut short at its second task (a one-task probe
        # lease, so most of the batch is still queued), by an interrupt
        # or by a crash that fail_fast turns into a halt (the crash
        # force-writes the state file first): no coordinator outlives
        # run_many, so neither may its state file.
        configs = _scenario_grid(12, seed=43)
        keys = _grid_keys(configs)
        ckpt = tmp_path / "ckpt"
        plan = FaultPlan(seed=43, max_faulty_attempts=None,
                         only_keys=(keys[1],),
                         **{"interrupt" if exit_path == "interrupt"
                            else "crash": 1.0})
        runner = SweepRunner(jobs=2, backend="warm", checkpoint_dir=ckpt,
                             fault_plan=plan,
                             fail_fast=exit_path == "fail-fast")
        with pytest.raises((KeyboardInterrupt, SweepExecutionError)):
            try:
                runner.run_many(configs)
            finally:
                runner.close()
        capsys.readouterr()
        journals = list(ckpt.glob("*.log"))
        assert len(journals) == 1
        _status_without_live_coordinator(ckpt, journals[0], capsys)

    def test_status_empty_dir_and_unknown_prefix(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert cli.main(["sweep", "status",
                         "--checkpoint-dir", str(empty)]) == 0
        assert "no checkpointed sweeps" in capsys.readouterr().out
        assert cli.main(["sweep", "status", "deadbeef",
                         "--checkpoint-dir", str(empty)]) == 1
        assert "no journal matching" in capsys.readouterr().err


# ----------------------------------------------------------------------
# External worker join (`repro sweep worker` over tcp)
# ----------------------------------------------------------------------
def _free_loopback_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _join_once_listening(address: str) -> None:
    """Child-process entrypoint: wait until the coordinator's ``run_many``
    has bound ``address``, then join the sweep exactly as a user would,
    through the CLI (module level so every mp start method can spawn it).
    """
    host, _, port = address.rpartition(":")
    for _ in range(600):  # up to ~30 s for the coordinator to bind
        try:
            socket.create_connection((host, int(port)), timeout=1.0).close()
            break
        except OSError:
            time.sleep(0.05)
    raise SystemExit(cli.main([
        "sweep", "worker", "--address", address, "--id", "ext0",
    ]))


class TestExternalWorker:
    def test_external_cli_worker_serves_the_whole_sweep(self):
        configs = _scenario_grid(4, seed=51)
        address = f"127.0.0.1:{_free_loopback_port()}"
        worker = _mp_context().Process(target=_join_once_listening,
                                       args=(address,), daemon=True)
        worker.start()
        try:
            runner = SweepRunner(
                jobs=2, backend="distributed",
                distributed_options=_opts(
                    bind=address, spawn_agents=False, tick_s=0.02))
            try:
                results = runner.run_many(configs)
            finally:
                runner.close()  # sends stop; the worker exits cleanly
            assert results == _serial(configs)
            assert runner.stats.failures == 0
            assert runner.stats.chunks >= 1
            worker.join(timeout=30)
            assert worker.exitcode == 0
        finally:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5)
