"""CheckpointJournal: identity, round-trip, frame-level tolerance."""

import io
import json
import os
import sys

import pytest

from repro.runner import ResultCache, SweepRunner
from repro.runner.cache import MAGIC, frame, summary_to_dict
from repro.runner.checkpoint import CheckpointJournal, journal_status, sweep_id
from repro.runner.faults import FaultPlan
from repro.runner.keys import config_key
from repro.sim.system import run_simulation

from ..conftest import fast_config


def _summary(seed=1):
    return run_simulation(fast_config(seed=seed, duration_us=40_000.0,
                                      warmup_us=10_000.0))


class TestSweepId:
    def test_stable_and_order_sensitive(self):
        keys = ["a" * 64, "b" * 64]
        assert sweep_id(keys) == sweep_id(list(keys))
        assert sweep_id(keys) != sweep_id(keys[::-1])
        assert len(sweep_id(keys)) == 16

    def test_uncacheable_slots_hash_as_empty(self):
        assert sweep_id(["a", None]) == sweep_id(["a", ""])
        assert sweep_id(["a", None]) != sweep_id(["a"])


class TestJournalRoundTrip:
    def test_record_then_load(self, tmp_path):
        sid = sweep_id(["k1", "k2"])
        journal = CheckpointJournal(tmp_path / "j.log", sweep=sid, total=2)
        journal.start(resume=False)
        s1, s2 = _summary(1), _summary(2)
        journal.record("k1", s1)
        journal.record("k2", s2)
        journal.sync()
        journal.close()
        assert journal.recorded == 2

        reader = CheckpointJournal(tmp_path / "j.log", sweep=sid)
        assert reader.load() == {"k1": s1, "k2": s2}

    def test_resume_appends(self, tmp_path):
        sid = sweep_id(["k1", "k2"])
        journal = CheckpointJournal(tmp_path / "j.log", sweep=sid)
        journal.start(resume=False)
        journal.record("k1", _summary(1))
        journal.close()

        appender = CheckpointJournal(tmp_path / "j.log", sweep=sid)
        appender.start(resume=True)
        appender.record("k2", _summary(2))
        appender.close()
        assert sorted(appender.load()) == ["k1", "k2"]

    def test_record_after_close_is_noop(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.log", sweep="s")
        journal.start(resume=False)
        journal.close()
        journal.record("k", _summary())
        assert journal.recorded == 0
        assert not journal.is_open

    def test_delete_removes_file(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.log", sweep="s")
        journal.start(resume=False)
        journal.close()
        assert journal.exists()
        journal.delete()
        assert not journal.exists()
        journal.delete()  # idempotent


class TestJournalTolerance:
    def _journal_with_entries(self, tmp_path):
        sid = sweep_id(["k1", "k2"])
        journal = CheckpointJournal(tmp_path / "j.log", sweep=sid)
        journal.start(resume=False)
        journal.record("k1", _summary(1))
        journal.record("k2", _summary(2))
        journal.close()
        return journal

    def _frames(self, journal):
        """The journal's frames as a list of byte strings."""
        return [MAGIC + part
                for part in journal.path.read_bytes().split(MAGIC)[1:]]

    def test_torn_tail_is_skipped(self, tmp_path):
        journal = self._journal_with_entries(tmp_path)
        blob = journal.path.read_bytes()
        # Truncate mid-way through the last frame: k1 survives, k2 is lost.
        journal.path.write_bytes(blob[: blob.rindex(MAGIC) + 40])
        assert sorted(journal.load()) == ["k1"]

    def test_damaged_middle_frame_is_skipped(self, tmp_path):
        journal = self._journal_with_entries(tmp_path)
        header, k1, k2 = self._frames(journal)
        bad = bytearray(frame("k3", b'{"a":1}'))
        bad[-2] ^= 1  # fails its CRC
        journal.path.write_bytes(header + k1 + b"not a frame" + bytes(bad) + k2)
        assert sorted(journal.load()) == ["k1", "k2"]

    def test_foreign_sweep_header_ignored_wholesale(self, tmp_path):
        self._journal_with_entries(tmp_path)
        other = CheckpointJournal(tmp_path / "j.log", sweep="another-sweep")
        assert other.load() == {}

    def test_unknown_format_ignored_wholesale(self, tmp_path):
        journal = self._journal_with_entries(tmp_path)
        _, k1, k2 = self._frames(journal)
        header = {"format": 999, "sweep": journal.sweep, "label": "",
                  "total": 2}
        journal.path.write_bytes(
            frame("sweep", json.dumps(header).encode()) + k1 + k2)
        assert journal.load() == {}
        assert journal_status(journal.path) is None

    def test_missing_file_loads_empty(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "absent.log", sweep="s")
        assert not journal.exists()
        assert journal.load() == {}

    def test_schema_drifted_summary_skipped(self, tmp_path):
        journal = self._journal_with_entries(tmp_path)
        header, _, k2 = self._frames(journal)
        drifted = summary_to_dict(_summary(1))
        del drifted["delay_ci_us"]
        journal.path.write_bytes(
            header + frame("k1", json.dumps(drifted).encode()) + k2)
        assert sorted(journal.load()) == ["k2"]

    def test_status_counts_without_decoding(self, tmp_path):
        journal = self._journal_with_entries(tmp_path)
        status = journal_status(journal.path)
        assert status is not None
        assert status["sweep"] == journal.sweep
        assert status["done"] == 2


class TestJournalSharesTheCacheFormat:
    def test_record_appends_the_bytes_the_cache_wrote(self, tmp_path):
        summary = _summary(1)
        key = "a" * 64
        cache = ResultCache(tmp_path / "cache")
        journal = CheckpointJournal(tmp_path / "j.log", sweep="s")
        journal.start(resume=False)
        cache.put(key, summary)
        journal.record(key, summary)
        journal.close()
        cached = (tmp_path / "cache" / "results.log").read_bytes()
        assert journal.path.read_bytes().endswith(cached)

    def test_interrupt_commits_before_the_hint(self, tmp_path, monkeypatch):
        """Cut the cache and the journal back to their fsynced lengths (what
        a power loss right after the resume hint keeps): resume still
        serves every task completed before the interrupt."""
        configs = [fast_config(seed=s, duration_us=40_000.0,
                               warmup_us=10_000.0) for s in range(4)]
        keys = [config_key(c) for c in configs]
        synced, events = {}, []
        real = os.fsync

        def fsync(fd):
            st = os.fstat(fd)
            synced[st.st_ino] = st.st_size
            events.append(st.st_ino)
            real(fd)

        class Stderr(io.StringIO):
            def write(self, text):
                events.append("hint")
                return super().write(text)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(sys, "stderr", Stderr())
        plan = FaultPlan(seed=1, interrupt=1.0, max_faulty_attempts=None,
                         only_keys=(keys[2],))
        runner = SweepRunner(jobs=0, cache=ResultCache(tmp_path),
                             fault_plan=plan)
        try:
            runner.run_many(configs)
        except KeyboardInterrupt:
            pass
        journal = tmp_path / "checkpoints" / f"{sweep_id(keys)}.log"
        logs = (tmp_path / "results.log", journal)
        hint = events.index("hint")
        assert {os.stat(p).st_ino for p in logs} <= set(events[:hint])
        for path in logs:
            length = synced[os.stat(path).st_ino]
            path.write_bytes(path.read_bytes()[:length])
        resumed = SweepRunner(jobs=0, checkpoint_dir=tmp_path / "checkpoints",
                              resume=True)
        results = resumed.run_many(configs)
        assert results == [run_simulation(c) for c in configs]
        assert resumed.stats.resumed == 2
        assert ResultCache(tmp_path).get(keys[1]) == results[1]


class TestJournalOnlyForWork:
    def _configs(self):
        return [fast_config(seed=s, duration_us=40_000.0, warmup_us=10_000.0)
                for s in range(3)]

    def test_all_hit_batch_touches_no_journal(self, tmp_path, monkeypatch):
        configs = self._configs()
        SweepRunner(jobs=0, cache=ResultCache(tmp_path)).run_many(configs)
        checkpoints = tmp_path / "checkpoints"
        if checkpoints.exists():
            checkpoints.rmdir()  # the first run leaves it empty
        started = []
        monkeypatch.setattr(CheckpointJournal, "start",
                            lambda self, resume: started.append(self))
        for resume in (False, True):
            runner = SweepRunner(jobs=0, cache=ResultCache(tmp_path),
                                 resume=resume)
            assert len(runner.run_many(configs)) == 3
            assert runner.stats.cache_hits == 3
        assert started == []
        assert not checkpoints.exists()

    def test_resume_loads_the_journal_before_the_cache(self, tmp_path):
        configs = self._configs()
        keys = [config_key(c) for c in configs]
        SweepRunner(jobs=0, cache=ResultCache(tmp_path)).run_many(configs)
        checkpoints = tmp_path / "checkpoints"
        plan = FaultPlan(seed=1, interrupt=1.0, max_faulty_attempts=None,
                         only_keys=(keys[1],))
        interrupted = SweepRunner(jobs=0, cache=None, fault_plan=plan,
                                  checkpoint_dir=checkpoints)
        try:
            interrupted.run_many(configs)
        except KeyboardInterrupt:
            pass
        journal = checkpoints / f"{sweep_id(keys)}.log"
        assert journal_status(journal)["done"] == 1
        resumed = SweepRunner(jobs=0, cache=ResultCache(tmp_path), resume=True)
        results = resumed.run_many(configs)
        assert results == [run_simulation(c) for c in configs]
        assert (resumed.stats.resumed, resumed.stats.cache_hits,
                resumed.stats.executed) == (1, 2, 0)
        assert not journal.exists()  # complete: nothing left to resume

    @pytest.mark.parametrize("resume", [False, True])
    def test_all_hit_batch_deletes_a_stale_journal(self, tmp_path, resume):
        # A journal of this sweep is left behind (here header-only, which a
        # resume loads as empty) while the cache holds every result.
        configs = self._configs()
        keys = [config_key(c) for c in configs]
        SweepRunner(jobs=0, cache=ResultCache(tmp_path)).run_many(configs)
        path = tmp_path / "checkpoints" / f"{sweep_id(keys)}.log"
        stale = CheckpointJournal(path, sweep=sweep_id(keys), total=3)
        stale.start(resume=False)
        stale.close()
        assert journal_status(path)["done"] == 0
        runner = SweepRunner(jobs=0, cache=ResultCache(tmp_path),
                             resume=resume)
        runner.run_many(configs)
        assert runner.stats.cache_hits == 3
        assert not path.exists()
