"""Tests for the persistent result cache: the append-only record log."""

import functools
import json
import os

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.runner import FaultPlan, SweepRunner
from repro.runner.cache import (
    MAGIC,
    ResultCache,
    decode_summary,
    default_cache_dir,
    frame,
    summary_from_dict,
    summary_to_dict,
)
from repro.runner.keys import config_key
from repro.sim.system import run_simulation

from ..conftest import fast_config


def _tiny_config(seed=7):
    return fast_config(seed=seed, duration_us=40_000.0, warmup_us=10_000.0)


def _tiny_summary(seed=7):
    return run_simulation(_tiny_config(seed))


def _damaged(key, body=b'{"x":1}'):
    """A whole frame whose payload fails its CRC."""
    blob = bytearray(frame(key, body))
    blob[-2] ^= 1
    return bytes(blob)


class TestSummaryRoundTrip:
    def test_round_trip_is_identity(self):
        summary = _tiny_summary()
        data = json.loads(json.dumps(summary_to_dict(summary)))
        assert summary_from_dict(data) == summary

    def test_tuples_and_int_keys_restored(self):
        summary = _tiny_summary()
        restored = summary_from_dict(json.loads(json.dumps(summary_to_dict(summary))))
        assert isinstance(restored.delay_ci_us, tuple)
        assert isinstance(restored.utilization_per_proc, tuple)
        assert all(isinstance(k, int) for k in restored.per_stream_mean_delay_us)

    def test_decoder_accepts_exactly_the_summary_fields(self):
        """A body missing a field or carrying an unknown one does not
        decode (the entry reads as a miss and is recomputed)."""
        data = summary_to_dict(_tiny_summary())
        for drifted in ({**data, "extra": 1},
                        {k: v for k, v in data.items() if k != "delay_ci_us"},
                        {k: v for k, v in data.items()
                         if k != "migrations_total"},
                        {**{k: v for k, v in data.items()
                            if k != "ooo_depth_counts"}, "extra": {}}):
            assert decode_summary(json.dumps(drifted).encode()) is None


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        summary = _tiny_summary()
        key = config_key(fast_config())
        assert cache.get(key) is None
        cache.put(key, summary)
        assert cache.get(key) == summary
        assert len(cache) == 1

    def test_single_log_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_key(fast_config())
        cache.put(key, _tiny_summary())
        assert [p.name for p in tmp_path.iterdir()] == ["results.log"]
        blob = (tmp_path / "results.log").read_bytes()
        assert blob.startswith(MAGIC)
        assert key.encode() in blob

    def test_put_is_atomic_no_temp_debris(self, tmp_path):
        cache = ResultCache(tmp_path)
        summary = _tiny_summary()
        keys = [config_key(fast_config(seed=s)) for s in (1, 2)]
        for key in keys:
            cache.put(key, summary)
        blob = (tmp_path / "results.log").read_bytes()
        # Exactly the two frames, back to back, and nothing else on disk.
        assert blob.count(MAGIC) == 2
        assert blob.index(MAGIC, 1) == len(blob) // 2
        assert [p.name for p in tmp_path.iterdir()] == ["results.log"]

    def test_standalone_put_is_visible_to_a_fresh_cache(self, tmp_path):
        key = config_key(fast_config())
        summary = _tiny_summary()
        ResultCache(tmp_path).put(key, summary)
        assert ResultCache(tmp_path).get(key) == summary

    def test_other_writers_appends_visible_on_miss(self, tmp_path):
        reader = ResultCache(tmp_path)
        key = config_key(fast_config())
        assert reader.get(key) is None           # index built, log absent
        summary = _tiny_summary()
        ResultCache(tmp_path).put(key, summary)  # another writer appends
        assert reader.get(key) == summary        # the miss re-scans the tail

    def test_first_valid_frame_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_key(fast_config())
        first, second = _tiny_summary(1), _tiny_summary(2)
        cache.put(key, first)
        cache.put(key, second)
        assert ResultCache(tmp_path).get(key) == first
        assert len(ResultCache(tmp_path)) == 1

    def test_corrupt_entry_is_a_miss_and_a_reput_heals(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_key(fast_config())
        cache.log.append(_damaged(key))
        assert cache.get(key) is None
        summary = _tiny_summary()
        cache.put(key, summary)        # first *valid* frame wins
        assert cache.get(key) == summary
        assert ResultCache(tmp_path).get(key) == summary

    def test_unreadable_entry_is_quarantined_not_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_key(fast_config())
        bad = _damaged(key)
        cache.log.append(bad)
        assert cache.get(key) is None
        # The evidence was copied to quarantine/; the log is never truncated.
        assert cache.quarantined_entries() == 1
        parked = list(cache.quarantine_dir.iterdir())
        assert parked[0].read_bytes() == bad
        assert (tmp_path / "results.log").read_bytes() == bad
        assert cache.stats.errors == 1
        assert cache.stats.quarantined == 1
        # Quarantined frames are not cache entries.
        assert len(cache) == 0

    def test_repeat_quarantine_gets_unique_names(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_key(fast_config())
        for _ in range(3):
            cache.log.append(_damaged(key))
            assert cache.get(key) is None
        assert cache.quarantined_entries() == 3
        # A fresh scan of the same damage reuses the offset-named files.
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.quarantined == 3
        assert fresh.quarantined_entries() == 3
        assert cache.clear_quarantine() == 3
        assert cache.quarantined_entries() == 0

    def test_non_object_json_entry_is_uniform_miss(self, tmp_path):
        # A frame that passes its CRC but holds no summary (a JSON list):
        # same path as damage (errors counter + quarantine + miss).
        cache = ResultCache(tmp_path)
        key = config_key(fast_config())
        cache.log.append(frame(key, json.dumps(["not", "an"]).encode()))
        assert cache.get(key) is None
        assert cache.stats.errors == 1
        assert cache.quarantined_entries() == 1
        summary = _tiny_summary()
        cache.put(key, summary)
        assert cache.get(key) == summary

    def test_schema_drifted_frame_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_key(fast_config())
        data = summary_to_dict(_tiny_summary())
        del data["delay_ci_us"]
        cache.log.append(frame(key, json.dumps(data).encode()))
        assert cache.get(key) is None
        assert cache.stats.errors == 1

    def test_stats_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_key(fast_config())
        assert cache.get(key) is None           # plain miss: no error
        cache.put(key, _tiny_summary())
        assert cache.get(key) is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1
        assert cache.stats.errors == 0
        assert cache.stats.quarantined == 0

    def test_truncated_entry_self_heals_as_miss(self, tmp_path):
        """Crash mid-append: a frame cut short reads as not yet written
        (a miss, not damage) until a later append follows it; then it is
        quarantined and the new frame is served."""
        key = config_key(fast_config())
        summary = _tiny_summary()
        ResultCache(tmp_path).put(key, summary)
        path = tmp_path / "results.log"
        blob = path.read_bytes()
        for cut in (1, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            cache = ResultCache(tmp_path)
            assert cache.get(key) is None        # torn frame is a miss...
            assert cache.stats.errors == 0       # ...not yet damage
            cache.put(key, summary)              # next append self-heals
            assert cache.get(key) == summary
            assert cache.stats.quarantined == 1

    def test_unknown_format_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_key(fast_config())
        cache.put(key, _tiny_summary())
        path = tmp_path / "results.log"
        path.write_bytes(b"\xd2\xa7RX" + path.read_bytes()[len(MAGIC):])
        assert ResultCache(tmp_path).get(key) is None

    def test_corrupt_fault_writes_a_whole_failing_frame(self, tmp_path):
        keys = [config_key(fast_config(seed=s)) for s in (1, 2)]
        summary = _tiny_summary()
        writer = ResultCache(tmp_path, fault_plan=FaultPlan(
            corrupt=1.0, max_faulty_attempts=None, only_keys=(keys[0],)))
        writer.put(keys[0], summary)
        writer.put(keys[1], summary)
        # The log stays parseable: the damaged frame is skipped and the
        # frame after it is served.
        reader = ResultCache(tmp_path)
        assert reader.get(keys[0]) is None
        assert reader.get(keys[1]) == summary
        assert reader.stats.quarantined == 1

    def test_prune_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        summary = _tiny_summary()
        for seed in (1, 2, 3):
            cache.put(config_key(fast_config(seed=seed)), summary)
        assert len(cache) == 3
        assert cache.prune() == 3
        assert len(cache) == 0
        assert len(ResultCache(tmp_path)) == 0

    def test_default_dir_env_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"


# ----------------------------------------------------------------------
# Crash consistency
# ----------------------------------------------------------------------
def _record_fsyncs(monkeypatch):
    """Patch ``os.fsync`` to log ``(inode, file length)`` at each call."""
    calls = []
    real = os.fsync

    def fsync(fd):
        st = os.fstat(fd)
        calls.append((st.st_ino, st.st_size))
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


class TestGroupCommit:
    def test_clean_run_many_fsyncs_each_log_at_most_once(self, tmp_path,
                                                         monkeypatch):
        calls = _record_fsyncs(monkeypatch)
        configs = [_tiny_config(seed) for seed in range(30)]
        SweepRunner(jobs=0, cache=ResultCache(tmp_path)).run_many(configs)
        inodes = [ino for ino, _ in calls]
        assert len(inodes) == len(set(inodes)) <= 2
        assert os.stat(tmp_path / "results.log").st_ino in inodes

    def test_results_returned_by_run_many_survive_a_crash(self, tmp_path,
                                                          monkeypatch):
        """Cut the log back to each fsync point (what a power loss keeps)
        and to a point past it (a torn unsynced append): every summary a
        completed ``run_many`` returned reads back equal."""
        calls = _record_fsyncs(monkeypatch)
        runner = SweepRunner(jobs=0, cache=ResultCache(tmp_path))
        batches = [[_tiny_config(seed) for seed in range(k, k + 3)]
                   for k in (0, 3, 6)]
        returned = []
        log = tmp_path / "results.log"
        synced = []
        for batch in batches:
            returned.append(list(zip(batch, runner.run_many(batch))))
            ino = os.stat(log).st_ino
            synced.append(max(size for i, size in calls if i == ino))
        blob = log.read_bytes()
        for k, length in enumerate(synced):
            nxt = synced[k + 1] if k + 1 < len(synced) else length
            for cut in {length, (length + nxt) // 2}:
                log.write_bytes(blob[:cut])
                reopened = ResultCache(tmp_path)
                for done in returned[:k + 1]:
                    for config, summary in done:
                        assert reopened.get(config_key(config)) == summary


@functools.lru_cache(maxsize=1)
def _filled_log():
    """Ten frames of distinct keys: (log bytes, [(key, summary, start, end)])."""
    summaries = [_tiny_summary(seed) for seed in range(10)]
    records, blob = [], b""
    for seed, summary in enumerate(summaries):
        key = config_key(_tiny_config(seed))
        body = json.dumps(summary_to_dict(summary)).encode()
        start, blob = len(blob), blob + frame(key, body)
        records.append((key, summary, start, len(blob)))
    return blob, records


class TestScanRuleFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damage_never_serves_wrong_or_hides_intact(self, tmp_path_factory,
                                                       data):
        """Random byte flips plus a torn tail, then a later append.  No
        get returns a summary other than the one put; every undamaged
        frame is still served, even after the damage; and each damaged
        frame is quarantined exactly once.  Flips hit every other frame
        only: two adjacent frames whose boundary magic is destroyed are
        one indistinguishable span, quarantined as one file."""
        blob, records = _filled_log()
        keep = data.draw(st.integers(0, len(records)), label="frames kept")
        torn = keep < len(records) and data.draw(st.booleans(), label="torn")
        length = records[keep - 1][3] if keep else 0
        if torn:  # cut inside frame `keep`, past its magic
            start, end = records[keep][2], records[keep][3]
            length = data.draw(st.integers(start + len(MAGIC), end - 1),
                               label="cut")
        damaged = bytearray(blob[:length])
        hit = set()
        for i in data.draw(st.sets(st.integers(0, max(0, keep - 1)),
                                   max_size=4), label="flipped frames"):
            if i % 2 or i >= keep:
                continue
            key, _, start, end = records[i]
            pos = data.draw(st.integers(start, end - 1), label="flip at")
            damaged[pos] ^= data.draw(st.integers(1, 255), label="xor")
            hit.add(i)
        root = tmp_path_factory.mktemp("fuzz")
        (root / "results.log").write_bytes(bytes(damaged))
        sentinel_key = "f" * 64
        sentinel = records[0][1]
        ResultCache(root).put(sentinel_key, sentinel)

        cache = ResultCache(root)
        for i, (key, summary, _, _) in enumerate(records):
            got = cache.get(key)
            assert got is None or got == summary
            if i < keep and i not in hit:
                assert got == summary
        assert cache.get(sentinel_key) == sentinel
        assert cache.stats.quarantined == len(hit) + int(torn)
        assert cache.quarantined_entries() == len(hit) + int(torn)
