"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "e99"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.paradigm == "locking"
        assert args.rate == 12_000.0

    @pytest.mark.parametrize("argv", [
        ["run", "e06"],
        ["all"],
        ["csv", "out"],
    ])
    def test_runner_flag_defaults(self, argv):
        args = build_parser().parse_args(argv)
        assert args.jobs == 0
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_runner_flags_parse(self):
        args = build_parser().parse_args(
            ["all", "--jobs", "4", "--no-cache", "--cache-dir", "/tmp/c"])
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/c"

    @pytest.mark.parametrize("argv", [
        ["run", "e06"],
        ["all"],
        ["verify", "check"],
    ])
    def test_fault_tolerance_flag_defaults(self, argv):
        args = build_parser().parse_args(argv)
        assert args.timeout is None
        assert args.retries == 0
        assert args.resume is False
        assert args.fail_fast is False

    def test_fault_tolerance_flags_parse(self):
        args = build_parser().parse_args(
            ["all", "--timeout", "120", "--retries", "3", "--resume",
             "--fail-fast"])
        assert args.timeout == 120.0
        assert args.retries == 3
        assert args.resume is True
        assert args.fail_fast is True

    def test_fault_tolerance_flags_reach_the_runner(self):
        from repro.cli import _make_runner

        args = build_parser().parse_args(
            ["all", "--timeout", "60", "--retries", "2", "--resume",
             "--no-cache"])
        runner = _make_runner(args)
        assert runner.timeout_s == 60.0
        assert runner.retries == 2
        assert runner.resume is True
        assert runner.fail_fast is False

    def test_faults_subcommand_parses(self):
        args = build_parser().parse_args(["faults"])
        assert args.seed == 1 and args.jobs == 2 and args.workdir is None
        args = build_parser().parse_args(
            ["faults", "--seed", "9", "--jobs", "4", "--workdir", "/tmp/w"])
        assert args.seed == 9 and args.jobs == 4 and args.workdir == "/tmp/w"

    def test_with_extras_flag(self):
        assert build_parser().parse_args(["all", "--with-extras"]).with_extras
        assert build_parser().parse_args(["csv", "o", "--with-extras"]).with_extras
        assert not build_parser().parse_args(["all"]).with_extras

    def test_check_invariants_flag(self):
        assert not build_parser().parse_args(["all"]).check_invariants
        assert build_parser().parse_args(
            ["all", "--check-invariants"]).check_invariants
        assert build_parser().parse_args(
            ["simulate", "--check-invariants"]).check_invariants

    def test_verify_subcommands_parse(self):
        args = build_parser().parse_args(["verify", "record"])
        assert args.verify_command == "record"
        assert args.ids is None and args.seed == 1 and not args.full
        args = build_parser().parse_args(
            ["verify", "check", "--ids", "e01", "e02", "--rtol", "0.01",
             "--goldens", "/tmp/g", "--no-cache"])
        assert args.verify_command == "check"
        assert args.ids == ["e01", "e02"]
        assert args.rtol == 0.01
        assert args.goldens == "/tmp/g"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify"])  # subcommand required
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "record", "--ids", "e99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e01" in out and "e14" in out

    def test_run_model_experiment(self, capsys):
        assert main(["run", "e02"]) == 0
        out = capsys.readouterr().out
        assert "u(R; L=32)" in out

    def test_simulate(self, capsys):
        assert main([
            "simulate", "--rate", "6000", "--streams", "4",
            "--duration-ms", "80", "--policy", "mru",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean delay (us)" in out
        assert "locking/mru" in out

    def test_simulate_ips(self, capsys):
        assert main([
            "simulate", "--paradigm", "ips", "--policy", "ips-wired",
            "--rate", "6000", "--duration-ms", "60",
        ]) == 0
        assert "ips/ips-wired" in capsys.readouterr().out


def test_module_entry_point():
    import repro.__main__  # noqa: F401 -- import would sys.exit; just check


class TestCsvCommand:
    def test_writes_model_experiment_csvs(self, tmp_path, monkeypatch, capsys):
        # Restrict to the cheap model-level experiments for the unit test.
        import repro.cli as cli
        monkeypatch.setattr(cli, "EXPERIMENT_IDS", ("e02", "e03"))
        assert main(["csv", str(tmp_path), "--no-cache"]) == 0
        assert (tmp_path / "e02.csv").exists()
        assert (tmp_path / "e03.csv").exists()
        assert "[runner]" in capsys.readouterr().out

    def test_with_extras_uses_full_id_list(self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli
        monkeypatch.setattr(cli, "EXPERIMENT_IDS", ("e02",))
        monkeypatch.setattr(cli, "ALL_IDS", ("e02", "e03"))
        outdir = tmp_path / "extras"
        assert main(["csv", str(outdir), "--with-extras", "--no-cache"]) == 0
        assert (outdir / "e02.csv").exists()
        assert (outdir / "e03.csv").exists()


class TestRunnerIntegration:
    def test_run_prints_runner_summary(self, capsys):
        assert main(["run", "e02", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "[runner]" in out
        assert "cache off" in out

    def test_all_prints_per_experiment_timing(self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli
        monkeypatch.setattr(cli, "EXPERIMENT_IDS", ("e02",))
        assert main(["all", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[e02]" in out
        assert "cache on" in out


class TestCacheCommand:
    def test_reports_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "entries:   0" in out

    def test_clear(self, tmp_path, capsys):
        from repro.runner import ResultCache, SweepRunner

        from .conftest import fast_config

        cfg = fast_config(duration_us=40_000.0, warmup_us=10_000.0)
        SweepRunner(jobs=0, cache=ResultCache(tmp_path)).run_many([cfg])
        assert len(ResultCache(tmp_path)) == 1
        assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert len(ResultCache(tmp_path)) == 0

    def test_reports_quarantined_entries(self, tmp_path, capsys):
        from repro.runner import ResultCache
        from repro.runner.cache import frame

        cache = ResultCache(tmp_path)
        damaged = bytearray(frame("ab" + "0" * 62, b'{"torn":1}'))
        damaged[-2] ^= 1  # the payload no longer matches its CRC
        cache.log.append(bytes(damaged))
        assert cache.get("ab" + "0" * 62) is None  # quarantines it
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "quarantined: 1" in out

    def test_old_layout_noticed_and_cleared(self, tmp_path, capsys):
        shard = tmp_path / "ab"
        shard.mkdir()
        (shard / ("ab" + "0" * 62 + ".json")).write_text("{}")
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:   0" in out
        assert "ignored:   1 entries in the old one-file-per-key layout" in out
        assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert not shard.exists()
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert "ignored" not in capsys.readouterr().out


class TestVerifyCommand:
    def test_record_then_check_round_trip(self, tmp_path, capsys):
        goldens = tmp_path / "goldens"
        assert main(["verify", "record", "--ids", "e01", "--no-cache",
                     "--goldens", str(goldens)]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out and "e01.json" in out
        assert main(["verify", "check", "--no-cache",
                     "--goldens", str(goldens)]) == 0
        out = capsys.readouterr().out
        assert "1/1 experiments ok" in out

    def test_check_fails_on_drift_with_report(self, tmp_path, capsys):
        import json

        goldens = tmp_path / "goldens"
        assert main(["verify", "record", "--ids", "e01", "--no-cache",
                     "--goldens", str(goldens)]) == 0
        capsys.readouterr()
        # invalidate the golden (any corruption fails the integrity check)
        path = goldens / "e01.json"
        entry = json.loads(path.read_text())
        entry["seed"] = 12345
        path.write_text(json.dumps(entry))
        assert main(["verify", "check", "--no-cache",
                     "--goldens", str(goldens)]) == 1
        out = capsys.readouterr().out
        assert "FAIL e01" in out
        assert "affected experiments: e01" in out


class TestSimulateKnobs:
    def test_burst_and_overhead_flags(self, capsys):
        assert main([
            "simulate", "--rate", "6000", "--streams", "4",
            "--duration-ms", "60", "--burst", "8",
            "--fixed-overhead-us", "50", "--lock-granularity", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean delay (us)" in out

    def test_stacks_flag_for_ips(self, capsys):
        assert main([
            "simulate", "--paradigm", "ips", "--policy", "ips-wired",
            "--stacks", "4", "--rate", "6000", "--duration-ms", "60",
        ]) == 0

    def test_simulate_under_invariant_checker(self, capsys):
        assert main([
            "simulate", "--rate", "6000", "--streams", "4",
            "--duration-ms", "60", "--check-invariants",
        ]) == 0
        assert "mean delay (us)" in capsys.readouterr().out
