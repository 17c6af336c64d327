"""Tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs.trace import load_trace, write_trace

FAST = ["--duration", "30", "--vehicles", "4", "--seed", "7"]
TINY = ["--duration", "20", "--vehicles", "4", "--seed", "7"]
EXAMPLE_SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"


class TestCli:
    def test_taxonomy_command(self, capsys):
        assert main(["taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "Table III" in out
        assert "registry check" in out

    @pytest.mark.parametrize("command", [["taxonomy"],
                                         ["experiments", "--validate"]],
                             ids=" ".join)
    def test_stray_registered_attack_fails_check(self, command, monkeypatch,
                                                 capsys):
        from repro.core.registry import REGISTRY

        monkeypatch.setitem(REGISTRY._components["attack"], "stray_jammer",
                            REGISTRY.get("attack", "jamming"))
        assert main(command) == 1
        assert "'stray_jammer' is registered" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"), ("--workers", "-4"), ("--vehicles", "0"),
        ("--duration", "-5")])
    def test_out_of_range_run_sizes_rejected(self, flag, value, capsys):
        assert main([flag, value, "catalogue", "--only", "jamming"]) == 2
        assert f"got {value}" in capsys.readouterr().err

    def test_risk_command(self, capsys):
        assert main(["risk"]) == 0
        out = capsys.readouterr().out
        assert "TARA" in out
        assert "Jamming" in out

    def test_matrix_single_mechanism(self, capsys):
        code = main(["--duration", "45", "--vehicles", "5",
                     "matrix", "onboard_security"])
        out = capsys.readouterr().out
        assert code == 0
        assert "onboard_security" in out
        assert "malware" in out

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliExperiment:
    """The ``experiment`` / ``experiments`` subcommands."""

    def spec_file(self, tmp_path, **overrides):
        data = {
            "format": "platoonsec-experiment/1",
            "name": "cli-jam",
            "threat": "jamming",
            "variant": "cli-barrage",
            "attacks": [{"component": "jamming",
                         "params": {"start_time": {"$config": "warmup"},
                                    "power_dbm": 30.0}}],
            "metric": {"name": "degraded_fraction"},
        }
        data.update(overrides)
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(data))
        return path

    def test_catalogue_reference(self, capsys):
        code = main(["--duration", "45", "--vehicles", "5",
                     "experiment", "jamming"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CONFIRMED" in out
        assert "barrage-30dBm" in out

    def test_experiment_effect_missing_exit_code(self, capsys):
        # 20 s leaves no time for ghosts to join after the 10 s warmup +
        # join protocol; tolerate either outcome but require a clean run
        # (a missing effect is signalled by exit code 1).
        code = main(["--duration", "20", "--vehicles", "5",
                     "experiment", "sybil"])
        assert code in (0, 1)

    def test_catalogue_reference_with_variant(self, capsys):
        code = main(TINY + ["experiment", "malware/obd"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "malware/obd" in out

    def test_spec_file_runs_end_to_end(self, tmp_path, capsys):
        code = main(["--duration", "45", "--vehicles", "5",
                     "experiment", str(self.spec_file(tmp_path))])
        out = capsys.readouterr().out
        assert code == 0
        assert "cli-jam" in out
        assert "CONFIRMED" in out

    def test_spec_file_with_defenses_prints_mitigation(self, tmp_path, capsys):
        path = self.spec_file(
            tmp_path, defenses=[{"component": "hybrid_vlc"}],
            config={"with_vlc": True})
        code = main(["--duration", "45", "--vehicles", "5",
                     "experiment", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "defended" in out
        assert "mitigation" in out

    def test_engine_flags_are_honoured(self, tmp_path, capsys):
        spec = str(EXAMPLE_SPECS / "pulsed_jamming.json")
        assert main(TINY + ["experiment", spec]) == 0
        plain = capsys.readouterr().out
        store = tmp_path / "store.db"
        engine = TINY + ["--workers", "2", "--store", f"sqlite:{store}",
                         "--run-log", str(tmp_path / "run.jsonl"),
                         "--bench-history", str(tmp_path / "bench.jsonl")]
        assert main(engine + ["experiment", spec]) == 0
        cold = capsys.readouterr().out
        # Same table and observables; only the campaign summary differs.
        assert plain.split("campaign:")[0] == cold.split("campaign:")[0]
        assert "3 computed" in cold
        assert store.exists() and (tmp_path / "run.jsonl").exists()
        (record,) = [json.loads(line) for line in
                     (tmp_path / "bench.jsonl").read_text().splitlines()]
        assert record["label"] == "experiment[pulsed-jamming-vs-vlc]"
        assert main(engine + ["experiment", spec]) == 0
        assert "0 computed" in capsys.readouterr().out

    def test_unknown_reference_rejected(self, capsys):
        assert main(["experiment", "quantum"]) == 2
        assert "neither an experiment spec file" in capsys.readouterr().err

    def test_unknown_variant_rejected(self, capsys):
        assert main(["experiment", "malware/usb"]) == 2
        err = capsys.readouterr().err
        assert "wireless" in err            # names the valid variants

    def test_invalid_spec_file_rejected(self, tmp_path, capsys):
        path = self.spec_file(tmp_path,
                              attacks=[{"component": "death_ray"}])
        assert main(["experiment", str(path)]) == 2
        assert "death_ray" in capsys.readouterr().err

    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "experiment catalogue" in out
        assert "ghost-joins" in out
        assert "stolen-key" in out          # non-default variants listed
        assert "defence stacks" in out
        assert "hybrid_vlc" in out

    def test_experiments_default_is_list(self, capsys):
        assert main(["experiments"]) == 0
        assert "experiment catalogue" in capsys.readouterr().out

    def test_experiments_validate_catalogue(self, capsys):
        assert main(["experiments", "--validate"]) == 0
        assert "resolves through the registry" in capsys.readouterr().out

    def test_experiments_validate_spec_files(self, tmp_path, capsys):
        good = self.spec_file(tmp_path)
        assert main(["experiments", "--validate", str(good)]) == 0
        assert "ok" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "platoonsec-experiment/1",
                                   "threat": "jamming"}))
        assert main(["experiments", "--validate", str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert "ok" in captured.out
        assert "INVALID" in captured.err


class TestCliSweep:
    """The ``sweep`` subcommand and the global ``--seed-replicates``."""

    def tiny_spec_file(self, tmp_path, **overrides):
        from repro.sweep import SweepAxis, SweepSpec

        defaults = dict(
            name="jam-cli", threat="jamming",
            axes=(SweepAxis("attack.power_dbm", values=(-10.0, 30.0)),))
        defaults.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SweepSpec(**defaults).to_dict()))
        return path

    def test_list_presets(self, capsys):
        assert main(["sweep", "--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "jamming-intensity" in out
        assert "channel-loss" in out
        assert "sybil-count" in out

    def test_spec_required(self, capsys):
        assert main(["sweep"]) == 2
        assert "spec file or preset" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["catalogue", "--only", "jamming"],
        ["matrix", "onboard_security"],
        ["sweep", "jamming-intensity"],
    ], ids=lambda command: command[0])
    def test_non_positive_seed_replicates_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(TINY + ["--seed-replicates", "0"] + command)
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_unknown_spec_rejected(self, capsys):
        assert main(["sweep", "quantum-noise"]) == 2
        err = capsys.readouterr().err
        assert "neither a shipped preset" in err

    def test_spec_file_run_with_artifacts(self, tmp_path, capsys):
        from repro.sweep.artifacts import load_sweep_artifact

        spec = self.tiny_spec_file(tmp_path)
        out_dir = tmp_path / "out"
        code = main(TINY + ["sweep", str(spec), "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep jam-cli" in out
        assert "attack.power_dbm=-10" in out
        result = load_sweep_artifact(out_dir / "jam-cli.sweep.json")
        assert len(result["points"]) == 2
        assert (out_dir / "jam-cli.sweep.csv").exists()

    def test_preset_run_prints_thresholds(self, capsys):
        code = main(TINY + ["--seed-replicates", "1",
                            "sweep", "jamming-intensity"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep jamming-intensity (1 replicate(s)" in out
        assert "threshold" in out

    def test_replicated_catalogue_reports_spread(self, capsys):
        code = main(TINY + ["--seed-replicates", "2",
                            "catalogue", "--only", "jamming"])
        out = capsys.readouterr().out
        assert code == 0
        assert "±" in out                    # mean±std formatting

    def test_replicated_matrix_reports_spread(self, capsys):
        code = main(TINY + ["--seed-replicates", "2",
                            "matrix", "control_algorithms"])
        out = capsys.readouterr().out
        assert code == 0
        assert "±" in out


class TestCliObservability:
    """The --trace-dir / --profile / --report surface and the tracediff
    subcommand, including the error paths (empty campaign, unknown
    threats, unwritable trace directory, missing trace file)."""

    @pytest.fixture(autouse=True)
    def _reset_profiling(self):
        from repro import obs

        yield
        obs.set_profiling(False)

    def test_trace_dir_writes_loadable_traces(self, tmp_path, capsys):
        code = main(FAST + ["--trace-dir", str(tmp_path),
                            "catalogue", "--only", "jamming"])
        assert code == 0
        paths = sorted(tmp_path.glob("*.trace.jsonl"))
        assert len(paths) == 2                   # baseline + attacked
        for path in paths:
            header, records = load_trace(path)
            assert header["threat"] == "jamming"
            assert len(records) == header["n_records"] > 0

    def test_trace_dir_with_workers_and_report(self, tmp_path, capsys):
        code = main(FAST + ["--workers", "2", "--trace-dir", str(tmp_path),
                            "--report", "catalogue", "--only", "jamming"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(list(tmp_path.glob("*.trace.jsonl"))) == 2
        assert "campaign unit report" in out
        assert "workers=2" in out

    def test_profile_prints_observability(self, capsys):
        code = main(FAST + ["--profile", "catalogue", "--only", "jamming"])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign observability: counters" in out
        assert "frames.sent" in out
        assert "runner phase" in out

    def test_profile_on_single_attack(self, capsys):
        code = main(FAST + ["--profile", "experiment", "jamming"])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign observability: counters" in out
        assert "frames.sent" in out

    def test_empty_campaign_rejected(self, capsys):
        assert main(FAST + ["catalogue", "--only", ""]) == 2
        assert "empty campaign" in capsys.readouterr().err

    def test_unknown_threat_subset_rejected(self, capsys):
        assert main(FAST + ["catalogue", "--only", "jamming,quantum"]) == 2
        err = capsys.readouterr().err
        assert "unknown threats" in err and "quantum" in err

    def test_unwritable_trace_dir_is_a_clean_error(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        code = main(FAST + ["--trace-dir", str(blocker / "sub"),
                            "catalogue", "--only", "jamming"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_tracediff_identical_and_divergent(self, tmp_path, capsys):
        records = [{"t": 0.0, "type": "event", "kind": "start",
                    "source": "sim", "data": {}},
                   {"t": 1.0, "type": "sample", "channel": {"tx": 5}}]
        changed = [records[0],
                   {"t": 1.0, "type": "sample", "channel": {"tx": 6}}]
        a = write_trace(tmp_path / "a.jsonl", records)
        b = write_trace(tmp_path / "b.jsonl", list(records))
        c = write_trace(tmp_path / "c.jsonl", changed)
        assert main(["tracediff", str(a), str(b)]) == 0
        assert "traces identical" in capsys.readouterr().out
        assert main(["tracediff", str(a), str(c)]) == 1
        assert "first divergence at record #1" in capsys.readouterr().out

    def test_tracediff_missing_file(self, tmp_path, capsys):
        a = write_trace(tmp_path / "a.jsonl", [])
        assert main(["tracediff", str(a), str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliDetections:
    """The `detections` summarizer over traces and run logs."""

    def trace_with_verdicts(self, tmp_path):
        records = [
            {"t": 9.0, "type": "verdict", "mechanism": "freshness",
             "verdict": "accept", "reason": "fresh", "observer": "v1",
             "subject": "v0", "message_kind": "beacon", "tainted": False},
            {"t": 11.0, "type": "verdict", "mechanism": "freshness",
             "verdict": "drop", "reason": "nonce_replay", "observer": "v1",
             "subject": "ghost", "message_kind": "beacon", "tainted": True},
        ]
        return write_trace(tmp_path / "ep.jsonl", records,
                           meta={"spec_key": "cafe" * 16})

    def test_trace_summary_exits_zero(self, tmp_path, capsys):
        trace = self.trace_with_verdicts(tmp_path)
        assert main(["detections", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "freshness" in out and "nonce_replay" not in out
        assert "(total)" in out
        # 1 tainted drop / 1 tainted verdict -> TPR 1.0; clean FPR 0.
        assert "1.0" in out

    def test_run_log_summary_exits_zero(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main(TINY + ["--run-log", str(log),
                            "matrix", "secret_public_keys"]) == 0
        capsys.readouterr()
        assert main(["detections", str(log)]) == 0
        out = capsys.readouterr().out
        assert "secret_public_keys" in out
        assert "run log" in out

    def test_trace_without_verdicts_still_exits_zero(self, tmp_path,
                                                     capsys):
        trace = write_trace(tmp_path / "empty.jsonl", [])
        assert main(["detections", str(trace)]) == 0

    def test_unrecognized_input_exits_two(self, tmp_path, capsys):
        junk = tmp_path / "junk.jsonl"
        junk.write_text("not json at all\n")
        assert main(["detections", str(junk)]) == 2
        assert "neither" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["detections", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliTelemetry:
    """The --run-log / --progress / --bench-history surface."""

    def test_run_log_canonical_across_worker_counts(self, tmp_path, capsys):
        from repro.obs.telemetry import canonical_run_log_bytes

        logs = {}
        for workers in ("1", "2"):
            path = tmp_path / f"w{workers}.jsonl"
            assert main(TINY + ["--workers", workers,
                                "--run-log", str(path),
                                "catalogue", "--only", "jamming"]) == 0
            logs[workers] = canonical_run_log_bytes(path)
        assert logs["1"] == logs["2"]

    def test_detection_fields_canonical_across_workers_and_backends(
            self, tmp_path, capsys):
        """Satellite invariant: the detection projection on unit_finished
        events is part of the canonical run log, byte-identical between
        serial, workers=2 and a sqlite store run (volatile fields like
        worker pids and store provenance are projected out; detection is
        deliberately NOT volatile)."""
        from repro.obs.telemetry import (
            canonical_events,
            canonical_run_log_bytes,
            load_run_log,
        )

        matrix = ["matrix", "secret_public_keys"]
        runs = {
            "serial": ["--workers", "1"],
            "pool": ["--workers", "2"],
            "sqlite": ["--workers", "1",
                       "--store", f"sqlite:{tmp_path / 'store.db'}"],
        }
        logs = {}
        for name, flags in runs.items():
            path = tmp_path / f"{name}.jsonl"
            assert main(TINY + flags + ["--run-log", str(path)]
                        + matrix) == 0
            logs[name] = canonical_run_log_bytes(path)
        assert logs["serial"] == logs["pool"] == logs["sqlite"]
        # And the canonical events actually carry the detection fields.
        events = canonical_events(load_run_log(tmp_path / "serial.jsonl"))
        defended = [e for e in events
                    if e.get("kind") == "unit_finished"
                    and e.get("mechanism")]
        assert defended
        assert all("detection" in e for e in defended)
        assert any(e["detection"]["verdicts"] > 0 for e in defended)

    def test_progress_forced_without_tty(self, tmp_path, capsys):
        assert main(TINY + ["--progress",
                            "catalogue", "--only", "jamming"]) == 0
        err = capsys.readouterr().err
        assert "[campaign]" in err and "units" in err

    def test_no_telemetry_files_by_default(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(TINY + ["catalogue", "--only", "jamming"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestCliBenchCompare:
    """bench-compare and the --bench-history store, end to end."""

    def history_with(self, tmp_path, metric_pairs):
        from repro.obs.history import append_history, make_bench_record

        path = tmp_path / "hist.jsonl"
        for i, metrics in enumerate(metric_pairs):
            append_history(path, make_bench_record(
                "fabricated", metrics=metrics, git_sha=None,
                created=float(i)))
        return path

    def test_two_runs_then_compare_passes(self, tmp_path, capsys):
        hist = tmp_path / "BENCH_history.jsonl"
        for _ in range(2):
            assert main(TINY + ["--bench-history", str(hist),
                                "catalogue", "--only", "jamming"]) == 0
        assert main(["bench-compare", "--history", str(hist),
                     "--last", "2"]) == 0
        out = capsys.readouterr().out
        assert "no divergence" in out
        assert "catalogue[jamming]" in out

    def test_zero_tolerance_names_metric_and_fails(self, tmp_path, capsys):
        hist = self.history_with(tmp_path, [{"m": 1.0}, {"m": 1.01}])
        assert main(["bench-compare", "--history", str(hist),
                     "--metric-tolerance", "0"]) == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        assert "metric 'm'" in out

    def test_two_record_files(self, tmp_path, capsys):
        import json as _json

        from repro.obs.history import make_bench_record

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(_json.dumps(make_bench_record(
            "golden", metrics={"m": 1.0}, git_sha=None, created=0.0)))
        new.write_text(_json.dumps(make_bench_record(
            "golden", metrics={"m": 1.0}, git_sha=None, created=1.0)))
        assert main(["bench-compare", str(old), str(new)]) == 0

    def test_golden_vs_latest_history(self, tmp_path, capsys):
        import json as _json

        from repro.obs.history import make_bench_record

        hist = self.history_with(tmp_path, [{"m": 1.0}])
        golden = tmp_path / "golden.json"
        golden.write_text(_json.dumps(make_bench_record(
            "fabricated", metrics={"m": 1.0}, git_sha=None, created=0.0)))
        assert main(["bench-compare", str(golden),
                     "--history", str(hist)]) == 0

    def test_history_file_as_baseline(self, tmp_path, capsys):
        # A multi-record JSONL history as the old side: its latest
        # record is the baseline, so two run histories gate each other.
        (tmp_path / "old").mkdir()
        (tmp_path / "new").mkdir()
        old = self.history_with(tmp_path / "old", [{"m": 5.0}, {"m": 1.0}])
        new = self.history_with(tmp_path / "new", [{"m": 1.0}])
        assert main(["bench-compare", str(old), "--history", str(new),
                     "--metric-tolerance", "0"]) == 0
        assert main(["bench-compare", str(old), str(new),
                     "--metric-tolerance", "0"]) == 0

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["bench-compare", "--history", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err
        hist = self.history_with(tmp_path, [{"m": 1.0}])
        assert main(["bench-compare", "--history", str(hist),
                     "--last", "5"]) == 2
        assert "--last 5" in capsys.readouterr().err

    def test_help_documents_exit_codes(self, capsys):
        import pytest as _pytest

        for command in ("bench-compare", "tracediff"):
            with _pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            out = capsys.readouterr().out
            assert "exit codes:" in out
            assert "divergence" in out


class TestCliReport:
    """The report subcommand: self-contained HTML for campaigns/sweeps."""

    def assert_self_contained(self, text):
        import re as _re

        assert "<script" not in text
        urls = set(_re.findall(r"https?://[^\"'<> ]+", text))
        assert urls <= {"http://www.w3.org/2000/svg"}, urls

    def test_catalogue_report(self, tmp_path, capsys):
        out = tmp_path / "cat.html"
        assert main(TINY + ["report", "catalogue", "--only", "jamming",
                            "--out", str(out)]) == 0
        text = out.read_text()
        assert "Table II outcomes" in text
        assert "Run summary" in text
        assert "jamming" in text
        self.assert_self_contained(text)

    def test_report_prints_run_summary(self, tmp_path, capsys):
        out = tmp_path / "cat.html"
        assert main(TINY + ["--report", "report", "catalogue", "--only",
                            "jamming", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "campaign unit report" in printed
        assert "campaign: 2 units (2 computed" in printed
        assert f"report: {out}" in printed

    def test_sweep_report_with_curves(self, tmp_path, capsys):
        import json as _json

        from repro.sweep import SweepAxis, SweepSpec

        spec = tmp_path / "spec.json"
        spec.write_text(_json.dumps(SweepSpec(
            name="jam-report", threat="jamming",
            axes=(SweepAxis("attack.power_dbm",
                            values=(-10.0, 30.0)),)).to_dict()))
        out = tmp_path / "sweep.html"
        assert main(TINY + ["--seed-replicates", "1",
                            "report", "sweep", str(spec),
                            "--out", str(out)]) == 0
        text = out.read_text()
        assert "sweep jam-report" in text
        assert "<svg" in text
        assert "Dose-response curves" in text
        self.assert_self_contained(text)

    def test_sweep_report_requires_target(self, capsys):
        assert main(["report", "sweep"]) == 2
        assert "spec file or preset" in capsys.readouterr().err

    def test_matrix_report_unknown_mechanism(self, capsys):
        assert main(["report", "matrix", "quantum"]) == 2
        assert "unknown mechanism" in capsys.readouterr().err


class TestConsoleScript:
    """The platoonsec console script and the python -m path stay wired
    to the same entry point."""

    def repo_root(self):
        from pathlib import Path

        return Path(__file__).resolve().parent.parent

    def test_pyproject_declares_entry_point(self):
        text = (self.repo_root() / "pyproject.toml").read_text()
        assert "[project.scripts]" in text
        assert 'platoonsec = "repro.__main__:main"' in text

    def test_entry_point_resolves_to_main(self):
        # Resolve exactly what the console script would import, without
        # requiring the package to be pip-installed.
        import importlib

        module_name, _, attr = "repro.__main__:main".partition(":")
        target = getattr(importlib.import_module(module_name), attr)
        assert target is main

    def test_python_dash_m_invocation(self):
        import os
        import subprocess
        import sys

        root = self.repo_root()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "taxonomy"],
            capture_output=True, text=True, env=env, cwd=str(root),
            timeout=120)
        assert proc.returncode == 0
        assert "registry check" in proc.stdout


class TestCliStore:
    """The --store flag and the `store` commands."""

    URL_FLAGS = TINY + ["--workers", "1"]

    def _catalogue(self, extra, capsys):
        code = main(self.URL_FLAGS + extra + ["catalogue", "--only",
                                              "jamming"])
        captured = capsys.readouterr()
        return code, captured

    def test_sqlite_store_cold_then_warm(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 'store.db'}"
        code, captured = self._catalogue(["--store", url], capsys)
        assert code == 0 and "2 computed" in captured.out
        code, captured = self._catalogue(["--store", url], capsys)
        assert code == 0 and "0 computed" in captured.out
        assert "2 cache hits" in captured.out

    def test_sqlite_run_log_defaults_next_to_database(self, tmp_path,
                                                      capsys):
        from repro.obs.telemetry import load_run_log

        url = f"sqlite:{tmp_path / 'store.db'}"
        assert self._catalogue(["--store", url], capsys)[0] == 0
        records = load_run_log(tmp_path / "run-log.jsonl")
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "run_started" and kinds[-1] == "run_finished"
        assert "unit_finished" in kinds

    def test_bad_store_url_is_a_usage_error(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        for bad in (str(cache), f"json:{cache}"):
            code, captured = self._catalogue(["--store", bad], capsys)
            assert code == 2
            assert "store url" in captured.err.lower()
            assert "sqlite:<path>" in captured.err
        assert not cache.exists()

    def test_store_stats_verify_gc(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 'store.db'}"
        assert self._catalogue(["--store", url], capsys)[0] == 0
        assert main(["store", "stats", url]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "sqlite" in out
        assert main(["store", "verify", url]) == 0
        assert "2 entr" in capsys.readouterr().out
        assert main(["store", "gc", url, "--older-than", "0s"]) == 0
        assert "deleted 2 of 2" in capsys.readouterr().out
        assert main(["store", "stats", url]) == 0
        assert main(["store", "verify", url]) == 0

    def test_store_stats_prints_lease_table(self, tmp_path, capsys):
        from repro.store import open_store

        url = f"sqlite:{tmp_path / 'store.db'}"
        with open_store(url) as store:
            store.acquire("a" * 64, "worker-1", ttl=300)
            store.acquire("b" * 64, "crashed", ttl=0.0)
        assert main(["store", "stats", url]) == 0
        out = capsys.readouterr().out
        assert "active leases" in out and "expired leases" in out
        assert "in-flight leases" in out
        assert "worker-1" in out and "active" in out
        assert "crashed" in out and "expired" in out

    def test_store_stats_no_lease_table_when_idle(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 'store.db'}"
        assert self._catalogue(["--store", url], capsys)[0] == 0
        assert main(["store", "stats", url]) == 0
        out = capsys.readouterr().out
        # Finished runs release their leases: counts stay, table vanishes.
        assert "active leases" in out
        assert "in-flight leases" not in out

    def test_store_verify_reports_tampering(self, tmp_path, capsys):
        from repro.store import open_store

        url = f"sqlite:{tmp_path / 'store.db'}"
        assert self._catalogue(["--store", url], capsys)[0] == 0
        with open_store(url) as store:
            victim, donor = store.keys()
            # File the donor's record (checksum intact) under the
            # victim's key: only the spec_key check can catch it.
            store._connect().execute(
                "UPDATE records SET (record, sha256) = "
                "(SELECT record, sha256 FROM records WHERE key = ?) "
                "WHERE key = ?", (donor, victim))
        capsys.readouterr()
        assert main(["store", "verify", url]) == 1
        assert "spec_key" in capsys.readouterr().err

    def test_store_commands_require_existing_store(self, tmp_path, capsys):
        missing = f"sqlite:{tmp_path / 'missing.db'}"
        assert main(["store", "stats", missing]) == 2
        assert main(["store", "verify", missing]) == 2
        assert not (tmp_path / "missing.db").exists()

    def test_parse_age(self):
        from repro.__main__ import _parse_age

        assert _parse_age("7d") == 7 * 86400.0
        assert _parse_age("36h") == 36 * 3600.0
        assert _parse_age("90m") == 90 * 60.0
        assert _parse_age("45s") == 45.0
        assert _parse_age("3600") == 3600.0
        for bad in ("", "7y", "fast", "-1"):
            with pytest.raises(ValueError):
                _parse_age(bad)

    def test_run_logs_canonically_identical_with_and_without_store(
            self, tmp_path, capsys):
        # The local twin of the CI store-parity gate: the same campaign
        # with and without a sqlite: store must leave byte-identical
        # canonical run logs (store provenance is a volatile field).
        from repro.obs.telemetry import canonical_run_log_bytes

        plain_log = tmp_path / "plain.jsonl"
        sqlite_log = tmp_path / "sqlite.jsonl"
        assert self._catalogue(["--run-log", str(plain_log)],
                               capsys)[0] == 0
        assert self._catalogue(["--store",
                                f"sqlite:{tmp_path / 'store.db'}",
                                "--run-log", str(sqlite_log)],
                               capsys)[0] == 0
        assert canonical_run_log_bytes(plain_log) == \
            canonical_run_log_bytes(sqlite_log)
