"""Corpus round-trip: write, reject-safe, iterate, replay."""

import json
from pathlib import Path

import pytest

from repro.core.experiment import ComponentSpec, ExperimentSpec, MetricSpec
from repro.core.scenario import ScenarioConfig
from repro.net.channel import ChannelConfig
from repro.platoon.vehicle import VehicleConfig
from repro.falsify.corpus import (
    CORPUS_FORMAT,
    config_to_dict,
    iter_corpus,
    replay_counterexample,
    write_counterexample,
)

CONFIG = ScenarioConfig(n_vehicles=4, duration=30.0, warmup=6.0, seed=42)


def violating_spec():
    """A hand-built schedule known to breach the brake envelope on the
    small config above (slow, violent speed oscillation all episode)."""
    return ExperimentSpec(
        name="crafted",
        threat="falsification", variant="crafted",
        config={"n_vehicles": 4, "duration": 30.0, "warmup": 6.0},
        attacks=(ComponentSpec("falsification",
                               {"profile": "oscillate", "amplitude": 16.0,
                                "period": 12.0, "insider_index": 1,
                                "start_time": 6.0, "stop_time": 30.0}),),
        metric=MetricSpec("min_true_gap"))


def safe_spec():
    return ExperimentSpec(
        name="gentle",
        threat="falsification", variant="gentle",
        config={"n_vehicles": 4, "duration": 30.0, "warmup": 6.0},
        attacks=(ComponentSpec("falsification",
                               {"profile": "oscillate", "amplitude": 0.2,
                                "period": 8.0, "insider_index": 1,
                                "start_time": 6.0, "stop_time": 10.0}),),
        metric=MetricSpec("min_true_gap"))


class TestConfigRoundTrip:
    def test_round_trip_preserves_everything(self):
        config = ScenarioConfig(n_vehicles=6, duration=50.0, warmup=9.0,
                                seed=7, kernel="vector")
        data = json.loads(json.dumps(config_to_dict(config)))
        assert ScenarioConfig(**data) == config

    def test_nothing_is_stripped(self):
        data = config_to_dict(CONFIG)
        assert "kernel" in data
        assert "seed" in data
        assert "channel" in data

    def test_committed_manifest_configs_load_unchanged(self):
        entries = iter_corpus(Path(__file__).resolve().parent.parent
                              / "corpus")
        assert len(entries) == 2
        for entry in entries:
            config = entry.load_config()
            assert isinstance(config.channel, ChannelConfig)
            assert isinstance(config.vehicle, VehicleConfig)
            assert isinstance(config.rsu_positions, tuple)
            # Every committed field reads back as written (the manifests
            # predate the highway field, which stays unset).
            committed = entry.manifest["config"]
            data = config_to_dict(config)
            assert {key: data[key] for key in committed} == committed
            assert config.highway is None


class TestWrite:
    def test_writes_spec_manifest_and_trace(self, tmp_path):
        entry = write_counterexample(tmp_path, violating_spec(), CONFIG,
                                     provenance={"engine": "test"})
        assert entry.spec_path.is_file()
        assert entry.trace_path.is_file()
        manifest = json.loads((entry.path / "manifest.json").read_text())
        assert manifest["format"] == CORPUS_FORMAT
        assert manifest["provenance"] == {"engine": "test"}
        assert manifest["violation"]["severity"] <= 0
        assert manifest["config"]["seed"] == 42
        # spec.json is the canonical experiment document.
        spec = json.loads(entry.spec_path.read_text())
        assert spec["format"] == "platoonsec-experiment/1"

    def test_default_name_is_threat_plus_digest(self, tmp_path):
        entry = write_counterexample(tmp_path, violating_spec(), CONFIG)
        assert entry.name.startswith("falsification-")
        assert entry.path.name == entry.name

    def test_safe_episode_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a counterexample"):
            write_counterexample(tmp_path, safe_spec(), CONFIG,
                                 name="bogus")
        assert not (tmp_path / "bogus" / "trace.jsonl").exists()


class TestIterate:
    def test_missing_dir_yields_nothing(self, tmp_path):
        assert iter_corpus(tmp_path / "nope") == []

    def test_entries_sorted_by_name(self, tmp_path):
        write_counterexample(tmp_path, violating_spec(), CONFIG, name="bbb")
        write_counterexample(tmp_path, violating_spec(), CONFIG, name="aaa")
        assert [e.name for e in iter_corpus(tmp_path)] == ["aaa", "bbb"]

    def test_unknown_format_is_an_error(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text('{"format": "something/9"}')
        with pytest.raises(ValueError, match="unsupported corpus format"):
            iter_corpus(tmp_path)


class TestReplay:
    def test_fresh_entry_replays_on_both_kernels(self, tmp_path):
        entry = write_counterexample(tmp_path, violating_spec(), CONFIG)
        for kernel in ("scalar", "vector"):
            report = replay_counterexample(entry, kernel=kernel)
            assert report.ok, report.divergence
            assert report.verdict.violated

    def test_tampered_trace_is_detected(self, tmp_path):
        entry = write_counterexample(tmp_path, violating_spec(), CONFIG)
        lines = entry.trace_path.read_text().splitlines()
        record = json.loads(lines[-1])
        record["t"] = record.get("t", 0.0) + 99.0
        lines[-1] = json.dumps(record)
        entry.trace_path.write_text("\n".join(lines) + "\n")
        report = replay_counterexample(entry)
        assert not report.trace_matches
        assert report.divergence
        assert not report.ok
