"""Tests for trace files (`repro.obs.trace`) and `repro.analysis.tracediff`.

Covers the JSONL schema (header fields, truncation detection, format
gating), content-hash naming through the campaign runner, replay of a
known jamming episode against the Table II "disband" narrative, and
first-divergence reporting between traces.
"""

import json

import pytest

from repro.analysis.tracediff import diff_traces, first_divergence
from repro.core.campaign import plan_threat_experiment, run_threat_catalogue
from repro.core.runner import CampaignRunner
from repro.core.scenario import ScenarioConfig
from repro.obs.trace import (
    SCHEMA_VERSION,
    TRACE_FORMAT,
    load_trace,
    trace_body_bytes,
    trace_filename,
    write_trace,
)

TINY = ScenarioConfig(n_vehicles=4, duration=30.0, warmup=6.0, seed=7)
# The golden-regression configuration: Table II rows are pinned at this
# seed, so the traced event sequence below is the paper's narrative.
TABLE = ScenarioConfig(n_vehicles=5, duration=45.0, warmup=8.0, seed=42)

RECORDS = [
    {"t": 0.0, "type": "event", "kind": "start", "source": "sim", "data": {}},
    {"t": 1.0, "type": "sample", "channel": {"tx": 3}},
    {"t": 1.5, "type": "event", "kind": "stop", "source": "sim", "data": {}},
]


class TestTraceFile:
    def test_roundtrip_header_and_records(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        write_trace(path, RECORDS, meta={"spec_key": "abc", "threat": "jamming",
                                         "variant": "v", "role": "attacked",
                                         "seed": 42, "config_hash": "deadbeef"},
                    sample_period=1.0)
        header, records = load_trace(path)
        assert header["format"] == TRACE_FORMAT
        assert header["schema_version"] == SCHEMA_VERSION
        assert header["spec_key"] == "abc"
        assert header["threat"] == "jamming"
        assert header["role"] == "attacked"
        assert header["seed"] == 42
        assert header["config_hash"] == "deadbeef"
        assert header["mechanism"] is None       # absent keys stay uniform
        assert header["sample_period"] == 1.0
        assert header["n_records"] == 3
        assert records == RECORDS

    def test_body_is_everything_after_header(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", RECORDS)
        body = trace_body_bytes(path)
        assert body.count(b"\n") == len(RECORDS)
        assert b"platoonsec-trace" not in body

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty trace"):
            load_trace(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "alien.jsonl"
        path.write_text(json.dumps({"format": "other/9", "n_records": 0}) + "\n")
        with pytest.raises(ValueError, match="unsupported trace format"):
            load_trace(path)

    def test_truncated_trace_rejected(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", RECORDS)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            load_trace(path)

    def test_trace_filename(self):
        assert trace_filename("abc123") == "abc123.trace.jsonl"


class TestRunnerTraces:
    def test_one_trace_per_computed_unit_named_by_hash(self, tmp_path):
        runner = CampaignRunner(trace_dir=tmp_path)
        run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
        report = runner.report()
        expected = {trace_filename(u.key) for u in report.units}
        assert {p.name for p in tmp_path.glob("*.trace.jsonl")} == expected
        for unit in report.units:
            header, records = load_trace(tmp_path / trace_filename(unit.key))
            assert header["spec_key"] == unit.key
            assert header["threat"] == "jamming"
            assert header["role"] == unit.role
            assert len(records) == header["n_records"] > 0
            times = [r["t"] for r in records]
            assert times == sorted(times)

    def test_cache_hits_write_no_traces(self, tmp_path):
        store = f"sqlite:{tmp_path / 'store.db'}"
        first_traces = tmp_path / "a"
        second_traces = tmp_path / "b"
        run_threat_catalogue(TINY, threats=["jamming"],
                             runner=CampaignRunner(store=store,
                                                   trace_dir=first_traces))
        fresh = CampaignRunner(store=store, trace_dir=second_traces)
        run_threat_catalogue(TINY, threats=["jamming"], runner=fresh)
        assert fresh.report().cache_hits == 2
        assert list(second_traces.glob("*.trace.jsonl")) == []

    def test_unwritable_trace_dir_rejected(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        with pytest.raises(ValueError, match="not writable"):
            CampaignRunner(trace_dir=blocker / "sub")


class TestRaisingEpisode:
    """A raising episode must stop the recorder's periodic sampler and
    write no partial trace (regression: the recorder used to leak its
    scheduled callback when ``scenario.run()`` raised)."""

    def test_recorder_stopped_and_no_trace_written(self, tmp_path,
                                                   monkeypatch):
        from repro.core import scenario as scenario_mod
        from repro.core.scenario import run_episode

        stops = []

        class SpyRecorder(scenario_mod.TraceRecorder):
            def stop(self):
                stops.append(True)
                super().stop()

        monkeypatch.setattr(scenario_mod, "TraceRecorder", SpyRecorder)

        def exploding_hook(scenario):
            raise RuntimeError("mid-setup failure")

        trace_path = tmp_path / "partial.trace.jsonl"
        with pytest.raises(RuntimeError, match="mid-setup failure"):
            run_episode(TINY, setup_hooks=[exploding_hook],
                        trace_path=trace_path)
        assert stops == [True]
        assert not trace_path.exists()

    def test_successful_episode_still_writes_trace(self, tmp_path,
                                                   monkeypatch):
        from repro.core.scenario import run_episode

        trace_path = tmp_path / "ok.trace.jsonl"
        run_episode(TINY, trace_path=trace_path)
        header, records = load_trace(trace_path)
        assert header["n_records"] == len(records) > 0


class TestJammingTraceReplay:
    """Replaying the traced seed-42 jamming episode must reproduce the
    Table II narrative: the attack starts, followers fall back to
    degraded ACC, and the platoon disbands from communication loss."""

    @pytest.fixture(scope="class")
    def attacked_trace(self, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("jamming-traces")
        plan = plan_threat_experiment("jamming", TABLE)
        runner = CampaignRunner(trace_dir=trace_dir)
        runner.run([plan.attacked])
        header, records = load_trace(trace_dir
                                     / trace_filename(plan.attacked.key))
        return plan.attacked, header, records

    def test_header_identifies_the_unit(self, attacked_trace):
        spec, header, _ = attacked_trace
        assert header["threat"] == "jamming"
        assert header["role"] == "attacked"
        assert header["spec_key"] == spec.key
        assert header["seed"] == spec.config.seed
        assert header["config_hash"] == spec.config.content_hash()

    def test_disband_event_sequence(self, attacked_trace):
        _, _, records = attacked_trace
        events = [r for r in records if r["type"] == "event"]
        kinds = [e["kind"] for e in events]
        assert "attack_start" in kinds
        assert "controller_degraded" in kinds
        assert "platoon_disband" in kinds
        assert kinds.index("attack_start") \
            < kinds.index("controller_degraded") \
            < kinds.index("platoon_disband")
        disband = next(e for e in events if e["kind"] == "platoon_disband")
        assert disband["data"]["reason"] == "comm_loss"
        attack_t = next(e["t"] for e in events if e["kind"] == "attack_start")
        assert disband["t"] > attack_t

    def test_samples_show_degradation_after_attack(self, attacked_trace):
        _, _, records = attacked_trace
        events = [r for r in records if r["type"] == "event"]
        samples = [r for r in records if r["type"] == "sample"]
        attack_t = next(e["t"] for e in events if e["kind"] == "attack_start")
        before = [s for s in samples if s["t"] <= attack_t]
        after = [s for s in samples if s["t"] > attack_t + 2.0]
        assert all(s["platoon"]["degraded"] == 0 for s in before)
        assert any(s["platoon"]["degraded"] > 0 for s in after)
        # A barrage jammer blocks *transmissions* via carrier sensing, so
        # the signature is MAC starvation: backoffs and queue drops climb
        # while the channel's transmission counter freezes.
        assert after[-1]["mac"]["backoffs"] > before[-1]["mac"]["backoffs"]
        assert after[-1]["mac"]["dropped"] > before[-1]["mac"]["dropped"]
        assert after[-1]["channel"]["tx"] == before[-1]["channel"]["tx"]


class TestFirstDivergence:
    def test_identical_returns_none(self):
        assert first_divergence(RECORDS, [dict(r) for r in RECORDS]) is None

    def test_key_order_does_not_matter(self):
        reordered = [dict(reversed(list(r.items()))) for r in RECORDS]
        assert first_divergence(RECORDS, reordered) is None

    def test_strict_prefix_diverges_at_shorter_length(self):
        assert first_divergence(RECORDS, RECORDS[:2]) == 2
        assert first_divergence(RECORDS[:1], RECORDS) == 1

    def test_reports_first_differing_index(self):
        other = [dict(r) for r in RECORDS]
        other[1] = {"t": 1.0, "type": "sample", "channel": {"tx": 99}}
        assert first_divergence(RECORDS, other) == 1


class TestDiffTraces:
    def test_identical_files(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", RECORDS, meta={"seed": 1})
        b = write_trace(tmp_path / "b.jsonl", RECORDS, meta={"seed": 1})
        diff = diff_traces(a, b)
        assert diff.identical and diff.index is None
        assert "traces identical: 3 records" in diff.format()

    def test_divergent_files_name_first_record(self, tmp_path):
        other = [dict(r) for r in RECORDS]
        other[2] = {"t": 1.5, "type": "event", "kind": "crash",
                    "source": "sim", "data": {}}
        a = write_trace(tmp_path / "a.jsonl", RECORDS)
        b = write_trace(tmp_path / "b.jsonl", other)
        diff = diff_traces(a, b)
        assert not diff.identical and diff.index == 2
        text = diff.format()
        assert "first divergence at record #2" in text
        assert "stop" in text and "crash" in text

    def test_different_seed_episodes_diverge(self, tmp_path):
        dirs = []
        for seed in (7, 8):
            trace_dir = tmp_path / f"seed{seed}"
            plan = plan_threat_experiment("jamming",
                                          TINY.with_overrides(seed=seed))
            runner = CampaignRunner(trace_dir=trace_dir)
            runner.run([plan.attacked])
            dirs.append(trace_dir / trace_filename(plan.attacked.key))
        diff = diff_traces(*dirs)
        assert not diff.identical
        assert diff.index is not None and diff.index >= 0
        assert not diff.headers_equal          # seeds differ in the header
        assert "first divergence at record #" in diff.format()
