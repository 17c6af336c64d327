"""Tests for the run-telemetry event bus (`repro.obs.telemetry`).

Covers bus semantics (inert without sinks, kind validation, monotonic
sequence numbers), the run-log and progress sinks, event ordering under
a worker pool (interleaving across units is allowed, ordering within a
unit is not), the canonical-run-log byte-identity contract, and the
zero-cost-when-disabled guarantee (telemetry must not perturb traces or
cache entries).
"""

import io
import json

import pytest

from repro.core.campaign import highway_variants, run_threat_catalogue
from repro.core.runner import CampaignRunner
from repro.core.scenario import ScenarioConfig
from repro.obs.telemetry import (
    EVENT_KINDS,
    JsonlRunLogSink,
    ProgressSink,
    RecordingSink,
    TelemetryBus,
    canonical_events,
    canonical_run_log_bytes,
    load_run_log,
)
from repro.store import SqliteStore

TINY = ScenarioConfig(n_vehicles=4, duration=30.0, warmup=6.0, seed=7)


def run_tiny_campaign(**runner_kwargs):
    runner = CampaignRunner(**runner_kwargs)
    run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
    return runner


class TestTelemetryBus:
    def test_inert_without_sinks(self):
        bus = TelemetryBus()
        assert not bus.enabled
        # No sinks: emit returns before validation or event construction,
        # so even a bogus kind costs nothing and raises nothing.
        assert bus.emit("not-a-kind", anything=1) is None
        assert bus.emit("run_started") is None

    def test_kind_validated_when_listening(self):
        bus = TelemetryBus([RecordingSink()])
        with pytest.raises(ValueError, match="unknown telemetry event kind"):
            bus.emit("not-a-kind")

    def test_seq_monotonic_and_fanout(self):
        a, b = RecordingSink(), RecordingSink()
        bus = TelemetryBus([a])
        bus.subscribe(b)
        for kind in EVENT_KINDS:
            bus.emit(kind)
        assert [e.seq for e in a.events] == list(range(len(EVENT_KINDS)))
        assert [e.kind for e in a.events] == list(EVENT_KINDS)
        assert a.events == b.events

    def test_payload_travels(self):
        sink = RecordingSink()
        TelemetryBus([sink]).emit("unit_finished", unit="abc",
                                  cache_hit=True, wall_time=0.5)
        record = sink.events[0].to_record()
        assert record["kind"] == "unit_finished"
        assert record["unit"] == "abc"
        assert record["cache_hit"] is True


class TestJsonlRunLogSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run-log.jsonl"
        bus = TelemetryBus([JsonlRunLogSink(path)])
        bus.emit("run_started", requested=2, distinct=2, workers=1)
        bus.emit("run_finished", requested=2, distinct=2, workers=1)
        bus.close()
        records = load_run_log(path)
        assert [r["kind"] for r in records] == ["run_started",
                                                "run_finished"]
        assert records[0]["requested"] == 2

    def test_truncates_per_run(self, tmp_path):
        path = tmp_path / "run-log.jsonl"
        path.write_text("stale garbage\n")
        bus = TelemetryBus([JsonlRunLogSink(path)])
        bus.emit("run_started", distinct=0)
        bus.close()
        assert len(load_run_log(path)) == 1

    def test_unknown_kind_in_log_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "quantum"}) + "\n")
        with pytest.raises(ValueError, match="unknown event kind"):
            load_run_log(path)

    def test_unwritable_path_is_user_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(ValueError, match="not writable"):
            JsonlRunLogSink(blocker / "sub" / "run-log.jsonl")


class TestProgressSink:
    def test_auto_disabled_off_tty(self):
        stream = io.StringIO()            # isatty() -> False
        sink = ProgressSink(stream=stream)
        assert not sink.enabled
        bus = TelemetryBus([sink])
        bus.emit("run_started", distinct=1)
        bus.emit("unit_finished", unit="u", cache_hit=False)
        bus.emit("run_finished")
        assert stream.getvalue() == ""

    def test_forced_draws_and_terminates_line(self):
        stream = io.StringIO()
        bus = TelemetryBus([ProgressSink(stream=stream, enabled=True,
                                         min_interval=0.0)])
        bus.emit("run_started", distinct=2)
        bus.emit("unit_finished", unit="a", cache_hit=False)
        bus.emit("unit_finished", unit="b", cache_hit=True)
        bus.emit("run_finished")
        text = stream.getvalue()
        assert "1/2 units" in text
        assert "2/2 units" in text
        assert "1 computed, 1 cache hits (50%)" in text
        assert text.endswith("\n")

    def _fire_at(self, sink, ts_of):
        """Drive a 3-unit run through the sink with controlled clocks."""
        from repro.obs.telemetry import TelemetryEvent

        sink.handle(TelemetryEvent(kind="run_started", seq=0,
                                   ts=ts_of("run_started"),
                                   payload={"distinct": 3}))
        for i in range(3):
            sink.handle(TelemetryEvent(kind="unit_finished", seq=i + 1,
                                       ts=ts_of("unit_finished"),
                                       payload={"cache_hit": True}))
        sink.handle(TelemetryEvent(kind="run_finished", seq=4,
                                   ts=ts_of("run_finished"), payload={}))

    def test_zero_duration_run_reports_unknown_rate(self):
        # An all-cache-hit batch can complete within one clock tick:
        # elapsed == 0 must not divide, nor fabricate an absurd rate.
        stream = io.StringIO()
        sink = ProgressSink(stream=stream, enabled=True, min_interval=0.0)
        self._fire_at(sink, lambda kind: 1000.0)
        text = stream.getvalue()
        assert "3/3 units" in text
        assert "? unit/s" in text and "ETA ?" in text
        assert "e+" not in text                    # no 1e9-ish rates

    def test_backwards_clock_skew_reports_unknown_rate(self):
        stream = io.StringIO()
        sink = ProgressSink(stream=stream, enabled=True, min_interval=0.0)
        self._fire_at(sink, lambda kind: 1000.0
                      if kind == "run_started" else 999.5)
        text = stream.getvalue()
        assert "? unit/s" in text and "ETA ?" in text

    def test_unit_finished_without_run_started(self):
        # A malformed stream (no run_started) still draws sanely.
        from repro.obs.telemetry import TelemetryEvent

        stream = io.StringIO()
        sink = ProgressSink(stream=stream, enabled=True, min_interval=0.0)
        sink.handle(TelemetryEvent(kind="unit_finished", seq=0, ts=5.0,
                                   payload={"cache_hit": False}))
        assert "1/0 units" in stream.getvalue()
        assert "? unit/s" in stream.getvalue()


class TestRunnerEventStream:
    """What the campaign runner actually emits, serial and parallel."""

    def events_for(self, workers):
        sink = RecordingSink()
        run_tiny_campaign(workers=workers, telemetry=TelemetryBus([sink]))
        return [e.to_record() for e in sink.events]

    def check_ordering(self, records):
        assert records[0]["kind"] == "run_started"
        assert records[-1]["kind"] == "run_finished"
        # Within a unit the order is fixed: started strictly before
        # finished, exactly one of each.  Across units anything goes.
        per_unit = {}
        for i, record in enumerate(records):
            if "unit" in record:
                per_unit.setdefault(record["unit"], []).append(
                    (i, record["kind"]))
        assert per_unit                   # the campaign has units at all
        for unit, seen in per_unit.items():
            kinds = [kind for _, kind in seen]
            assert kinds == ["unit_started", "unit_finished"], (unit, kinds)
        # Phase events come in started/finished pairs, in order.
        phases = [r for r in records if r["kind"].startswith("phase_")]
        by_phase = {}
        for record in phases:
            by_phase.setdefault(record["phase"], []).append(record["kind"])
        for phase, kinds in by_phase.items():
            assert kinds == ["phase_started", "phase_finished"], (phase,
                                                                  kinds)
        finished = [r for r in records if r["kind"] == "unit_finished"]
        assert all("wall_time" in r and "source" in r for r in finished)

    def test_serial_event_ordering(self):
        self.check_ordering(self.events_for(workers=1))

    def test_parallel_event_ordering(self):
        self.check_ordering(self.events_for(workers=2))

    def test_cache_hits_flagged(self, tmp_path):
        sink = RecordingSink()
        store = f"sqlite:{tmp_path / 'store.db'}"
        run_tiny_campaign(store=store)
        run_tiny_campaign(store=store, telemetry=TelemetryBus([sink]))
        finished = [e.payload for e in sink.events
                    if e.kind == "unit_finished"]
        assert finished and all(p["cache_hit"] for p in finished)
        assert {p["source"] for p in finished} <= {"memory", "disk"}


class TestCanonicalRunLog:
    def test_volatile_fields_projected(self):
        records = [{"kind": "unit_finished", "unit": "u", "seq": 9,
                    "ts": 1.0, "wall_time": 0.3, "worker": 1234,
                    "cache_hit": False, "source": "computed"}]
        (canon,) = canonical_events(records)
        assert canon == {"kind": "unit_finished", "unit": "u",
                         "cache_hit": False, "source": "computed"}

    def test_byte_identical_across_worker_counts(self, tmp_path):
        logs = {}
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.jsonl"
            run_tiny_campaign(
                workers=workers,
                telemetry=TelemetryBus([JsonlRunLogSink(path)]))
            logs[workers] = canonical_run_log_bytes(path)
        assert logs[1] == logs[2]
        # Raw logs differ (timestamps, pids): canonicalisation is doing
        # real work, not comparing identical files.
        assert (tmp_path / "w1.jsonl").read_bytes() \
            != (tmp_path / "w2.jsonl").read_bytes()


class TestHighwayRunLog:
    """Highway campaign units carry per-platoon fields in the canonical
    run log, and those fields are pure functions of the spec -- so the
    log stays byte-identical across worker counts."""

    TINY_HIGHWAY = ScenarioConfig(n_vehicles=4, duration=30.0, warmup=6.0,
                                  seed=7)

    def run_highway(self, **runner_kwargs):
        runner = CampaignRunner(**runner_kwargs)
        run_threat_catalogue(self.TINY_HIGHWAY, highway_variants(),
                             runner=runner)
        return runner

    def test_unit_events_carry_platoon_fields(self):
        sink = RecordingSink()
        self.run_highway(telemetry=TelemetryBus([sink]))
        unit_events = [e.payload for e in sink.events
                       if e.kind in ("unit_started", "unit_finished")]
        assert unit_events
        for payload in unit_events:
            assert payload["platoons"] == 2
            assert payload["lanes"] == 2
            assert payload["background"] >= 0

    def test_byte_identical_across_worker_counts(self, tmp_path):
        logs = {}
        for workers in (1, 2):
            path = tmp_path / f"hw-w{workers}.jsonl"
            self.run_highway(workers=workers,
                             telemetry=TelemetryBus([JsonlRunLogSink(path)]))
            logs[workers] = canonical_run_log_bytes(path)
        assert logs[1] == logs[2]
        assert b'"platoons":2' in logs[1]


class TestZeroCostWhenDisabled:
    """Telemetry is observational: it must not perturb traces (byte-
    identical) or cache entries (identical modulo the wall-clock fields
    that differ between *any* two runs)."""

    @staticmethod
    def stable_record_view(record: dict) -> dict:
        view = dict(record)
        view.pop("wall_time", None)
        # The observability snapshot carries per-episode timer wall
        # times; its presence and keys are part of the format, the
        # timings are not deterministic.
        view["observability"] = sorted(view.get("observability") or {})
        return view

    def test_cache_and_traces_unperturbed(self, tmp_path):
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        run_tiny_campaign(store=f"sqlite:{quiet / 'store.db'}",
                          trace_dir=quiet / "traces")
        run_tiny_campaign(store=f"sqlite:{loud / 'store.db'}",
                          trace_dir=loud / "traces",
                          telemetry=TelemetryBus([RecordingSink()]))
        quiet_traces = sorted((quiet / "traces").glob("*.trace.jsonl"))
        loud_traces = sorted((loud / "traces").glob("*.trace.jsonl"))
        assert [p.name for p in quiet_traces] \
            == [p.name for p in loud_traces]
        assert quiet_traces                     # computed units traced
        for a, b in zip(quiet_traces, loud_traces):
            assert a.read_bytes() == b.read_bytes()
        with SqliteStore(quiet / "store.db") as quiet_store, \
                SqliteStore(loud / "store.db") as loud_store:
            keys = quiet_store.keys()
            assert keys == loud_store.keys()
            assert keys
            for key in keys:
                ra, rb = quiet_store.load(key), loud_store.load(key)
                assert sorted(ra) == sorted(rb)     # identical record format
                assert self.stable_record_view(ra) == \
                    self.stable_record_view(rb)
