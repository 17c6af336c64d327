"""Tests for the benchmark-history store (`repro.obs.history`).

Covers record construction from a run report, JSONL round-trips,
validation of malformed records/files, every gating rule of
`compare_records` (wall-time slowdowns only, two-sided metric drift,
the counters-only-at-equal-compute rule, label mismatches), and the
benchmark harness routing its tables through the store.
"""

import json

import pytest

from repro.core.runner import RunReport, UnitReport
from repro.obs.history import (
    HISTORY_FORMAT,
    append_history,
    compare_records,
    load_history,
    load_record,
    make_bench_record,
)


def tiny_report(wall_time=2.0, computed=2):
    units = []
    for i in range(3):
        hit = i >= computed
        units.append(UnitReport(
            key=f"unit{i}", threat_key="jamming", variant="v",
            role="baseline" if i == 0 else "attacked", mechanism_key=None,
            cache_hit=hit, source="memory" if hit else "computed",
            wall_time=0.0 if hit else 0.4))
    return RunReport(workers=2, units=units, wall_time=wall_time,
                     counters={"frames.sent": 100.0, "disbands": 2.0},
                     timers={"episode": {"count": 2, "total": 0.8,
                                         "max": 0.5}},
                     phases={"resolve": 0.01, "compute": wall_time})


def record(label="camp", wall_time=2.0, computed=2, metrics=None,
           **overrides):
    rec = make_bench_record(label, tiny_report(wall_time, computed),
                            metrics=metrics or {"m": 1.0}, root_seed=42,
                            git_sha="deadbeef", created=1000.0)
    rec.update(overrides)
    return rec


class TestMakeBenchRecord:
    def test_fields_from_report(self):
        rec = record()
        assert rec["format"] == HISTORY_FORMAT
        assert rec["label"] == "camp"
        assert rec["git_sha"] == "deadbeef"
        assert rec["root_seed"] == 42
        assert rec["workers"] == 2
        assert rec["units"] == 3
        assert rec["computed"] == 2
        assert rec["cache_hits"] == 1
        assert rec["wall_time"] == 2.0
        assert rec["phases"]["compute"] == 2.0
        assert rec["metrics"] == {"m": 1.0}
        assert rec["counters"]["frames.sent"] == 100.0
        assert rec["timers"]["episode"]["count"] == 2
        json.dumps(rec)                   # plain JSON, no dataclasses

    def test_table_only_record(self):
        rec = make_bench_record("bench[t2]", metrics={"a.b": 0.5},
                                git_sha=None, created=1.0)
        assert rec["units"] == 0 and rec["workers"] is None
        assert rec["metrics"] == {"a.b": 0.5}


class TestHistoryIO:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "hist" / "BENCH_history.jsonl"
        append_history(path, record(label="a"))
        append_history(path, record(label="b"))
        labels = [r["label"] for r in load_history(path)]
        assert labels == ["a", "b"]

    def test_load_record_standalone(self, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(record(), indent=2))
        assert load_record(path)["label"] == "camp"

    def test_load_record_takes_latest_history_entry(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(path, record(label="a"))
        assert load_record(path)["label"] == "a"
        append_history(path, record(label="b"))
        assert load_record(path)["label"] == "b"
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_record(empty)

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported bench record"):
            append_history(tmp_path / "h.jsonl", {"format": "nope/9",
                                                  "label": "x"})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": HISTORY_FORMAT}))
        with pytest.raises(ValueError, match="no string 'label'"):
            load_record(path)

    def test_corrupt_history_line_names_position(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(path, record())
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(ValueError, match=r"h\.jsonl:2"):
            load_history(path)

    def test_unwritable_history_is_user_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(ValueError, match="not writable"):
            append_history(blocker / "sub" / "h.jsonl", record())


class TestCompareRecords:
    def test_identical_records_pass(self):
        comparison = compare_records(record(), record())
        assert comparison.ok
        assert "no divergence" in comparison.format()

    def test_wall_slowdown_gated_speedup_not(self):
        slow = compare_records(record(wall_time=1.0),
                               record(wall_time=3.0), wall_tolerance=1.0)
        assert not slow.ok
        assert any("wall_time regressed" in p for p in slow.problems)
        fast = compare_records(record(wall_time=3.0),
                               record(wall_time=0.1), wall_tolerance=1.0)
        assert fast.ok

    def test_metric_drift_gated_both_directions(self):
        for new_value in (1.2, 0.8):
            comparison = compare_records(
                record(metrics={"m": 1.0}),
                record(metrics={"m": new_value}), metric_tolerance=0.05)
            assert not comparison.ok
            assert any("'m'" in p and "drifted" in p
                       for p in comparison.problems)

    def test_zero_tolerance_names_the_metric(self):
        comparison = compare_records(
            record(metrics={"m": 1.0}),
            record(metrics={"m": 1.0000001}), metric_tolerance=0.0)
        assert not comparison.ok
        assert any("metric 'm'" in p for p in comparison.problems)

    def test_missing_metric_fails_new_metric_notes(self):
        comparison = compare_records(record(metrics={"m": 1.0, "x": 2.0}),
                                     record(metrics={"m": 1.0, "y": 3.0}))
        assert any("'x'" in p and "missing" in p
                   for p in comparison.problems)
        assert any("'y'" in n and "new" in n for n in comparison.notes)

    def test_counters_gated_only_at_equal_compute(self):
        # Same computed count: counter drift is a problem.
        drifted = record()
        drifted["counters"] = dict(drifted["counters"], disbands=50.0)
        comparison = compare_records(record(), drifted,
                                     metric_tolerance=0.05)
        assert any("counter 'disbands'" in p for p in comparison.problems)
        # Warm-cache run computed fewer units: counters are skipped.
        warm = dict(drifted, computed=0)
        comparison = compare_records(record(), warm, metric_tolerance=0.05)
        assert comparison.ok
        assert any("counters not gated" in n for n in comparison.notes)

    def test_label_mismatch_is_divergence(self):
        comparison = compare_records(record(label="catalogue"),
                                     record(label="matrix"))
        assert any("label mismatch" in p for p in comparison.problems)


class TestBenchHarnessRouting:
    """benchmarks/_util.emit feeds the history store; the removed
    REPRO_BENCH_LOG prose log errors loudly instead of silently
    ignoring the setting."""

    def util(self):
        import benchmarks._util as util
        return util

    def test_emit_appends_history_record(self, tmp_path, monkeypatch,
                                         capsys):
        util = self.util()
        hist = tmp_path / "BENCH_history.jsonl"
        monkeypatch.setattr(util, "BENCH_HISTORY", str(hist))
        util.emit("T2 jamming", ["threat", "metric", "value"],
                  [["jamming", "degraded_fraction", 0.79]])
        (rec,) = load_history(hist)
        assert rec["label"] == "bench[T2 jamming]"
        assert rec["metrics"] == {"jamming/degraded_fraction.value": 0.79}
        assert rec["root_seed"] == util.BENCH_CONFIG.seed

    def test_no_results_log_by_default(self, tmp_path, monkeypatch):
        util = self.util()
        monkeypatch.setattr(util, "BENCH_HISTORY", None)
        monkeypatch.chdir(tmp_path)
        util.emit("quiet", ["a"], [["x"]])
        assert list(tmp_path.iterdir()) == []

    def test_legacy_log_env_rejected_at_import(self, tmp_path, monkeypatch):
        # A fresh import with REPRO_BENCH_LOG set must fail with the
        # replacement spelled out, not quietly drop the prose log.
        import importlib
        import benchmarks._util as util
        monkeypatch.setenv("REPRO_BENCH_LOG", str(tmp_path / "results.log"))
        with pytest.raises(RuntimeError, match="REPRO_BENCH_HISTORY"):
            importlib.reload(util)
        monkeypatch.delenv("REPRO_BENCH_LOG")
        importlib.reload(util)

    def test_table_metrics_flattening(self):
        util = self.util()
        metrics = util.table_metrics(
            ["mechanism", "threat", "value", "ok"],
            [["mac", "replay", 1.5, True],
             ["mac", "replay", 2.5, False],      # collision -> #rowindex
             [3.0, "tail", 4.0]])                # no leading labels
        assert metrics == {"mac/replay.value": 1.5,
                           "mac/replay.value#1": 2.5,
                           "row2.mechanism": 3.0,
                           "row2.value": 4.0}
