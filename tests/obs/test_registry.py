"""Tests for the metrics registry (`repro.obs.registry`).

Covers the counter/gauge/timer primitives, snapshot/merge semantics
(the cross-process aggregation contract), registry isolation, and the
end-to-end path: worker snapshots merged into the campaign runner's
report, with no double-counting on cache hits.
"""

import json

from repro.core.campaign import run_threat_catalogue
from repro.core.runner import CampaignRunner
from repro.core.scenario import ScenarioConfig
from repro.obs import registry as obs
from repro.obs.registry import MetricsRegistry

TINY = ScenarioConfig(n_vehicles=4, duration=30.0, warmup=6.0, seed=7)


class TestCounters:
    def test_inc_and_read(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.inc("b", 0.5)
        assert reg.counter("a") == 3
        assert reg.counter("b") == 0.5
        assert reg.counter("missing") == 0

    def test_gauges(self):
        reg = MetricsRegistry()
        assert reg.gauge("x") is None
        reg.set_gauge("x", 1.0)
        reg.set_gauge("x", -2.0)   # last-write-wins locally
        assert reg.gauge("x") == -2.0


class TestTimers:
    def test_observe_accumulates_total_count_max(self):
        reg = MetricsRegistry()
        reg.observe("t", 0.1)
        reg.observe("t", 0.3)
        reg.observe("t", 0.2)
        assert reg.timer_total("t") == 0.1 + 0.3 + 0.2
        assert reg.timer_count("t") == 3
        assert reg.snapshot()["timers"]["t"]["max"] == 0.3

    def test_timed_context_records_one_interval(self):
        reg = MetricsRegistry()
        with reg.timed("block"):
            pass
        assert reg.timer_count("block") == 1
        assert reg.timer_total("block") >= 0.0

    def test_timed_records_on_exception(self):
        reg = MetricsRegistry()
        try:
            with reg.timed("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert reg.timer_count("boom") == 1

    def test_span_builds_dotted_paths(self):
        reg = MetricsRegistry()
        with reg.span("run"):
            with reg.span("compute"):
                pass
            with reg.span("record"):
                pass
        timers = reg.snapshot()["timers"]
        assert set(timers) == {"run", "run.compute", "run.record"}

    def test_span_stack_unwinds_on_exception(self):
        reg = MetricsRegistry()
        try:
            with reg.span("outer"):
                with reg.span("inner"):
                    raise RuntimeError
        except RuntimeError:
            pass
        with reg.span("after"):
            pass
        assert "after" in reg.snapshot()["timers"]          # not "outer.after"


class TestSnapshotMerge:
    """The cross-process aggregation contract: counters and timer
    totals/counts sum; timer maxima and gauges take the max."""

    def test_snapshot_is_plain_json(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set_gauge("g", 1.5)
        reg.observe("t", 0.25)
        snap = reg.snapshot()
        assert snap == json.loads(json.dumps(snap))
        assert snap["version"] == obs.SNAPSHOT_VERSION
        assert snap["timers"]["t"] == {"total": 0.25, "count": 1, "max": 0.25}

    def test_counters_sum_across_merges(self):
        parent = MetricsRegistry()
        for amount in (1, 2, 3):
            worker = MetricsRegistry()
            worker.inc("frames.sent", amount)
            parent.merge_snapshot(worker.snapshot())
        assert parent.counter("frames.sent") == 6

    def test_timers_merge_totals_and_max(self):
        parent = MetricsRegistry()
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("ep", 0.2)
        a.observe("ep", 0.4)
        b.observe("ep", 0.9)
        parent.merge_snapshot(a.snapshot())
        parent.merge_snapshot(b.snapshot())
        merged = parent.snapshot()["timers"]["ep"]
        assert merged["count"] == 3
        assert abs(merged["total"] - 1.5) < 1e-12
        assert merged["max"] == 0.9

    def test_gauges_merge_to_max(self):
        parent = MetricsRegistry()
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("queue_depth", 3)
        b.set_gauge("queue_depth", 7)
        parent.merge_snapshot(a.snapshot())
        parent.merge_snapshot(b.snapshot())
        assert parent.gauge("queue_depth") == 7

    def test_merge_empty_snapshot_is_noop(self):
        parent = MetricsRegistry()
        parent.inc("c")
        parent.merge_snapshot({})
        assert parent.counter("c") == 1

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("t", 1.0)
        reg.set_gauge("g", 1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["timers"] == {} \
            and snap["gauges"] == {}


class TestIsolation:
    def test_isolated_registry_swaps_and_restores(self):
        outer = obs.get_registry()
        outer_before = outer.counter("marker")
        with obs.isolated_registry() as inner:
            obs.inc("marker", 10)
            assert obs.get_registry() is inner
            assert inner.counter("marker") == 10
        assert obs.get_registry() is outer
        assert outer.counter("marker") == outer_before

    def test_isolated_registry_restores_on_exception(self):
        outer = obs.get_registry()
        try:
            with obs.isolated_registry():
                raise RuntimeError
        except RuntimeError:
            pass
        assert obs.get_registry() is outer

    def test_profiling_toggle(self):
        before = obs.profiling_enabled()
        try:
            obs.set_profiling(True)
            assert obs.profiling_enabled()
            obs.set_profiling(False)
            assert not obs.profiling_enabled()
        finally:
            obs.set_profiling(before)


class TestFormatSnapshot:
    def test_renders_counters_and_timers(self):
        reg = MetricsRegistry()
        reg.inc("frames.sent", 42)
        reg.observe("episode", 0.5)
        text = obs.format_snapshot(reg.snapshot(), title="test obs")
        assert "frames.sent" in text and "42" in text
        assert "episode" in text and "timers" in text

    def test_empty_snapshot(self):
        assert "(empty)" in obs.format_snapshot(MetricsRegistry().snapshot())


class TestRunnerAggregation:
    """Workers serialise their registry snapshot back inside the episode
    record; the runner merges them into its report."""

    def test_report_carries_aggregated_counters_and_phases(self):
        runner = CampaignRunner()
        run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
        report = runner.report()
        # Two episodes (baseline + attacked) ran and were merged.
        assert report.counters["episodes.run"] == 2
        assert report.counters["frames.sent"] > 0
        assert report.counters["dynamics.steps"] > 0
        assert report.counters["sim.events"] > 0
        # The runner's own phase wall times ride alongside.
        assert set(report.phases) >= {"resolve", "compute", "record"}
        assert report.timers["episode"]["count"] == 2
        assert "phases:" in report.summary()
        assert "frames.sent" in report.format_observability()

    def test_serial_and_parallel_counters_agree(self):
        serial = CampaignRunner(workers=1)
        run_threat_catalogue(TINY, threats=["jamming"], runner=serial)
        parallel = CampaignRunner(workers=2)
        run_threat_catalogue(TINY, threats=["jamming"], runner=parallel)
        # Counters are sim-derived, so the pool must report exactly the
        # numbers the serial path does.
        assert serial.report().counters == parallel.report().counters

    def test_cache_hits_do_not_double_count(self):
        runner = CampaignRunner()
        run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
        first = dict(runner.report().counters)
        run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
        assert runner.report().cache_hits == 2
        assert runner.report().counters == first

    def test_disk_cache_hits_do_not_double_count(self, tmp_path):
        store = f"sqlite:{tmp_path / 'store.db'}"
        run_threat_catalogue(TINY, threats=["jamming"],
                             runner=CampaignRunner(store=store))
        fresh = CampaignRunner(store=store)
        run_threat_catalogue(TINY, threats=["jamming"], runner=fresh)
        report = fresh.report()
        assert report.cache_hits == 2 and report.computed == 0
        assert report.counters == {}
