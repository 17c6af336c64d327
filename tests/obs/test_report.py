"""Tests for the self-contained HTML reports (`repro.obs.report`).

Smoke-level DOM assertions: the outcome/matrix/sweep sections land in
the document, charts render as inline SVG, everything user-controlled
is escaped, and the self-containment property holds -- no scripts and
no URL other than the SVG xml namespace.
"""

import re
from types import SimpleNamespace

import pytest

from repro.core.runner import RunReport, UnitReport
from repro.obs.report import (
    campaign_report,
    html_table,
    render_page,
    svg_line_chart,
    sweep_report,
    write_report,
)

#: The one URL a self-contained report may contain.
SVG_XMLNS = "http://www.w3.org/2000/svg"


def assert_self_contained(document):
    assert "<script" not in document
    urls = set(re.findall(r"https?://[^\"'<> ]+", document))
    assert urls <= {SVG_XMLNS}, urls


def outcome(threat="jamming", confirmed=True):
    return SimpleNamespace(
        threat_key=threat, variant="v", metric_name="degraded_fraction",
        baseline_value=0.0, attacked_value=0.79, impact_ratio=None,
        effect_present=confirmed)


def cell():
    return SimpleNamespace(
        mechanism_key="mac", threat_key="replay", metric_name="gap",
        baseline_value=14.9, attacked_value=38.6, defended_value=15.1,
        mitigation=0.99)


def run_report():
    units = [
        UnitReport(key="a" * 64, threat_key="jamming", variant="v",
                   role="baseline", mechanism_key=None, cache_hit=False,
                   source="computed", wall_time=0.4),
        UnitReport(key="b" * 64, threat_key="jamming", variant="v",
                   role="attacked", mechanism_key=None, cache_hit=True,
                   source="disk", wall_time=0.0),
    ]
    return RunReport(workers=2, units=units, wall_time=0.5,
                     phases={"resolve": 0.01, "compute": 0.45})


def sweep_result(curve=True):
    points = [SimpleNamespace(
        index=i, label=f"attack.power_dbm={x:g}", metric="degraded",
        replicates=2, baseline={"mean": 0.0, "std": 0.0},
        attacked={"mean": 0.1 * i, "std": 0.01},
        impact_ratio=None, effect_rate=float(i > 0), disband_rate=0.0,
        detection_rate=0.0) for i, x in enumerate((-10.0, 10.0, 30.0))]
    xs = [-10.0, 10.0, 30.0]
    series = {"baseline_mean": [0.0, 0.0, 0.0],
              "attacked_mean": [0.0, 0.1, 0.2],
              "defended_mean": [None, None, None],
              "effect_rate": [0.0, 1.0, 1.0],
              "disband_rate": [0.0, 0.0, 0.0],
              "detection_rate": [0.0, 0.0, 0.0]}
    curve_obj = SimpleNamespace(
        axis="attack.power_dbm", xs=xs,
        series=lambda name: series[name]) if curve else None
    spec = SimpleNamespace(name="jam", threat="jamming", variant=None,
                           mechanism=None, axes=[SimpleNamespace(
                               path="attack.power_dbm")],
                           seed_replicates=2, root_seed=42)
    return SimpleNamespace(
        spec=spec, points=points, curve=curve_obj,
        thresholds=[SimpleNamespace(response="effect_rate", level=0.5,
                                    crossing=10.0)],
        episodes_planned=12)


class TestHtmlPrimitives:
    def test_html_table_escapes_and_classes(self):
        table = html_table(["a<b"], [[("<script>alert(1)</script>",
                                       "confirmed")]])
        assert "a&lt;b" in table
        assert "<script>" not in table
        assert 'class="confirmed"' in table

    def test_svg_chart_numeric(self):
        svg = svg_line_chart([0.0, 1.0, 2.0],
                             {"s1": [1.0, None, 3.0], "s2": [0.5, 0.6, 0.7]},
                             title="t", x_label="x", y_label="y")
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "circle" in svg
        assert "s1" in svg and "s2" in svg

    def test_svg_chart_refuses_non_numeric(self):
        assert svg_line_chart(["lo", "hi"], {"s": [1.0, 2.0]}) == ""
        assert svg_line_chart([1.0, 2.0], {"s": [None, None]}) == ""

    def test_render_page_is_standalone(self):
        document = render_page("Title & co", [("Head", "<p>body</p>")])
        assert document.startswith("<!doctype html>")
        assert "Title &amp; co" in document
        assert "<style>" in document
        assert_self_contained(document)


class TestCampaignReport:
    def test_catalogue_sections(self):
        document = campaign_report(
            "Table II campaign",
            outcomes=[outcome(), outcome("replay", confirmed=False)],
            run_report=run_report(), trace_dir="traces")
        assert "Table II outcomes" in document
        assert "CONFIRMED" in document and "no effect" in document
        assert "Per-unit timing" in document
        assert "Run summary" in document
        # Computed units link to their trace; cache hits do not.
        assert f'href="traces/{"a" * 64}.trace.jsonl"' in document
        assert ("b" * 64) not in document
        assert_self_contained(document)

    def test_matrix_sections(self):
        document = campaign_report("Table III defence matrix",
                                   cells=[cell()])
        assert "Table III defence matrix" in document
        assert "mac" in document and "mitigation" in document
        assert_self_contained(document)

    def test_empty_report_degrades(self):
        assert "nothing to report" in campaign_report("empty")


class TestSweepReport:
    def test_sections_and_charts(self):
        document = sweep_report(sweep_result(), run_report=run_report())
        assert "sweep jam" in document
        assert "Sweep specification" in document
        assert "Sweep points" in document
        assert "Dose-response curves" in document
        assert document.count("<svg") == 2        # means + outcome rates
        assert "Threshold estimates" in document
        assert_self_contained(document)

    def test_no_curve_falls_back_to_table(self):
        document = sweep_report(sweep_result(curve=False))
        assert "<svg" not in document
        assert "Sweep points" in document
        assert_self_contained(document)


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        path = write_report(tmp_path / "sub" / "r.html",
                            campaign_report("t", outcomes=[outcome()]))
        assert path.exists()
        assert "Table II" in path.read_text()

    def test_unwritable_is_user_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(ValueError, match="not writable"):
            write_report(blocker / "sub" / "r.html", "<html></html>")
