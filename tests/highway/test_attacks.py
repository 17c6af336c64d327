"""Cross-platoon attack cells, end to end through the campaign layer.

Runs ``run_threat_catalogue`` over :func:`highway_variants` exactly as
the ``highway`` CLI subcommand does (same base config, same derived
seeds), so these tests pin the headline claims of the highway
subsystem:

* the Sybil attacker gets the *same* ghosts admitted to multiple
  platoons at once (physically impossible for a real vehicle);
* a jammer parked on the merge seam starves the leader-to-leader
  negotiation that the baseline episode completes;
* the campaign is deterministic and episode-cacheable -- a second run
  is pure cache hits and byte-for-byte the same verdicts.
"""

from __future__ import annotations

import pytest

from repro.core.campaign import highway_variants, run_threat_catalogue
from repro.core.runner import CampaignRunner
from repro.core.scenario import ScenarioConfig
from repro.obs.telemetry import RecordingSink, TelemetryBus

BASE = ScenarioConfig(n_vehicles=8, duration=45.0, warmup=10.0, seed=42)

CELLS = {("sybil", "highway-ghost-shopping"),
         ("jamming", "highway-merge-point")}


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    store = f"sqlite:{tmp_path_factory.mktemp('highway-store') / 'store.db'}"
    first = run_threat_catalogue(BASE, highway_variants(),
                                 runner=CampaignRunner(store=store))
    sink = RecordingSink()
    second = run_threat_catalogue(
        BASE, highway_variants(),
        runner=CampaignRunner(store=store, telemetry=TelemetryBus([sink])))
    return first, second, sink


def outcome_for(outcomes, threat):
    (outcome,) = [o for o in outcomes if o.threat_key == threat]
    return outcome


def test_highway_cells_discovered_structurally():
    """Any catalogue variant with a highway layout joins the campaign --
    no hand-maintained list to forget to update."""
    assert CELLS <= set(highway_variants())


def test_every_cell_has_a_defined_nonzero_impact(campaign):
    outcomes, _, _ = campaign
    assert {(o.threat_key, o.variant) for o in outcomes} == CELLS
    for outcome in outcomes:
        assert outcome.impact_ratio is not None
        assert outcome.impact_ratio > 0.0


def test_sybil_ghosts_shopped_to_multiple_platoons(campaign):
    outcomes, _, _ = campaign
    obs = outcome_for(outcomes, "sybil").attack_observables
    assert obs["multi_sybil.platoons_targeted"] == 2
    assert obs["multi_sybil.platoons_infiltrated"] == 2
    assert obs["multi_sybil.ghost_admissions"] >= 2
    # Rosters now claim more members than physically exist.
    assert obs["multi_sybil.roster_inflation"] >= 2


def test_merge_jamming_starves_the_negotiation(campaign):
    outcomes, _, _ = campaign
    outcome = outcome_for(outcomes, "jamming")
    obs = outcome.attack_observables
    # Discovery still happened before the jammer came up, but no merge
    # ever commits under jamming -- the baseline episode of this exact
    # layout and seed merges (tests/highway/test_merge.py).
    assert obs["merge_jamming.platoons_discovered"] >= 1
    assert obs["merge_jamming.merges_committed"] == 0
    # The jam also dents delivery: attacked PDR below baseline.
    assert outcome.effect_present
    assert outcome.attacked_value < outcome.baseline_value


def test_campaign_is_deterministic_and_cacheable(campaign):
    first, second, sink = campaign
    assert first == second
    finished = [e.payload for e in sink.events if e.kind == "unit_finished"]
    assert finished and all(p["cache_hit"] for p in finished)
