"""Tests for the Table II/III campaign machinery."""

import json
from pathlib import Path

import pytest

from repro.core import taxonomy
from repro.core.campaign import (
    MatrixCell,
    run_defense_matrix,
    run_experiment_spec,
    run_threat_catalogue,
)
from repro.core.experiment import ExperimentSpec, load_experiment_spec
from repro.core.runner import CampaignRunner
from repro.core.scenario import ScenarioConfig, run_episode
from repro.experiments import defense_stack, experiment_spec
from repro.obs.trace import load_trace

SPECS = Path(__file__).resolve().parent.parent.parent / "examples" / "specs"


@pytest.fixture
def small():
    return ScenarioConfig(n_vehicles=5, duration=45.0, warmup=8.0, seed=55)


def matrix_cell(mechanism, threat, config):
    """One Table III cell, taken from its mechanism's matrix row."""
    (cell,) = [c for c in run_defense_matrix(config, [mechanism])
               if c.threat_key == threat]
    return cell


class TestExperimentConstruction:
    def test_every_threat_has_an_experiment(self, small):
        for key in taxonomy.THREATS:
            experiment = experiment_spec(key).build(small)
            assert experiment.threat_key == key
            assert callable(experiment.make_attacks)
            attacks = experiment.make_attacks()
            assert attacks, f"{key} produced no attacks"

    def test_unknown_threat_rejected(self, small):
        with pytest.raises(KeyError):
            experiment_spec("quantum_hack").build(small)

    def test_variants_change_experiment(self, small):
        split = experiment_spec("fake_maneuver", "split").build(small)
        entrance = experiment_spec("fake_maneuver", "entrance").build(small)
        assert split.metric_name != entrance.metric_name

    def test_attack_factory_produces_fresh_instances(self, small):
        experiment = experiment_spec("jamming").build(small)
        first = experiment.make_attacks()
        second = experiment.make_attacks()
        assert first[0] is not second[0]

    def test_unknown_malware_variant_rejected(self, small):
        # Historically this silently fell back to the wireless vector.
        with pytest.raises(ValueError, match="wireless"):
            experiment_spec("malware", "usb").build(small)

    def test_unknown_fake_maneuver_variant_rejected(self, small):
        # Historically this raised a bare KeyError from the metric dict.
        with pytest.raises(ValueError, match="entrance"):
            experiment_spec("fake_maneuver", "warp").build(small)


class TestDefenseConstruction:
    def test_every_mechanism_buildable(self):
        for key in taxonomy.MECHANISMS:
            stack = defense_stack(key)
            assert stack.build()
            assert isinstance(stack.requirements, dict)

    def test_hybrid_requires_vlc(self):
        requirements = defense_stack("hybrid_communications").requirements
        assert requirements.get("with_vlc") is True

    def test_rsu_requires_infrastructure(self):
        requirements = defense_stack("roadside_units").requirements
        assert requirements.get("with_authority") is True
        assert requirements.get("rsu_positions")

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(KeyError):
            defense_stack("prayer")


class TestThreatOutcome:
    def test_jamming_outcome_has_effect(self, small):
        (outcome,) = run_threat_catalogue(small, ["jamming"])
        assert outcome.effect_present
        assert outcome.attacked_value > outcome.baseline_value
        assert "jamming.pdr" in outcome.attack_observables

    def test_impact_ratio(self):
        from repro.core.campaign import ThreatOutcome

        outcome = ThreatOutcome("x", "v", "m", baseline_value=2.0,
                                attacked_value=6.0, effect_present=True)
        assert outcome.impact_ratio == 3.0
        zero = ThreatOutcome("x", "v", "m", baseline_value=0.0,
                             attacked_value=6.0, effect_present=True)
        assert zero.impact_ratio is None


class TestMatrixCell:
    def test_mitigation_semantics(self):
        full = MatrixCell("m", "t", "metric", baseline_value=0.0,
                          attacked_value=10.0, defended_value=0.0)
        assert full.mitigation == pytest.approx(1.0)
        none = MatrixCell("m", "t", "metric", baseline_value=0.0,
                          attacked_value=10.0, defended_value=10.0)
        assert none.mitigation == pytest.approx(0.0)
        harmful = MatrixCell("m", "t", "metric", baseline_value=0.0,
                             attacked_value=10.0, defended_value=15.0)
        assert harmful.mitigation < 0
        no_effect = MatrixCell("m", "t", "metric", baseline_value=5.0,
                               attacked_value=5.0, defended_value=5.0)
        assert no_effect.mitigation is None

    def test_keys_vs_fake_maneuver_cell(self, small):
        cell = matrix_cell("secret_public_keys", "fake_maneuver", small)
        assert cell.attacked_value > cell.baseline_value
        assert cell.mitigation is not None and cell.mitigation > 0.8

    def test_hybrid_vs_jamming_cell(self, small):
        cell = matrix_cell("hybrid_communications", "jamming", small)
        assert cell.mitigation is not None and cell.mitigation > 0.6


def compose_by_hand(spec, base):
    """The spec as bare ``run_episode`` calls -- no engine, no records:
    ``([baseline, attacked(, defended)] values, attack observables)``."""
    experiment = spec.build(base)

    def episode(**kwargs):
        return run_episode(experiment.config, setup_hooks=experiment.hooks,
                           **kwargs)

    results = [episode(), episode(attacks=experiment.make_attacks())]
    if spec.defenses:
        results.append(episode(attacks=experiment.make_attacks(),
                               defenses=spec.build_defenses(base)))
    values = [float(getattr(r.metrics, experiment.metric_name))
              for r in results]
    observables = {f"{report.attack_name}.{key}": value
                   for report in results[1].attack_reports
                   for key, value in report.observables.items()}
    return values, observables


class TestExperimentSpecOnEngine:
    """``run_experiment_spec`` runs through the campaign engine and
    reproduces the spec's hand composition exactly."""

    BASE = ScenarioConfig(n_vehicles=5, duration=45.0, warmup=10.0, seed=3)

    #: ``config`` moves the warmup, but ``$config`` expressions resolve
    #: against the base, so the jammer still starts at the base warmup.
    WARMUP_OVERRIDE = ExperimentSpec.from_dict({
        "threat": "jamming", "variant": "late-warmup",
        "config": {"warmup": 20.0},
        "attacks": [{"component": "jamming",
                     "params": {"start_time": {"$config": "warmup"},
                                "power_dbm": 30.0}}],
        "metric": {"name": "degraded_fraction"}})

    @pytest.mark.parametrize("spec", [
        load_experiment_spec(SPECS / "pulsed_jamming.json"),
        load_experiment_spec(SPECS / "insider_surge.json"),
        WARMUP_OVERRIDE,
    ], ids=lambda spec: spec.display_name)
    def test_engine_matches_hand_composition(self, spec, tmp_path):
        runner = CampaignRunner(trace_dir=tmp_path)
        run = run_experiment_spec(spec, self.BASE, runner=runner)
        values, observables = compose_by_hand(spec, self.BASE)
        engine_values = [run.outcome.baseline_value,
                         run.outcome.attacked_value]
        if spec.defenses:
            engine_values.append(run.defended_value)
        assert engine_values == values
        assert run.outcome.attack_observables == \
            json.loads(json.dumps(observables))
        assert runner.report().computed == len(values)
        # No seed derivation: every episode runs at the base seed.
        headers = [load_trace(t)[0] for t in tmp_path.glob("*.trace.jsonl")]
        assert [h["seed"] for h in headers] == [self.BASE.seed] * len(values)

    def test_config_expressions_resolve_against_the_base(self, tmp_path):
        run_experiment_spec(self.WARMUP_OVERRIDE, self.BASE,
                            runner=CampaignRunner(trace_dir=tmp_path))
        starts = [record["t"]
                  for trace in tmp_path.glob("*.trace.jsonl")
                  for record in load_trace(trace)[1]
                  if record.get("kind") == "attack_start"]
        assert starts == [self.BASE.warmup]
