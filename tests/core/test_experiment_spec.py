"""Tests for declarative experiment specs and the catalogue.

Covers the ISSUE-4 completeness requirements (every taxonomy threat,
documented variant and mechanism resolves through the registry) and the
spec round-trip guarantee (parse -> resolve -> re-serialise is
byte-identical for canonical-form JSON).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core import taxonomy
from repro.core.experiment import (
    EXPERIMENT_FORMAT,
    ComponentSpec,
    ExperimentSpec,
    MetricSpec,
    load_experiment_spec,
    resolve_value,
)
from repro.core.registry import REGISTRY
from repro.core.scenario import ScenarioConfig
from repro.experiments import (
    CATALOGUE,
    DEFENSE_STACKS,
    check_catalogue_complete,
    defense_stack,
    experiment_spec,
    iter_experiment_specs,
    variant_names,
)

EXAMPLE_SPEC = (Path(__file__).resolve().parent.parent.parent
                / "examples" / "specs" / "pulsed_jamming.json")


@pytest.fixture
def small():
    return ScenarioConfig(n_vehicles=5, duration=45.0, warmup=8.0, seed=55)


class TestCompleteness:
    """Every taxonomy row resolves through the registry-backed catalogue."""

    def test_every_threat_catalogued(self):
        assert set(CATALOGUE) == set(taxonomy.THREATS)

    def test_every_mechanism_has_a_stack(self):
        assert set(DEFENSE_STACKS) == set(taxonomy.MECHANISMS)

    def test_every_variant_resolves_and_builds(self, small):
        for threat_key in taxonomy.THREATS:
            for variant in variant_names(threat_key):
                spec = experiment_spec(threat_key, variant)
                experiment = spec.build(small)
                assert experiment.threat_key == threat_key
                assert experiment.variant == variant
                assert experiment.make_attacks()

    def test_every_stack_builds(self):
        for mechanism_key in taxonomy.MECHANISMS:
            stack = defense_stack(mechanism_key)
            defenses = stack.build()
            assert defenses
            # fresh instances per build
            assert stack.build()[0] is not defenses[0]

    def test_every_taxonomy_impl_registered(self):
        for threat in taxonomy.THREATS.values():
            for impl in threat.attack_impls:
                assert impl in REGISTRY.keys("attack"), impl
        for mechanism in taxonomy.MECHANISMS.values():
            for impl in mechanism.defense_impls:
                assert impl in REGISTRY.keys("defense"), impl

    def test_catalogue_check_is_clean(self):
        assert check_catalogue_complete() == []

    def test_stray_registered_attack_reported(self, monkeypatch):
        monkeypatch.setitem(REGISTRY._components["attack"], "stray_jammer",
                            REGISTRY.get("attack", "jamming"))
        assert check_catalogue_complete() == [
            "attack 'stray_jammer' is registered but no taxonomy row "
            "names it"]

    def test_row_naming_unregistered_impl_reported(self, monkeypatch):
        row = taxonomy.THREATS["jamming"]
        monkeypatch.setitem(taxonomy.THREATS, "jamming", dataclasses.replace(
            row, attack_impls=row.attack_impls + ("ghost_jammer",)))
        assert check_catalogue_complete() == [
            "threat 'jamming' names unregistered attack 'ghost_jammer'"]


class TestCatalogueAccess:
    def test_unknown_threat_is_keyerror(self):
        with pytest.raises(KeyError, match="quantum"):
            experiment_spec("quantum")

    def test_unknown_variant_is_valueerror_naming_valid(self):
        with pytest.raises(ValueError, match="wireless"):
            experiment_spec("malware", "usb")
        with pytest.raises(ValueError, match="entrance"):
            experiment_spec("fake_maneuver", "warp")

    def test_unknown_mechanism_is_keyerror(self):
        with pytest.raises(KeyError, match="secret_public_keys"):
            defense_stack("prayer")

    def test_default_variant_selected(self):
        assert experiment_spec("fake_maneuver").variant == "split"
        assert experiment_spec("malware").variant == "wireless"


class TestRoundTrip:
    """spec -> resolve -> re-serialise must be byte-identical."""

    def test_catalogue_specs_round_trip(self):
        for _threat, _variant, _default, spec in iter_experiment_specs():
            data = spec.to_dict()
            text = json.dumps(data, indent=2)
            reparsed = ExperimentSpec.from_dict(json.loads(text))
            assert json.dumps(reparsed.to_dict(), indent=2) == text

    def test_example_spec_round_trips_byte_identical(self):
        data = json.loads(EXAMPLE_SPEC.read_text())
        spec = load_experiment_spec(EXAMPLE_SPEC)
        assert spec.to_dict() == data
        assert (json.dumps(spec.to_dict(), indent=2)
                == json.dumps(data, indent=2))

    def test_format_tag_emitted_first(self):
        data = experiment_spec("jamming").to_dict()
        assert next(iter(data)) == "format"
        assert data["format"] == EXPERIMENT_FORMAT


class TestValidation:
    def base_dict(self, **overrides):
        data = {
            "format": EXPERIMENT_FORMAT,
            "threat": "jamming",
            "variant": "custom",
            "attacks": [{"component": "jamming",
                         "params": {"power_dbm": 10.0}}],
            "metric": {"name": "degraded_fraction"},
        }
        data.update(overrides)
        return data

    def test_valid_spec_parses(self):
        spec = ExperimentSpec.from_dict(self.base_dict())
        assert spec.threat == "jamming"
        assert spec.metric.lower_is_better is None
        assert spec.build().make_attacks()[0].power_dbm == 10.0

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            ExperimentSpec.from_dict(self.base_dict(surprise=1))

    def test_unsupported_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            ExperimentSpec.from_dict(self.base_dict(format="platoonsec-experiment/999"))

    def test_unknown_threat_rejected(self):
        with pytest.raises(ValueError, match="unknown threat"):
            ExperimentSpec.from_dict(self.base_dict(threat="quantum"))

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="unknown attack component"):
            ExperimentSpec.from_dict(self.base_dict(
                attacks=[{"component": "death_ray"}]))

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="power_dbm"):
            ExperimentSpec.from_dict(self.base_dict(
                attacks=[{"component": "jamming",
                          "params": {"jam_power": 10.0}}]))

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError, match="ScenarioConfig"):
            ExperimentSpec.from_dict(self.base_dict(config={"warp": 9}))

    def test_bad_config_expression_rejected(self):
        with pytest.raises(ValueError, match="unknown ScenarioConfig field"):
            ExperimentSpec.from_dict(self.base_dict(
                attacks=[{"component": "jamming",
                          "params": {"start_time": {"$config": "warp"}}}]))

    def test_attackless_spec_rejected(self):
        with pytest.raises(ValueError, match="at least one attack"):
            ExperimentSpec.from_dict(self.base_dict(attacks=[]))

    def test_unregistered_metric_needs_direction(self):
        with pytest.raises(ValueError, match="lower_is_better"):
            ExperimentSpec.from_dict(self.base_dict(
                metric={"name": "vibes"}))
        spec = ExperimentSpec.from_dict(self.base_dict(
            metric={"name": "vibes", "lower_is_better": True}))
        assert spec.metric.resolve_direction() is True

    def test_defense_components_validated(self):
        with pytest.raises(ValueError, match="unknown defense component"):
            ExperimentSpec.from_dict(self.base_dict(
                defenses=[{"component": "force_field"}]))

    def test_invalid_json_file_is_valueerror(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_experiment_spec(path)


class TestBuildSemantics:
    def test_config_identity_preserved_without_overrides(self, small):
        # No-override specs run on the base config object itself, exactly
        # like the historical constructors (hash preservation).
        experiment = experiment_spec("jamming").build(small)
        assert experiment.config is small

    def test_config_expressions_resolve_against_base(self, small):
        experiment = experiment_spec("dos").build(small)
        assert experiment.config.joiner_delay == small.warmup + 15.0
        attack = experiment.make_attacks()[0]
        assert attack.start_time == small.warmup

    def test_value_expression_arithmetic(self, small):
        assert resolve_value({"$config": "warmup"}, small) == small.warmup
        assert resolve_value({"$config": "warmup", "plus": 2.0},
                             small) == small.warmup + 2.0
        assert resolve_value({"$config": "duration", "times": 0.5},
                             small) == small.duration * 0.5

    def test_fresh_attack_instances_per_call(self, small):
        experiment = experiment_spec("sybil").build(small)
        assert experiment.make_attacks()[0] is not experiment.make_attacks()[0]

    def test_hooks_resolved_from_registry(self, small):
        experiment = experiment_spec("replay").build(small)
        assert len(experiment.hooks) == 1
        assert callable(experiment.hooks[0])

    def test_spec_defenses_built_with_params(self, small):
        spec = ExperimentSpec(
            threat="jamming", variant="custom",
            attacks=(ComponentSpec("jamming"),),
            defenses=(ComponentSpec("group_key_auth",
                                    {"encrypt": True}),),
            metric=MetricSpec("degraded_fraction"))
        defenses = spec.build_defenses(small)
        assert defenses[0].encrypt is True
