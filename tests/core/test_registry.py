"""Tests for the typed component registry."""

import pytest

from repro.core.attacks import ALL_ATTACKS
from repro.core.defenses import ALL_DEFENSES
from repro.core.registry import (
    REGISTRY,
    ComponentRegistry,
    introspect_params,
    metric_direction,
)

# Importing the experiment module registers hooks and metrics.
import repro.core.experiment  # noqa: F401


class TestIntrospection:
    def test_constructor_schema(self):
        info = REGISTRY.get("attack", "jamming")
        assert info.params["power_dbm"].default == 30.0
        assert info.params["duty_cycle"].default == 1.0
        assert not info.params["power_dbm"].required

    def test_required_parameters_detected(self):
        def factory(needed, optional=1):
            return (needed, optional)

        params = introspect_params(factory)
        assert params["needed"].required
        assert not params["optional"].required

    def test_var_args_skipped(self):
        def factory(a, *args, **kwargs):
            return a

        assert set(introspect_params(factory)) == {"a"}


class TestRegistration:
    def test_every_attack_class_registered(self):
        assert set(REGISTRY.keys("attack")) == {c.name for c in ALL_ATTACKS}

    def test_every_defense_class_registered(self):
        assert set(REGISTRY.keys("defense")) == {c.name for c in ALL_DEFENSES}

    def test_duplicate_registration_rejected(self):
        registry = ComponentRegistry()
        registry.register("hook", "h", lambda: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("hook", "h", lambda: None)
        registry.register("hook", "h", lambda: 1, replace=True)
        assert registry.get("hook", "h").factory() == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown component kind"):
            REGISTRY.get("weapon", "jamming")

    def test_unknown_key_is_keyerror_naming_valid_keys(self):
        with pytest.raises(KeyError, match="jamming"):
            REGISTRY.get("attack", "quantum")


class TestCreate:
    def test_create_applies_params(self):
        attack = REGISTRY.create("attack", "jamming",
                                 {"power_dbm": 10.0, "duty_cycle": 0.5})
        assert attack.power_dbm == 10.0
        assert attack.duty_cycle == 0.5

    def test_unknown_param_rejected_naming_valid(self):
        with pytest.raises(ValueError, match="power_dbm"):
            REGISTRY.create("attack", "jamming", {"jam_power": 10.0})

    def test_missing_required_param_rejected(self):
        registry = ComponentRegistry()
        registry.register("hook", "needs", lambda needed: needed)
        with pytest.raises(ValueError, match="needed"):
            registry.create("hook", "needs")

    def test_converter_applied(self):
        from repro.onboard.malware import InfectionVector

        attack = REGISTRY.create("attack", "malware",
                                 {"vectors": ["obd", "media"]})
        assert attack.vectors == (InfectionVector.OBD, InfectionVector.MEDIA)

    def test_metric_components_not_constructible(self):
        with pytest.raises(ValueError, match="declarative only"):
            REGISTRY.create("metric", "degraded_fraction")


class TestSettableAttrs:
    def test_instance_attrs_exposed(self):
        attrs = REGISTRY.settable_attrs("attack", "jamming")
        assert "power_dbm" in attrs
        assert "duty_cycle" in attrs

    def test_renamed_ctor_param_uses_stored_name(self):
        # JammingAttack stores its ``position`` argument as
        # ``position_override`` -- sweeps set the instance attribute.
        attrs = REGISTRY.settable_attrs("attack", "jamming")
        assert "position_override" in attrs
        assert "position" not in attrs

    def test_private_attrs_hidden(self):
        attrs = REGISTRY.settable_attrs("attack", "jamming")
        assert not any(name.startswith("_") for name in attrs)

    def test_defense_attrs(self):
        assert "expel" in REGISTRY.settable_attrs("defense", "vpd_ada")


class TestMetrics:
    def test_directions(self):
        assert metric_direction("degraded_fraction") is True
        assert metric_direction("joins_completed") is False
        assert metric_direction("members_remaining") is False

    def test_unknown_metric_is_keyerror(self):
        with pytest.raises(KeyError):
            metric_direction("vibes")
