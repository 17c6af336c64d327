"""Declarative experiment specs: ``platoonsec-experiment/1``.

An :class:`ExperimentSpec` is the data form of one runnable threat
experiment: a Table II threat/variant label, scenario-config overrides,
attack/defence/hook component references with parameters, and a headline
metric with a comparison direction.  Components are resolved through the
:mod:`repro.core.registry`, so a spec can name any registered attack,
defence or hook with any constructor parameter -- new experiments are
JSON files, not code.

Parameter values (and config overrides) may be *config expressions*::

    {"$config": "warmup"}                -- the base config's warmup
    {"$config": "warmup", "plus": 15.0}  -- warmup + 15 s
    {"$config": "duration", "times": 0.5}

They are resolved against the **base** scenario config at build time,
which is how the canonical catalogue expresses "start the attack at the
end of the warmup" for any episode length.

Specs round-trip through plain JSON (:meth:`ExperimentSpec.to_dict` /
:meth:`ExperimentSpec.from_dict`, :func:`load_experiment_spec`) with a
fixed key order, so ``to_dict(from_dict(d)) == d`` byte-for-byte for
canonical-form files; unknown keys, components and parameters are
rejected with explicit errors at parse time, before anything runs.

This module also registers the traffic hooks and the curated headline
metrics, and imports the attack/defence suites so that loading it is
enough to fully populate the :data:`~repro.core.registry.REGISTRY`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.core import taxonomy
from repro.core.registry import REGISTRY, metric_direction, register_hook, register_metric
from repro.core.scenario import ScenarioConfig, gap_cycle_hook

# Populate the registry: the suites register themselves on import.
import repro.core.attacks     # noqa: F401  (registration side effect)
import repro.core.defenses    # noqa: F401  (registration side effect)

#: Spec-format tag; bump on incompatible schema changes.
EXPERIMENT_FORMAT = "platoonsec-experiment/1"

_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}

_EXPRESSION_KEYS = {"$config", "plus", "times"}


# --------------------------------------------------------------------------
# Runnable experiment (moved here from repro.core.campaign, which re-exports)
# --------------------------------------------------------------------------

@dataclass
class ThreatExperiment:
    """A runnable, comparable experiment for one Table II threat."""

    threat_key: str
    variant: str
    config: ScenarioConfig
    make_attacks: Callable[[], list]
    hooks: tuple = ()
    # Headline metric, read off episode records by
    # EpisodeRecord.extract_metric, and its direction.
    metric_name: str = "mean_abs_spacing_error"
    lower_is_better: bool = True


# --------------------------------------------------------------------------
# Config expressions
# --------------------------------------------------------------------------

def is_expression(value) -> bool:
    return isinstance(value, dict) and "$config" in value


def _check_expression(value: dict, where: str) -> None:
    unknown = set(value) - _EXPRESSION_KEYS
    if unknown:
        raise ValueError(f"{where}: config expression has unknown keys "
                         f"{sorted(unknown)}; allowed: "
                         f"{sorted(_EXPRESSION_KEYS)}")
    field_name = value["$config"]
    if field_name not in _SCENARIO_FIELDS:
        raise ValueError(f"{where}: config expression names unknown "
                         f"ScenarioConfig field {field_name!r}")


def resolve_value(value, base: ScenarioConfig):
    """Resolve config expressions in a parameter value against ``base``."""
    if is_expression(value):
        _check_expression(value, "value")
        out = getattr(base, value["$config"])
        if "times" in value:
            out = out * value["times"]
        if "plus" in value:
            out = out + value["plus"]
        return out
    if isinstance(value, list):
        return [resolve_value(item, base) for item in value]
    return value


def _validate_values(values: dict, where: str) -> None:
    for name, value in values.items():
        if is_expression(value):
            _check_expression(value, f"{where}.{name}")


# --------------------------------------------------------------------------
# Spec building blocks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentSpec:
    """A reference to one registered component, with parameters."""

    key: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"component": self.key}
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data, kind: str = "component") -> "ComponentSpec":
        if isinstance(data, str):
            return cls(key=data)
        if not isinstance(data, dict):
            raise ValueError(f"{kind} entry must be an object or a string "
                             f"key, got {type(data).__name__}")
        unknown = set(data) - {"component", "params"}
        if unknown:
            raise ValueError(f"{kind} entry has unknown keys "
                             f"{sorted(unknown)}")
        if "component" not in data:
            raise ValueError(f"{kind} entry needs a 'component' key")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"{kind} {data['component']!r}: 'params' must "
                             "be an object")
        return cls(key=str(data["component"]), params=dict(params))

    def resolve_params(self, base: ScenarioConfig) -> dict:
        return {name: resolve_value(value, base)
                for name, value in self.params.items()}


@dataclass(frozen=True)
class MetricSpec:
    """The headline metric and its comparison direction.

    ``lower_is_better=None`` defers to the metric's registered direction;
    an explicit value (required for unregistered metric names) wins.
    """

    name: str
    lower_is_better: Optional[bool] = None

    def resolve_direction(self) -> bool:
        if self.lower_is_better is not None:
            return self.lower_is_better
        return metric_direction(self.name)

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.lower_is_better is not None:
            out["lower_is_better"] = self.lower_is_better
        return out

    @classmethod
    def from_dict(cls, data) -> "MetricSpec":
        if isinstance(data, str):
            return cls(name=data)
        if not isinstance(data, dict):
            raise ValueError("metric must be an object or a string name, "
                             f"got {type(data).__name__}")
        unknown = set(data) - {"name", "lower_is_better"}
        if unknown:
            raise ValueError(f"metric has unknown keys {sorted(unknown)}")
        if "name" not in data:
            raise ValueError("metric needs a 'name'")
        lower = data.get("lower_is_better")
        if lower is not None and not isinstance(lower, bool):
            raise ValueError("metric 'lower_is_better' must be a boolean")
        return cls(name=str(data["name"]), lower_is_better=lower)


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative threat experiment (``platoonsec-experiment/1``).

    Construction validates everything that can be checked without
    running: the threat key against the taxonomy, config-override names
    against :class:`ScenarioConfig`, every component key and parameter
    name against the registry, and the metric direction.  ``build()``
    then turns the spec into a runnable
    :class:`ThreatExperiment` for a concrete base config.
    """

    threat: str
    variant: str
    attacks: tuple = ()
    metric: MetricSpec = MetricSpec("mean_abs_spacing_error")
    name: Optional[str] = None
    config: dict = field(default_factory=dict)
    defenses: tuple = ()
    hooks: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "attacks", tuple(self.attacks))
        object.__setattr__(self, "defenses", tuple(self.defenses))
        object.__setattr__(self, "hooks", tuple(self.hooks))
        if self.threat not in taxonomy.THREATS:
            raise ValueError(f"unknown threat {self.threat!r}; expected one "
                             f"of {sorted(taxonomy.THREATS)}")
        if not self.variant or not isinstance(self.variant, str):
            raise ValueError("experiment spec needs a non-empty 'variant'")
        unknown = set(self.config) - _SCENARIO_FIELDS
        if unknown:
            raise ValueError("config overrides name unknown ScenarioConfig "
                             f"fields {sorted(unknown)}")
        _validate_values(self.config, "config")
        if not self.attacks:
            raise ValueError("experiment spec needs at least one attack")
        for kind, components in (("attack", self.attacks),
                                 ("defense", self.defenses),
                                 ("hook", self.hooks)):
            for component in components:
                try:
                    REGISTRY.get(kind, component.key)
                except KeyError as exc:
                    raise ValueError(exc.args[0]) from None
                REGISTRY.validate_params(kind, component.key, component.params)
                _validate_values(component.params,
                                 f"{kind} {component.key!r}")
        try:
            self.metric.resolve_direction()
        except KeyError:
            raise ValueError(
                f"metric {self.metric.name!r} is not a registered headline "
                f"metric (known: {REGISTRY.keys('metric')}); set an "
                "explicit 'lower_is_better' to use it anyway") from None

    @property
    def display_name(self) -> str:
        return self.name or f"{self.threat}/{self.variant}"

    # ------------------------------------------------------------- building

    def build(self, base_config: Optional[ScenarioConfig] = None
              ) -> ThreatExperiment:
        """Resolve the spec into a runnable experiment.

        Config expressions resolve against ``base_config`` (so the
        attack start tracks the warmup of whatever episode length the
        caller picked), and the experiment's scenario config is ``base``
        itself when the spec declares no overrides -- the registry path
        is bit-identical to the historical hand-coded constructors.
        """
        base = base_config or ScenarioConfig(duration=90.0)
        overrides = {key: resolve_value(value, base)
                     for key, value in self.config.items()}
        cfg = base.with_overrides(**overrides) if overrides else base
        resolved = [(c.key, c.resolve_params(base)) for c in self.attacks]

        def make_attacks() -> list:
            return [REGISTRY.create("attack", key, dict(params))
                    for key, params in resolved]

        hooks = tuple(REGISTRY.create("hook", c.key, c.resolve_params(base))
                      for c in self.hooks)
        return ThreatExperiment(
            threat_key=self.threat, variant=self.variant, config=cfg,
            make_attacks=make_attacks, hooks=hooks,
            metric_name=self.metric.name,
            lower_is_better=self.metric.resolve_direction())

    def build_defenses(self, base_config: Optional[ScenarioConfig] = None
                       ) -> list:
        """Fresh defence instances for the spec's defence components."""
        base = base_config or ScenarioConfig(duration=90.0)
        return [REGISTRY.create("defense", c.key, c.resolve_params(base))
                for c in self.defenses]

    # -------------------------------------------------------- serialisation

    def to_dict(self) -> dict:
        """Canonical plain-JSON view with a fixed key order.

        Optional sections are emitted only when non-empty, so parsing a
        canonical-form file and re-serialising it is byte-identical.
        """
        out: dict = {"format": EXPERIMENT_FORMAT}
        if self.name is not None:
            out["name"] = self.name
        out["threat"] = self.threat
        out["variant"] = self.variant
        if self.config:
            out["config"] = dict(self.config)
        out["attacks"] = [c.to_dict() for c in self.attacks]
        if self.defenses:
            out["defenses"] = [c.to_dict() for c in self.defenses]
        if self.hooks:
            out["hooks"] = [c.to_dict() for c in self.hooks]
        out["metric"] = self.metric.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ValueError("experiment spec must be an object, got "
                             f"{type(data).__name__}")
        data = dict(data)
        fmt = data.pop("format", EXPERIMENT_FORMAT)
        if fmt != EXPERIMENT_FORMAT:
            raise ValueError(f"unsupported experiment spec format {fmt!r}; "
                             f"expected {EXPERIMENT_FORMAT!r}")
        known = {"name", "threat", "variant", "config", "attacks",
                 "defenses", "hooks", "metric"}
        unknown = set(data) - known
        if unknown:
            raise ValueError("experiment spec has unknown keys "
                             f"{sorted(unknown)}")
        for required in ("threat", "variant", "attacks", "metric"):
            if required not in data:
                raise ValueError(f"experiment spec needs {required!r}")
        config = data.get("config", {})
        if not isinstance(config, dict):
            raise ValueError("experiment 'config' must be an object")
        return cls(
            name=data.get("name"),
            threat=str(data["threat"]),
            variant=str(data["variant"]),
            config=dict(config),
            attacks=tuple(ComponentSpec.from_dict(c, "attack")
                          for c in data["attacks"]),
            defenses=tuple(ComponentSpec.from_dict(c, "defense")
                           for c in data.get("defenses", ())),
            hooks=tuple(ComponentSpec.from_dict(c, "hook")
                        for c in data.get("hooks", ())),
            metric=MetricSpec.from_dict(data["metric"]))


def load_experiment_spec(path: Union[str, Path]) -> ExperimentSpec:
    """Parse an experiment spec JSON file; malformed content raises
    ValueError."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"experiment spec {path} is not valid JSON: "
                         f"{exc}") from None
    return ExperimentSpec.from_dict(data)


# --------------------------------------------------------------------------
# Defence stacks (Table III mechanism -> defence components + requirements)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DefenseStack:
    """One Table III mechanism resolved to defence components plus the
    ScenarioConfig requirements the mechanism needs (VLC hardware,
    authority, RSUs along the route)."""

    mechanism: str
    defenses: tuple
    requirements: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "defenses", tuple(self.defenses))
        unknown = set(self.requirements) - _SCENARIO_FIELDS
        if unknown:
            raise ValueError(f"defence stack {self.mechanism!r} requirements "
                             "name unknown ScenarioConfig fields "
                             f"{sorted(unknown)}")
        for component in self.defenses:
            REGISTRY.get("defense", component.key)
            REGISTRY.validate_params("defense", component.key,
                                     component.params)

    def build(self) -> list:
        """Fresh defence instances (one stack per episode)."""
        return [REGISTRY.create("defense", c.key, dict(c.params))
                for c in self.defenses]


# --------------------------------------------------------------------------
# Hook and metric registration
# --------------------------------------------------------------------------

register_hook("gap_cycle", gap_cycle_hook)

#: The curated headline metrics: (name, lower_is_better, description).
HEADLINE_METRICS = (
    ("mean_abs_spacing_error", True, "mean |spacing error| over the run [m]"),
    ("roster_inflation", True, "ghost members admitted past the true roster"),
    ("gap_open_time_s", True, "seconds the commanded gap stayed open"),
    ("members_remaining", False, "platoon members left at episode end"),
    ("platoon_fragments", True, "disjoint platoon fragments at episode end"),
    ("degraded_fraction", True, "fraction of time with degraded comms"),
    ("route_coverage", True, "fraction of the route the adversary mapped"),
    ("joins_completed", False, "legitimate joins that completed"),
    ("victim_expelled", True, "victim expelled from the platoon (0/1)"),
    ("tpms_warnings", True, "spoofed TPMS warnings raised"),
    ("mean_beacon_error_m", True, "mean beacon position error [m]"),
    ("infected_at_end", True, "vehicles infected at episode end"),
    # Safety metrics surfaced for the falsification engine: counter-
    # examples are judged on hard safety violations, not degradation.
    ("min_true_gap", False, "worst bumper-to-bumper clearance seen [m]"),
    ("collision_count", True, "contact events (re-collisions counted)"),
    ("min_brake_margin", False,
     "worst emergency-brake envelope margin seen [m]"),
    # Detection quality (security-verdict ledger, repro.obs.security):
    # how well the installed defence stack *noticed* the attack, not
    # just how well the platoon survived it.
    ("security_verdicts", False, "defence accept/flag/drop decisions made"),
    ("security_flags", False, "verdicts that flagged or dropped"),
    ("flag_rate", False, "flagged fraction of all security verdicts"),
    ("detection_tpr", False,
     "flagged fraction of tainted-traffic verdicts (ground truth)"),
    ("detection_fpr", True, "flagged fraction of clean-traffic verdicts"),
    ("time_to_first_flag", True, "sim seconds until the first flag/drop"),
    ("missed_injections", True,
     "tainted identities observed but never flagged"),
)

for _name, _lower, _description in HEADLINE_METRICS:
    register_metric(_name, lower_is_better=_lower, description=_description)
