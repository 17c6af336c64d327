"""The canonical Table II/III catalogue as declarative experiment data.

These literal dicts are exactly the experiments the hand-written
``if threat_key == ...`` chains in :mod:`repro.core.campaign` used to
construct; the campaign layer now resolves them through the component
registry instead.  Golden regression tests pin the outcomes, so any edit
here that changes a parameter changes measured Table II/III numbers --
treat the values as part of the paper reproduction, not as tunables.

Layout::

    CATALOGUE[threat_key] = {
        "default": <variant name>,
        "variants": {<variant>: {config?, attacks, hooks?, metric}},
    }
    DEFENSE_STACKS[mechanism_key] = {"defenses": [...], "requirements": {}}

Attack ``start_time`` values are config expressions
(``{"$config": "warmup"}``) so the attack window tracks the warmup of
whatever base config a campaign runs with -- the same semantics as the
old ``start_time=base.warmup`` closures.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

from repro.core import taxonomy
from repro.core.experiment import (
    ComponentSpec,
    DefenseStack,
    ExperimentSpec,
    MetricSpec,
)
from repro.core.registry import REGISTRY

_WARMUP = {"$config": "warmup"}

CATALOGUE: dict = {
    "sybil": {
        "default": "ghost-joins",
        "variants": {
            "ghost-joins": {
                "config": {"joiner": True, "joiner_delay": 55.0,
                           "max_members": 10},
                "attacks": [{"component": "sybil",
                             "params": {"start_time": _WARMUP,
                                        "n_ghosts": 6}}],
                "metric": {"name": "roster_inflation",
                           "lower_is_better": True},
            },
            # Highway variant: one attacker shops the same ghost
            # identities to two co-existing platoons at once.
            "highway-ghost-shopping": {
                "config": {"highway": {
                    "lanes": 2,
                    "platoons": [
                        {"n_vehicles": 3, "lane": 0,
                         "start_position": 1120.0},
                        {"n_vehicles": 3, "lane": 0,
                         "start_position": 1000.0},
                    ],
                    "background_density": 1.0,
                    "merge_policy": "none"}},
                "attacks": [{"component": "multi_sybil",
                             "params": {"start_time": _WARMUP,
                                        "n_ghosts": 3}}],
                "metric": {"name": "packet_delivery_ratio",
                           "lower_is_better": False},
            },
        },
    },
    "fake_maneuver": {
        "default": "split",
        "variants": {
            "entrance": {
                "attacks": [{"component": "fake_maneuver",
                             "params": {"start_time": _WARMUP,
                                        "mode": "entrance",
                                        "interval": 8.0}}],
                "metric": {"name": "gap_open_time_s",
                           "lower_is_better": True},
            },
            "leave": {
                "attacks": [{"component": "fake_maneuver",
                             "params": {"start_time": _WARMUP,
                                        "mode": "leave",
                                        "interval": 8.0}}],
                # more members remaining is better
                "metric": {"name": "members_remaining",
                           "lower_is_better": False},
            },
            "split": {
                "attacks": [{"component": "fake_maneuver",
                             "params": {"start_time": _WARMUP,
                                        "mode": "split",
                                        "interval": 15.0}}],
                "metric": {"name": "platoon_fragments",
                           "lower_is_better": True},
            },
        },
    },
    "replay": {
        "default": "gap-command-replay",
        "variants": {
            "gap-command-replay": {
                "attacks": [{"component": "replay",
                             "params": {"start_time": _WARMUP,
                                        "target": "all"}}],
                "hooks": [{"component": "gap_cycle"}],
                "metric": {"name": "gap_open_time_s",
                           "lower_is_better": True},
            },
        },
    },
    "jamming": {
        "default": "barrage-30dBm",
        "variants": {
            "barrage-30dBm": {
                "attacks": [{"component": "jamming",
                             "params": {"start_time": _WARMUP,
                                        "power_dbm": 30.0}}],
                "metric": {"name": "degraded_fraction",
                           "lower_is_better": True},
            },
            # Highway variant: a jammer parked on the seam between two
            # merging platoons starves the leader-to-leader negotiation.
            # The rear platoon closes at 4 m/s and reaches merge range
            # ~26 s in, well inside the jamming window, so the baseline
            # merges and the jammed episode does not.
            "highway-merge-point": {
                "config": {"highway": {
                    "lanes": 2,
                    "platoons": [
                        {"n_vehicles": 3, "lane": 0,
                         "start_position": 1250.0},
                        {"n_vehicles": 3, "lane": 0,
                         "start_position": 1000.0, "speed": 31.0},
                    ],
                    "background_density": 1.0,
                    "merge_policy": "auto",
                    "merge_range": 100.0}},
                "attacks": [{"component": "merge_jamming",
                             "params": {"start_time": _WARMUP,
                                        "power_dbm": 30.0}}],
                "metric": {"name": "packet_delivery_ratio",
                           "lower_is_better": False},
            },
        },
    },
    "eavesdropping": {
        "default": "roadside-capture",
        "variants": {
            "roadside-capture": {
                "attacks": [{"component": "eavesdropping",
                             "params": {"start_time": _WARMUP}}],
                "metric": {"name": "route_coverage",
                           "lower_is_better": True},
            },
        },
    },
    "dos": {
        "default": "join-flood",
        "variants": {
            "join-flood": {
                "config": {"joiner": True,
                           "joiner_delay": {"$config": "warmup",
                                            "plus": 15.0},
                           "max_pending": 4},
                "attacks": [{"component": "dos",
                             "params": {"start_time": _WARMUP,
                                        "rate_hz": 5.0}}],
                "metric": {"name": "joins_completed",
                           "lower_is_better": False},
            },
        },
    },
    "impersonation": {
        "default": "stolen-id",
        "variants": {
            "stolen-id": {
                "attacks": [{"component": "impersonation",
                             "params": {"start_time": _WARMUP,
                                        "steal_key": False}}],
                "metric": {"name": "victim_expelled",
                           "lower_is_better": True},
            },
            "stolen-key": {
                "attacks": [{"component": "impersonation",
                             "params": {"start_time": _WARMUP,
                                        "steal_key": True}}],
                "metric": {"name": "victim_expelled",
                           "lower_is_better": True},
            },
        },
    },
    "sensor_spoofing": {
        "default": "blind+tpms",
        "variants": {
            "blind+tpms": {
                "attacks": [{"component": "sensor_spoofing",
                             "params": {"start_time": _WARMUP,
                                        "spoof_tpms": True}}],
                "metric": {"name": "tpms_warnings",
                           "lower_is_better": True},
            },
            "gps": {
                "attacks": [{"component": "gps_spoofing",
                             "params": {"start_time": _WARMUP,
                                        "drift_rate": 2.0}}],
                "metric": {"name": "mean_beacon_error_m",
                           "lower_is_better": True},
            },
        },
    },
    "malware": {
        "default": "wireless",
        "variants": {
            "wireless": {
                "attacks": [{"component": "malware",
                             "params": {"start_time": _WARMUP,
                                        "vectors": ["wireless"]}}],
                "metric": {"name": "infected_at_end",
                           "lower_is_better": True},
            },
            "obd": {
                "attacks": [{"component": "malware",
                             "params": {"start_time": _WARMUP,
                                        "vectors": ["obd"]}}],
                "metric": {"name": "infected_at_end",
                           "lower_is_better": True},
            },
            "media": {
                "attacks": [{"component": "malware",
                             "params": {"start_time": _WARMUP,
                                        "vectors": ["media"]}}],
                "metric": {"name": "infected_at_end",
                           "lower_is_better": True},
            },
        },
    },
    "falsification": {
        "default": "oscillate",
        "variants": {
            "oscillate": {
                "attacks": [{"component": "falsification",
                             "params": {"start_time": _WARMUP,
                                        "profile": "oscillate",
                                        "amplitude": 2.5}}],
                "metric": {"name": "mean_abs_spacing_error",
                           "lower_is_better": True},
            },
            "offset": {
                "attacks": [{"component": "falsification",
                             "params": {"start_time": _WARMUP,
                                        "profile": "offset",
                                        "amplitude": 2.5}}],
                "metric": {"name": "mean_abs_spacing_error",
                           "lower_is_better": True},
            },
            "brake": {
                "attacks": [{"component": "falsification",
                             "params": {"start_time": _WARMUP,
                                        "profile": "brake",
                                        "amplitude": 2.5}}],
                "metric": {"name": "mean_abs_spacing_error",
                           "lower_is_better": True},
            },
        },
    },
}


DEFENSE_STACKS: dict = {
    "secret_public_keys": {
        "defenses": [{"component": "group_key_auth",
                      "params": {"encrypt": True}},
                     {"component": "freshness"}],
        "requirements": {},
    },
    "roadside_units": {
        "defenses": [{"component": "rsu_key_distribution"},
                     {"component": "group_key_auth",
                      "params": {"encrypt": True}}],
        "requirements": {"with_authority": True,
                         "rsu_positions": [1200.0, 2400.0, 3600.0,
                                           4800.0, 6000.0],
                         "rsu_coverage": 800.0},
    },
    "control_algorithms": {
        "defenses": [{"component": "vpd_ada", "params": {"expel": True}},
                     {"component": "resilient_control"}],
        "requirements": {},
    },
    "hybrid_communications": {
        "defenses": [{"component": "hybrid_vlc"}],
        "requirements": {"with_vlc": True},
    },
    "onboard_security": {
        "defenses": [{"component": "onboard_hardening"}],
        "requirements": {},
    },
    "trust_management": {
        "defenses": [{"component": "trust_management"},
                     {"component": "vpd_ada"}],
        "requirements": {},
    },
}


# --------------------------------------------------------------------------
# Accessors
# --------------------------------------------------------------------------

def variant_names(threat_key: str) -> list:
    """The catalogued variants for one threat (default first)."""
    entry = _catalogue_entry(threat_key)
    default = entry["default"]
    return [default] + sorted(v for v in entry["variants"] if v != default)


def _catalogue_entry(threat_key: str) -> dict:
    try:
        return CATALOGUE[threat_key]
    except KeyError:
        raise KeyError(f"unknown threat {threat_key!r}; expected one of "
                       f"{sorted(taxonomy.THREATS)}") from None


@lru_cache(maxsize=None)
def experiment_spec(threat_key: str,
                    variant: Optional[str] = None) -> ExperimentSpec:
    """The canonical :class:`ExperimentSpec` for a threat (and variant).

    ``variant=None`` selects the threat's default variant.  Unknown
    threats raise ``KeyError``; unknown variants raise ``ValueError``
    naming the valid ones -- no silent fallbacks.
    """
    entry = _catalogue_entry(threat_key)
    variant = variant or entry["default"]
    if variant not in entry["variants"]:
        raise ValueError(f"unknown {threat_key} variant {variant!r}; valid "
                         f"variants: {variant_names(threat_key)}")
    data = entry["variants"][variant]
    return ExperimentSpec(
        threat=threat_key,
        variant=variant,
        config=dict(data.get("config", {})),
        attacks=tuple(ComponentSpec.from_dict(c, "attack")
                      for c in data["attacks"]),
        hooks=tuple(ComponentSpec.from_dict(c, "hook")
                    for c in data.get("hooks", ())),
        metric=MetricSpec.from_dict(data["metric"]))


@lru_cache(maxsize=None)
def defense_stack(mechanism_key: str) -> DefenseStack:
    """The canonical :class:`DefenseStack` for a Table III mechanism.

    Unknown mechanisms raise ``KeyError``.
    """
    try:
        data = DEFENSE_STACKS[mechanism_key]
    except KeyError:
        raise KeyError(f"unknown mechanism {mechanism_key!r}; expected one "
                       f"of {sorted(taxonomy.MECHANISMS)}") from None
    requirements = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in data["requirements"].items()}
    return DefenseStack(
        mechanism=mechanism_key,
        defenses=tuple(ComponentSpec.from_dict(c, "defense")
                       for c in data["defenses"]),
        requirements=requirements)


def iter_experiment_specs() -> Iterator[tuple]:
    """Yield ``(threat, variant, is_default, spec)`` over the catalogue."""
    for threat_key in CATALOGUE:
        default = CATALOGUE[threat_key]["default"]
        for variant in variant_names(threat_key):
            yield (threat_key, variant, variant == default,
                   experiment_spec(threat_key, variant))


def iter_defense_stacks() -> Iterator[tuple]:
    """Yield ``(mechanism, stack)`` over the defence-stack table."""
    for mechanism_key in DEFENSE_STACKS:
        yield mechanism_key, defense_stack(mechanism_key)


def check_catalogue_complete() -> list:
    """Every break in the chain taxonomy row -> registered component ->
    catalogued experiment; empty when healthy.

    Reads :data:`~repro.core.registry.REGISTRY`, the index every spec
    resolves through, and reports rows naming unregistered
    implementations, registered attacks or defences that no row or
    extension names, mechanism targets outside Table II, catalogue
    entries the taxonomy lacks, and variants or defence stacks that do
    not resolve.
    """
    problems: list = []
    attacks = set(REGISTRY.keys("attack"))
    defenses = set(REGISTRY.keys("defense"))
    named_attacks: set = set()
    named_defenses = set(taxonomy.EXTENSION_DEFENSES)
    for threat in taxonomy.THREATS.values():
        if not threat.attack_impls:
            problems.append(f"threat {threat.key!r} names no implementation")
        for impl in threat.attack_impls:
            named_attacks.add(impl)
            if impl not in attacks:
                problems.append(f"threat {threat.key!r} names unregistered "
                                f"attack {impl!r}")
    for mechanism in taxonomy.MECHANISMS.values():
        if not mechanism.defense_impls:
            problems.append(f"mechanism {mechanism.key!r} names no "
                            "implementation")
        for impl in mechanism.defense_impls:
            named_defenses.add(impl)
            if impl not in defenses:
                problems.append(f"mechanism {mechanism.key!r} names "
                                f"unregistered defence {impl!r}")
        for target in mechanism.attack_targets:
            if target not in taxonomy.THREATS:
                problems.append(f"mechanism {mechanism.key!r} targets "
                                f"unknown threat {target!r}")
    for extension in taxonomy.EXTENSION_DEFENSES:
        if extension not in defenses:
            problems.append(f"extension defence {extension!r} is not "
                            "registered")
    for orphan in sorted(attacks - named_attacks):
        problems.append(f"attack {orphan!r} is registered but no taxonomy "
                        "row names it")
    for orphan in sorted(defenses - named_defenses):
        problems.append(f"defence {orphan!r} is registered but no taxonomy "
                        "row or extension names it")
    for threat_key in taxonomy.THREATS:
        if threat_key not in CATALOGUE:
            problems.append(f"threat {threat_key!r} has no catalogued "
                            "experiment")
            continue
        for variant in variant_names(threat_key):
            try:
                experiment_spec(threat_key, variant)
            except (KeyError, ValueError) as exc:
                problems.append(f"experiment {threat_key}/{variant} does "
                                f"not resolve: {exc}")
    for extra in sorted(set(CATALOGUE) - set(taxonomy.THREATS)):
        problems.append(f"catalogue names unknown threat {extra!r}")
    for mechanism_key in taxonomy.MECHANISMS:
        if mechanism_key not in DEFENSE_STACKS:
            problems.append(f"mechanism {mechanism_key!r} has no defence "
                            "stack")
            continue
        try:
            defense_stack(mechanism_key)
        except (KeyError, ValueError) as exc:
            problems.append(f"defence stack {mechanism_key} does not "
                            f"resolve: {exc}")
    for extra in sorted(set(DEFENSE_STACKS) - set(taxonomy.MECHANISMS)):
        problems.append("defence-stack table names unknown mechanism "
                        f"{extra!r}")
    return problems
