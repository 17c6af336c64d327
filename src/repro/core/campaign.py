"""Evaluation campaigns: canonical experiments behind Tables II and III.

For every Table II threat there is a *canonical experiment*: a scenario
configuration, the attack instance(s), optional traffic hooks, and a
headline metric with a direction.  :func:`run_threat_catalogue` executes
baseline + attacked episodes per threat (or per highway cell) and
verdicts whether the paper's claimed effect materialised.
:func:`run_defense_matrix` crosses Table III mechanisms with the threats
they claim to mitigate and reports the mitigation factor.
:func:`run_experiment_spec` runs one declarative experiment spec, the
one-off Table II row (or Table III cell, when it declares defences).

These functions are what the CLI, the T2/T3 benches and the
attack-campaign example call; tests pin their semantics.

Campaign execution and seed derivation
--------------------------------------
Every function here executes through the
:class:`~repro.core.runner.CampaignRunner` engine: episodes are
content-hashed and memoised (each distinct baseline/attacked
configuration runs exactly once per campaign), optionally persisted to
a sqlite result store, and fanned out over a process pool when
``workers > 1``.  Serial (``workers=1``) and parallel runs produce
bit-identical outcomes.

Seeds follow an explicit derivation scheme: the campaign's *root seed*
is ``base_config.seed``, and every experiment unit runs with
``derive_seed(root_seed, threat_key, variant)`` (SHA-256 based, stable
across processes and Python versions -- see
:func:`repro.core.runner.derive_seed`).  Baseline, attacked and defended
episodes of the same (threat, variant) share one derived seed, so their
metrics stay directly comparable, while distinct threats draw from
decorrelated random streams.  Any unit can therefore be rerun
bit-identically in isolation from ``(root_seed, threat_key, variant)``
alone.  :func:`run_experiment_spec` is the exception: it runs whatever
seed its config carries, so a spec file replays the exact episodes it
names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.runner import (
    CampaignRunner,
    EpisodeRecord,
    EpisodeSpec,
    derive_replicate_seed,
)
from repro.obs import registry as obs

from repro.core.scenario import ScenarioConfig
from repro.core import taxonomy
from repro.core.experiment import ExperimentSpec, ThreatExperiment
from repro.experiments import defense_stack, experiment_spec

__all__ = [
    "ThreatOutcome", "MatrixCell", "PlannedExperiment", "ExperimentSpecRun",
    "run_experiment_spec", "plan_threat_experiment",
    "run_threat_catalogue", "run_defense_matrix", "highway_variants",
]


# --------------------------------------------------------------------------
# Outcomes
# --------------------------------------------------------------------------

#: Tolerance below which a metric delta/baseline counts as zero for the
#: ratio guards (floating-point noise, not a real effect).
_EPS = 1e-9


def _mitigation(baseline: float, attacked: float,
                defended: float) -> Optional[float]:
    """Fraction of the attack-induced delta removed by the defence.

    1.0 = fully restored to baseline; 0.0 = no help; negative = the
    defence made it worse.  ``None`` when the attack had no effect.
    """
    delta = attacked - baseline
    if abs(delta) < _EPS:
        return None
    return (attacked - defended) / delta


@dataclass
class ThreatOutcome:
    threat_key: str
    variant: str
    metric_name: str
    baseline_value: float
    attacked_value: float
    effect_present: bool
    attack_observables: dict = field(default_factory=dict)
    # Replicate statistics: with ``seed_replicates > 1`` the value fields
    # above hold the replicate means and these carry the spread.
    baseline_std: float = 0.0
    attacked_std: float = 0.0
    replicates: int = 1

    @property
    def impact_ratio(self) -> Optional[float]:
        if abs(self.baseline_value) < _EPS:
            return None
        return self.attacked_value / self.baseline_value


@dataclass
class ExperimentSpecRun:
    """The result of running one declarative experiment spec."""

    spec: ExperimentSpec
    outcome: ThreatOutcome
    #: Headline metric with the spec's defence stack active; ``None``
    #: when the spec declares no defences.
    defended_value: Optional[float] = None

    @property
    def mitigation(self) -> Optional[float]:
        if self.defended_value is None:
            return None
        return _mitigation(self.outcome.baseline_value,
                           self.outcome.attacked_value, self.defended_value)


@dataclass
class MatrixCell:
    mechanism_key: str
    threat_key: str
    metric_name: str
    baseline_value: float
    attacked_value: float
    defended_value: float
    # Replicate statistics (see ThreatOutcome): means above, spread here.
    baseline_std: float = 0.0
    attacked_std: float = 0.0
    defended_std: float = 0.0
    replicates: int = 1
    # Detection ledger summary of the *defended* episode (replicate 0):
    # per-mechanism verdict counts, TPR/FPR, time-to-first-flag.
    detection: dict = field(default_factory=dict)

    @property
    def mitigation(self) -> Optional[float]:
        """Fraction of the attack-induced delta removed by the defence
        (see :func:`_mitigation`)."""
        return _mitigation(self.baseline_value, self.attacked_value,
                           self.defended_value)


def _aggregate(records: Sequence[EpisodeRecord],
               metric: str) -> tuple[float, float]:
    """``(mean, std)`` of a headline metric over replicate records.

    A single replicate passes its value through untouched (no
    ``summary_stats`` arithmetic, so ``-0.0`` stays ``-0.0``).
    """
    values = [record.extract_metric(metric) for record in records]
    if len(values) == 1:
        return values[0], 0.0
    from repro.sweep.aggregate import summary_stats

    stats = summary_stats(values)
    return stats["mean"], stats["std"]


def _outcome(experiment: ThreatExperiment,
             baselines: Sequence[EpisodeRecord],
             attacked: Sequence[EpisodeRecord]) -> ThreatOutcome:
    """Verdict one experiment from its replicate records (means when
    replicated, the verdict taken on the means)."""
    from repro.sweep.aggregate import effect_present

    metric = experiment.metric_name
    baseline_value, baseline_std = _aggregate(baselines, metric)
    attacked_value, attacked_std = _aggregate(attacked, metric)
    return ThreatOutcome(threat_key=experiment.threat_key,
                         variant=experiment.variant,
                         metric_name=metric,
                         baseline_value=baseline_value,
                         attacked_value=attacked_value,
                         effect_present=effect_present(
                             experiment.lower_is_better, baseline_value,
                             attacked_value),
                         attack_observables=attacked[0].prefixed_observables(),
                         baseline_std=baseline_std,
                         attacked_std=attacked_std,
                         replicates=len(baselines))


# --------------------------------------------------------------------------
# Planning
# --------------------------------------------------------------------------

@dataclass
class PlannedExperiment:
    """A threat experiment resolved into runnable, memoisable episode specs."""

    experiment: ThreatExperiment
    baseline: EpisodeSpec
    attacked: EpisodeSpec
    defended: Optional[EpisodeSpec] = None
    mechanism_key: Optional[str] = None

    def specs(self) -> list[EpisodeSpec]:
        return [spec for spec in (self.baseline, self.attacked,
                                  self.defended) if spec is not None]


def plan_threat_experiment(threat_key: str,
                           base_config: Optional[ScenarioConfig] = None,
                           variant: Optional[str] = None,
                           mechanism_key: Optional[str] = None,
                           replicate: int = 0,
                           overrides: Sequence[tuple] = ()
                           ) -> PlannedExperiment:
    """Resolve one (threat, variant[, mechanism]) into episode specs.

    The spec config is fully resolved: the experiment's scenario
    overrides, the mechanism's config requirements, and the derived
    per-experiment seed (``derive_seed(root, threat_key, variant)`` with
    the root taken from ``base_config.seed``).  Baseline/attacked/
    defended specs share the config, so their metrics are comparable and
    the runner can share baselines across mechanisms with identical
    requirements.  ``replicate`` selects a decorrelated seed stream for
    replicated campaigns; replicate 0 is the canonical derivation.
    ``overrides`` are dotted ``attack.*``/``defense.*`` parameter
    overrides (see :class:`~repro.core.runner.EpisodeSpec`): the
    attacked episode takes the ``attack.*`` ones, the defended episode
    all of them.
    """
    base = base_config or ScenarioConfig(duration=90.0)
    experiment = experiment_spec(threat_key, variant).build(base)
    requirements: dict = {}
    if mechanism_key is not None:
        requirements = dict(defense_stack(mechanism_key).requirements)
    seed = derive_replicate_seed(base.seed, threat_key, experiment.variant,
                                 replicate)
    config = experiment.config.with_overrides(seed=seed, **requirements)
    baseline = EpisodeSpec(threat_key, experiment.variant, "baseline", config)
    attacked = EpisodeSpec(
        threat_key, experiment.variant, "attacked", config,
        overrides=tuple(o for o in overrides if o[0].startswith("attack.")))
    defended = None
    if mechanism_key is not None:
        defended = EpisodeSpec(threat_key, experiment.variant, "defended",
                               config, mechanism_key,
                               overrides=tuple(overrides))
    return PlannedExperiment(experiment=experiment, baseline=baseline,
                             attacked=attacked, defended=defended,
                             mechanism_key=mechanism_key)


def _run_replicated(cells: Sequence[tuple],
                    base_config: Optional[ScenarioConfig],
                    seed_replicates: int,
                    engine: CampaignRunner
                    ) -> tuple[list[list[PlannedExperiment]], dict]:
    """Plan every ``(threat, variant, mechanism)`` cell at each replicate
    and run all of their episodes in one engine batch."""
    if seed_replicates < 1:
        raise ValueError("seed_replicates must be >= 1")
    with obs.timed("campaign.plan"):
        plans = [[plan_threat_experiment(threat, base_config, variant=variant,
                                         mechanism_key=mechanism, replicate=r)
                  for r in range(seed_replicates)]
                 for threat, variant, mechanism in cells]
        specs = [spec for reps in plans for plan in reps
                 for spec in plan.specs()]
    return plans, engine.run(specs)


# --------------------------------------------------------------------------
# Campaigns
# --------------------------------------------------------------------------

def run_experiment_spec(spec: ExperimentSpec,
                        base_config: Optional[ScenarioConfig] = None,
                        *,
                        runner: Optional[CampaignRunner] = None
                        ) -> ExperimentSpecRun:
    """Run a declarative experiment spec end to end.

    Executes baseline and attacked episodes (and, when the spec declares
    defence components, a defended episode) through the campaign engine
    -- a preconfigured ``runner`` brings its workers, store and traces --
    and verdicts the headline metric like the catalogue does.  The units
    carry the spec as their payload over the *base* config: workers
    resolve the spec's overrides and ``$config`` expressions against it,
    and the seed is the one the base config names (no derivation).
    """
    base = base_config or ScenarioConfig(duration=90.0)
    experiment = spec.build(base)
    payload = spec.to_dict()
    roles = ["baseline", "attacked"] + (["defended"] if spec.defenses else [])
    units = [EpisodeSpec(spec.threat, spec.variant, role, base,
                         experiment=payload) for role in roles]
    engine = runner if runner is not None else CampaignRunner()
    results = engine.run(units)
    records = [results[unit.key] for unit in units]
    defended_value = (records[2].extract_metric(experiment.metric_name)
                      if spec.defenses else None)
    return ExperimentSpecRun(
        spec=spec, outcome=_outcome(experiment, records[:1], records[1:2]),
        defended_value=defended_value)


def run_threat_catalogue(base_config: Optional[ScenarioConfig] = None,
                         threats: Optional[Sequence] = None,
                         *,
                         seed_replicates: int = 1,
                         runner: Optional[CampaignRunner] = None
                         ) -> list[ThreatOutcome]:
    """Table II campaign: every catalogued threat, baseline vs attacked.

    ``threats`` selects threat keys (each at its default variant) or
    explicit ``(threat, variant)`` cells such as
    :func:`highway_variants`; the default is every Table II threat.

    Executes through the campaign engine: pass a ``runner`` configured
    with workers, a result store and/or a trace directory to
    parallelise, to persist/reuse episode results, and to stream
    per-unit JSONL traces (the default is a serial, store-less
    :class:`CampaignRunner`).  Results are independent of the worker
    count.

    ``seed_replicates=N`` runs every threat at N derived seeds (sweep
    aggregation semantics: replicate 0 is the canonical stream) and
    reports the replicate mean in ``baseline_value``/``attacked_value``
    with the spread in ``baseline_std``/``attacked_std``; the verdict is
    taken on the means.
    """
    selected = threats if threats is not None else taxonomy.THREATS
    cells = [(key, None, None) if isinstance(key, str) else (*key, None)
             for key in selected]
    engine = runner if runner is not None else CampaignRunner()
    plans, records = _run_replicated(cells, base_config, seed_replicates,
                                     engine)
    return [_outcome(reps[0].experiment,
                     [records[plan.baseline.key] for plan in reps],
                     [records[plan.attacked.key] for plan in reps])
            for reps in plans]


def highway_variants() -> list[tuple[str, str]]:
    """Catalogued ``(threat, variant)`` cells that run on the highway world.

    Discovery is structural -- any catalogued variant whose config
    overrides carry a ``highway`` section qualifies -- so new highway
    cells join the highway campaign without touching this module.
    """
    from repro.experiments import iter_experiment_specs

    return [(threat, variant)
            for threat, variant, _is_default, spec in iter_experiment_specs()
            if "highway" in spec.config]


def _matrix_variant(mechanism_key: str, threat_key: str) -> Optional[str]:
    """Matrix cells use the graded variants so mitigation is a ratio, not
    a boolean: entrance gaps for fake manoeuvres, GPS capture for the
    onboard-security sensor cell."""
    if threat_key == "fake_maneuver":
        return "entrance"
    if threat_key == "sensor_spoofing" and mechanism_key == "onboard_security":
        return "gps"
    return None


def run_defense_matrix(base_config: Optional[ScenarioConfig] = None,
                       mechanisms: Optional[Sequence[str]] = None,
                       *,
                       seed_replicates: int = 1,
                       runner: Optional[CampaignRunner] = None
                       ) -> list[MatrixCell]:
    """Table III campaign: each mechanism against each threat it targets.

    Executes through the campaign engine: every distinct baseline and
    attacked episode runs exactly once per campaign (mechanisms whose
    config requirements agree share them), and a ``runner`` with
    ``workers > 1`` fans the remaining units over a process pool without
    changing any value.

    ``seed_replicates=N`` replicates every cell over N derived seeds and
    reports replicate means with the spread in the ``*_std`` fields (see
    :func:`run_threat_catalogue`).
    """
    keys = list(mechanisms) if mechanisms is not None else list(taxonomy.MECHANISMS)
    engine = runner if runner is not None else CampaignRunner()
    cells = [(threat_key, _matrix_variant(mechanism_key, threat_key),
              mechanism_key)
             for mechanism_key in keys
             for threat_key in taxonomy.MECHANISMS[mechanism_key].attack_targets]
    plans, records = _run_replicated(cells, base_config, seed_replicates,
                                     engine)
    matrix: list[MatrixCell] = []
    for reps in plans:
        plan = reps[0]
        metric = plan.experiment.metric_name
        baseline, baseline_std = _aggregate(
            [records[p.baseline.key] for p in reps], metric)
        attacked, attacked_std = _aggregate(
            [records[p.attacked.key] for p in reps], metric)
        defended, defended_std = _aggregate(
            [records[p.defended.key] for p in reps], metric)
        matrix.append(MatrixCell(
            mechanism_key=plan.mechanism_key,
            threat_key=plan.experiment.threat_key,
            metric_name=metric,
            baseline_value=baseline, attacked_value=attacked,
            defended_value=defended,
            baseline_std=baseline_std, attacked_std=attacked_std,
            defended_std=defended_std, replicates=len(reps),
            detection=records[plan.defended.key].detection))
    return matrix
