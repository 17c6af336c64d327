"""Evaluation campaigns: canonical experiments behind Tables II and III.

For every Table II threat there is a *canonical experiment*: a scenario
configuration, the attack instance(s), optional traffic hooks, and a
headline metric with a direction.  :func:`run_threat_catalogue` executes
baseline + attacked episodes per threat and verdicts whether the paper's
claimed effect materialised.  :func:`run_defense_matrix` crosses Table III
mechanisms with the threats they claim to mitigate and reports the
mitigation factor.

These functions are what the T2/T3 benches (and the attack-campaign
example) call; tests pin their semantics.

Campaign execution and seed derivation
--------------------------------------
:func:`run_threat_catalogue` and :func:`run_defense_matrix` execute
through the :class:`~repro.core.runner.CampaignRunner` engine: episodes
are content-hashed and memoised (each distinct baseline/attacked
configuration runs exactly once per campaign), optionally persisted to a
JSON cache directory, and fanned out over a process pool when
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
alone.  The direct helpers :func:`run_threat_experiment` and
:func:`run_matrix_cell` run whatever seed their config carries, without
derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.runner import (
    CampaignRunner,
    EpisodeRecord,
    EpisodeSpec,
    derive_replicate_seed,
    derive_seed,
)
from repro.obs import registry as obs

from repro.core.scenario import (
    ScenarioConfig,
    ScenarioResult,
    run_episode,
)
from repro.core import taxonomy
from repro.core.experiment import ExperimentSpec, ThreatExperiment
from repro.experiments import defense_stack, experiment_spec

__all__ = [
    "ThreatExperiment", "ThreatOutcome", "MatrixCell", "PlannedExperiment",
    "ExperimentSpecRun", "threat_experiment", "make_defenses",
    "run_threat_experiment", "run_experiment_spec", "plan_threat_experiment",
    "run_threat_catalogue", "run_defense_matrix", "run_matrix_cell",
    "highway_variants", "run_highway_catalogue",
]


def threat_experiment(threat_key: str,
                      base_config: Optional[ScenarioConfig] = None,
                      variant: Optional[str] = None) -> ThreatExperiment:
    """Build the canonical experiment for a Table II threat key.

    Resolution goes through the declarative catalogue
    (:mod:`repro.experiments`) and the component registry: unknown
    threats raise ``KeyError``, unknown variants raise ``ValueError``
    naming the valid ones.
    """
    base = base_config or ScenarioConfig(duration=90.0)
    return experiment_spec(threat_key, variant).build(base)


# --------------------------------------------------------------------------
# Defence construction
# --------------------------------------------------------------------------

def make_defenses(mechanism_key: str) -> tuple[list, dict]:
    """Canonical defence stack for a Table III mechanism key.

    Returns ``(defenses, config_requirements)`` where the requirements are
    ScenarioConfig overrides the mechanism needs (VLC hardware, authority,
    RSUs along the route).  Stacks resolve through the declarative
    defence table (:mod:`repro.experiments`) and the component registry;
    unknown mechanisms raise ``KeyError``.
    """
    stack = defense_stack(mechanism_key)
    return stack.build(), dict(stack.requirements)


# --------------------------------------------------------------------------
# Campaign runners
# --------------------------------------------------------------------------

#: Tolerance below which a metric delta/baseline counts as zero for the
#: ratio guards (floating-point noise, not a real effect).
_EPS = 1e-9


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


def run_threat_experiment(experiment: ThreatExperiment) -> ThreatOutcome:
    """Run baseline + attacked episodes and verdict the claimed effect."""
    baseline = run_episode(experiment.config, setup_hooks=experiment.hooks)
    attacked = run_episode(experiment.config, attacks=experiment.make_attacks(),
                           setup_hooks=experiment.hooks)
    baseline_value = experiment.extract_metric(baseline)
    attacked_value = experiment.extract_metric(attacked)
    if experiment.lower_is_better:
        effect = attacked_value > baseline_value + 1e-9
    else:
        effect = attacked_value < baseline_value - 1e-9
    observables: dict = {}
    for report in attacked.attack_reports:
        observables.update({f"{report.attack_name}.{k}": v
                            for k, v in report.observables.items()})
    return ThreatOutcome(threat_key=experiment.threat_key,
                         variant=experiment.variant,
                         metric_name=experiment.metric_name,
                         baseline_value=baseline_value,
                         attacked_value=attacked_value,
                         effect_present=effect,
                         attack_observables=observables)


# --------------------------------------------------------------------------
# Declarative spec execution
# --------------------------------------------------------------------------

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
        delta = self.outcome.attacked_value - self.outcome.baseline_value
        if abs(delta) < _EPS:
            return None
        return (self.outcome.attacked_value - self.defended_value) / delta


def run_experiment_spec(spec: ExperimentSpec,
                        base_config: Optional[ScenarioConfig] = None
                        ) -> ExperimentSpecRun:
    """Run a declarative experiment spec end to end.

    Executes baseline and attacked episodes (and, when the spec declares
    defence components, a defended episode) on the spec's resolved
    config, and verdicts the headline metric exactly like
    :func:`run_threat_experiment`.
    """
    base = base_config or ScenarioConfig(duration=90.0)
    experiment = spec.build(base)
    outcome = run_threat_experiment(experiment)
    defended_value = None
    if spec.defenses:
        defended = run_episode(experiment.config,
                               attacks=experiment.make_attacks(),
                               defenses=spec.build_defenses(base),
                               setup_hooks=experiment.hooks)
        defended_value = experiment.extract_metric(defended)
    return ExperimentSpecRun(spec=spec, outcome=outcome,
                             defended_value=defended_value)


# --------------------------------------------------------------------------
# Engine-backed campaign planning and execution
# --------------------------------------------------------------------------

@dataclass
class PlannedExperiment:
    """A threat experiment resolved into runnable, memoisable episode specs."""

    experiment: ThreatExperiment
    baseline: EpisodeSpec
    attacked: EpisodeSpec
    defended: Optional[EpisodeSpec] = None
    mechanism_key: Optional[str] = None


def plan_threat_experiment(threat_key: str,
                           base_config: Optional[ScenarioConfig] = None,
                           variant: Optional[str] = None,
                           mechanism_key: Optional[str] = None,
                           replicate: int = 0) -> PlannedExperiment:
    """Resolve one (threat, variant[, mechanism]) into episode specs.

    The spec config is fully resolved: the experiment's scenario
    overrides, the mechanism's config requirements, and the derived
    per-experiment seed (``derive_seed(root, threat_key, variant)`` with
    the root taken from ``base_config.seed``).  Baseline/attacked/
    defended specs share the config, so their metrics are comparable and
    the runner can share baselines across mechanisms with identical
    requirements.  ``replicate`` selects a decorrelated seed stream for
    replicated campaigns; replicate 0 is the canonical derivation.
    """
    base = base_config or ScenarioConfig(duration=90.0)
    experiment = threat_experiment(threat_key, base, variant=variant)
    requirements: dict = {}
    if mechanism_key is not None:
        _, requirements = make_defenses(mechanism_key)
    seed = derive_replicate_seed(base.seed, threat_key, experiment.variant,
                                 replicate)
    config = experiment.config.with_overrides(seed=seed, **requirements)
    baseline = EpisodeSpec(threat_key, experiment.variant, "baseline", config)
    attacked = EpisodeSpec(threat_key, experiment.variant, "attacked", config)
    defended = None
    if mechanism_key is not None:
        defended = EpisodeSpec(threat_key, experiment.variant, "defended",
                               config, mechanism_key)
    return PlannedExperiment(experiment=experiment, baseline=baseline,
                             attacked=attacked, defended=defended,
                             mechanism_key=mechanism_key)


def _verdict(experiment: ThreatExperiment, baseline_value: float,
             attacked_value: float) -> bool:
    if experiment.lower_is_better:
        return attacked_value > baseline_value + _EPS
    return attacked_value < baseline_value - _EPS


def _outcome_from_records(experiment: ThreatExperiment,
                          baseline: EpisodeRecord,
                          attacked: EpisodeRecord) -> ThreatOutcome:
    baseline_value = baseline.extract_metric(experiment.metric_name)
    attacked_value = attacked.extract_metric(experiment.metric_name)
    return ThreatOutcome(threat_key=experiment.threat_key,
                         variant=experiment.variant,
                         metric_name=experiment.metric_name,
                         baseline_value=baseline_value,
                         attacked_value=attacked_value,
                         effect_present=_verdict(experiment, baseline_value,
                                                 attacked_value),
                         attack_observables=attacked.prefixed_observables())


def run_threat_catalogue(base_config: Optional[ScenarioConfig] = None,
                         threats: Optional[Sequence[str]] = None,
                         *,
                         workers: int = 1,
                         store=None,
                         trace_dir=None,
                         seed_replicates: int = 1,
                         runner: Optional[CampaignRunner] = None
                         ) -> list[ThreatOutcome]:
    """Table II campaign: every catalogued threat, baseline vs attacked.

    Executes through the campaign engine: pass ``workers``, a result
    store (``store="sqlite:PATH"``) and/or ``trace_dir`` (or a
    preconfigured ``runner``, which wins) to parallelise, to
    persist/reuse episode results, and to stream per-unit JSONL
    traces.  Results are
    independent of the worker count.

    ``seed_replicates=N`` runs every threat at N derived seeds (sweep
    aggregation semantics: replicate 0 is the canonical stream) and
    reports the replicate mean in ``baseline_value``/``attacked_value``
    with the spread in ``baseline_std``/``attacked_std``; the verdict is
    taken on the means.
    """
    if seed_replicates < 1:
        raise ValueError("seed_replicates must be >= 1")
    keys = list(threats) if threats is not None else list(taxonomy.THREATS)
    engine = runner if runner is not None else CampaignRunner(
        workers=workers, store=store,
        trace_dir=trace_dir)
    with obs.timed("campaign.plan"):
        plans = [[plan_threat_experiment(key, base_config, replicate=r)
                  for r in range(seed_replicates)] for key in keys]
        specs = [spec for reps in plans for plan in reps
                 for spec in (plan.baseline, plan.attacked)]
    records = engine.run(specs)
    outcomes: list[ThreatOutcome] = []
    for reps in plans:
        outcomes.append(_aggregate_outcome(
            reps[0].experiment,
            [records[plan.baseline.key] for plan in reps],
            [records[plan.attacked.key] for plan in reps]))
    return outcomes


def _aggregate_outcome(experiment: ThreatExperiment,
                       baselines: Sequence[EpisodeRecord],
                       attacked: Sequence[EpisodeRecord]) -> ThreatOutcome:
    """Replicate-mean ThreatOutcome (sweep aggregation path)."""
    if len(baselines) == 1:
        return _outcome_from_records(experiment, baselines[0], attacked[0])
    from repro.sweep.aggregate import summary_stats

    base = summary_stats([r.extract_metric(experiment.metric_name)
                          for r in baselines])
    atk = summary_stats([r.extract_metric(experiment.metric_name)
                         for r in attacked])
    return ThreatOutcome(threat_key=experiment.threat_key,
                         variant=experiment.variant,
                         metric_name=experiment.metric_name,
                         baseline_value=base["mean"],
                         attacked_value=atk["mean"],
                         effect_present=_verdict(experiment, base["mean"],
                                                 atk["mean"]),
                         attack_observables=attacked[0].prefixed_observables(),
                         baseline_std=base["std"], attacked_std=atk["std"],
                         replicates=len(baselines))


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


def run_highway_catalogue(base_config: Optional[ScenarioConfig] = None,
                          *,
                          workers: int = 1,
                          store=None,
                          trace_dir=None,
                          seed_replicates: int = 1,
                          runner: Optional[CampaignRunner] = None
                          ) -> list[ThreatOutcome]:
    """Multi-platoon campaign: every highway catalogue cell, baseline vs
    attacked.

    Same engine semantics as :func:`run_threat_catalogue` (memoisation,
    worker fan-out, persistent caches, derived seeds), restricted to the
    cross-platoon cells from :func:`highway_variants`.
    """
    if seed_replicates < 1:
        raise ValueError("seed_replicates must be >= 1")
    cells = highway_variants()
    if not cells:
        raise ValueError("the catalogue has no highway variants")
    engine = runner if runner is not None else CampaignRunner(
        workers=workers, store=store,
        trace_dir=trace_dir)
    with obs.timed("campaign.plan"):
        plans = [[plan_threat_experiment(threat, base_config, variant=variant,
                                         replicate=r)
                  for r in range(seed_replicates)]
                 for threat, variant in cells]
        specs = [spec for reps in plans for plan in reps
                 for spec in (plan.baseline, plan.attacked)]
    records = engine.run(specs)
    return [_aggregate_outcome(
        reps[0].experiment,
        [records[plan.baseline.key] for plan in reps],
        [records[plan.attacked.key] for plan in reps]) for reps in plans]


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
        """Fraction of the attack-induced delta removed by the defence.

        1.0 = fully restored to baseline; 0.0 = no help; negative = the
        defence made it worse.  ``None`` when the attack had no effect.
        """
        delta_attack = self.attacked_value - self.baseline_value
        if abs(delta_attack) < _EPS:
            return None
        return (self.attacked_value - self.defended_value) / delta_attack


def _matrix_variant(mechanism_key: str, threat_key: str,
                    variant: Optional[str] = None) -> Optional[str]:
    """Matrix cells use the graded variants so mitigation is a ratio, not
    a boolean: entrance gaps for fake manoeuvres, GPS capture for the
    onboard-security sensor cell."""
    if variant is not None:
        return variant
    if threat_key == "fake_maneuver":
        return "entrance"
    if threat_key == "sensor_spoofing" and mechanism_key == "onboard_security":
        return "gps"
    return None


def run_matrix_cell(mechanism_key: str, threat_key: str,
                    base_config: Optional[ScenarioConfig] = None,
                    variant: Optional[str] = None,
                    baseline: Optional[ScenarioResult] = None) -> MatrixCell:
    """One Table III cell: attack impact with the mechanism off vs on.

    ``baseline`` accepts a precomputed baseline :class:`ScenarioResult`
    for this cell's config (as returned by a previous cell sharing the
    same threat/requirements), skipping the redundant baseline episode.
    """
    defenses, requirements = make_defenses(mechanism_key)
    base = base_config or ScenarioConfig(duration=90.0)
    variant = _matrix_variant(mechanism_key, threat_key, variant)
    experiment = threat_experiment(threat_key, base, variant=variant)
    config = experiment.config.with_overrides(**requirements)
    if baseline is None:
        baseline = run_episode(config, setup_hooks=experiment.hooks)
    attacked = run_episode(config, attacks=experiment.make_attacks(),
                           setup_hooks=experiment.hooks)
    defenses_fresh, _ = make_defenses(mechanism_key)
    defended = run_episode(config, attacks=experiment.make_attacks(),
                           defenses=defenses_fresh,
                           setup_hooks=experiment.hooks)
    return MatrixCell(mechanism_key=mechanism_key, threat_key=threat_key,
                      metric_name=experiment.metric_name,
                      baseline_value=experiment.extract_metric(baseline),
                      attacked_value=experiment.extract_metric(attacked),
                      defended_value=experiment.extract_metric(defended),
                      detection=defended.detection)


def run_defense_matrix(base_config: Optional[ScenarioConfig] = None,
                       mechanisms: Optional[Sequence[str]] = None,
                       *,
                       workers: int = 1,
                       store=None,
                       trace_dir=None,
                       seed_replicates: int = 1,
                       runner: Optional[CampaignRunner] = None
                       ) -> list[MatrixCell]:
    """Table III campaign: each mechanism against each threat it targets.

    Executes through the campaign engine: every distinct baseline and
    attacked episode runs exactly once per campaign (mechanisms whose
    config requirements agree share them), and ``workers > 1`` fans the
    remaining units over a process pool without changing any value.

    ``seed_replicates=N`` replicates every cell over N derived seeds and
    reports replicate means with the spread in the ``*_std`` fields (see
    :func:`run_threat_catalogue`).
    """
    if seed_replicates < 1:
        raise ValueError("seed_replicates must be >= 1")
    keys = list(mechanisms) if mechanisms is not None else list(taxonomy.MECHANISMS)
    engine = runner if runner is not None else CampaignRunner(
        workers=workers, store=store,
        trace_dir=trace_dir)
    with obs.timed("campaign.plan"):
        plans: list[list[PlannedExperiment]] = []
        for mechanism_key in keys:
            mechanism = taxonomy.MECHANISMS[mechanism_key]
            for threat_key in mechanism.attack_targets:
                plans.append([plan_threat_experiment(
                    threat_key, base_config,
                    variant=_matrix_variant(mechanism_key, threat_key),
                    mechanism_key=mechanism_key, replicate=r)
                    for r in range(seed_replicates)])
        specs = [spec for reps in plans for plan in reps
                 for spec in (plan.baseline, plan.attacked, plan.defended)]
    records = engine.run(specs)
    cells: list[MatrixCell] = []
    for reps in plans:
        plan = reps[0]
        metric = plan.experiment.metric_name
        if seed_replicates == 1:
            cells.append(MatrixCell(
                mechanism_key=plan.mechanism_key,
                threat_key=plan.experiment.threat_key,
                metric_name=metric,
                baseline_value=records[plan.baseline.key].extract_metric(metric),
                attacked_value=records[plan.attacked.key].extract_metric(metric),
                defended_value=records[plan.defended.key].extract_metric(metric),
                detection=records[plan.defended.key].detection))
            continue
        from repro.sweep.aggregate import summary_stats

        base = summary_stats([records[p.baseline.key].extract_metric(metric)
                              for p in reps])
        atk = summary_stats([records[p.attacked.key].extract_metric(metric)
                             for p in reps])
        dfd = summary_stats([records[p.defended.key].extract_metric(metric)
                             for p in reps])
        cells.append(MatrixCell(
            mechanism_key=plan.mechanism_key,
            threat_key=plan.experiment.threat_key,
            metric_name=metric,
            baseline_value=base["mean"], attacked_value=atk["mean"],
            defended_value=dfd["mean"],
            baseline_std=base["std"], attacked_std=atk["std"],
            defended_std=dfd["std"], replicates=seed_replicates,
            detection=records[plan.defended.key].detection))
    return cells
