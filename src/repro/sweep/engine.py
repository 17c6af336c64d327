"""Sweep execution: spec -> campaign units -> aggregated result.

The :class:`SweepEngine` is a thin planner on top of
:class:`~repro.core.runner.CampaignRunner`: it expands a
:class:`~repro.sweep.spec.SweepSpec` into per-point, per-replicate
:class:`~repro.core.runner.EpisodeSpec` units and hands the whole batch
to the runner, so episode memoisation, the worker pool, persistent
caches and traces all apply per sweep point.  Two structural dividends
of that reuse:

* points that vary only ``attack.*`` parameters share one baseline
  episode per replicate (identical config + seed -> identical content
  hash -> memoised), so a 5-point jamming sweep with 3 replicates costs
  3 baselines, not 15;
* sweep results are exactly as deterministic as campaign results --
  the aggregate artifact is a pure function of (spec, root seed),
  regardless of worker count or cache warmth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace as dc_replace
from typing import Optional

from repro.core.campaign import plan_threat_experiment
from repro.core.runner import CampaignRunner, EpisodeSpec
from repro.core.scenario import ScenarioConfig
from repro.obs import registry as obs
from repro.sweep import aggregate
from repro.sweep.spec import SweepSpec, split_path


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: concrete values for every axis, in axis order."""

    index: int
    label: str
    values: tuple                   # ((path, value), ...)


@dataclass
class PlannedPoint:
    point: SweepPoint
    metric: str
    lower_is_better: bool
    # One PlannedExperiment per seed replicate, replicate 0 first.
    replicates: list = field(default_factory=list)

    def specs(self) -> list[EpisodeSpec]:
        return [spec for rep in self.replicates for spec in rep.specs()]


@dataclass
class SweepResult:
    """Everything a sweep produced (wall-clock-free, artifact-ready)."""

    spec: SweepSpec
    points: list                    # list[SweepPointSummary]
    curve: Optional[aggregate.DoseResponseCurve]
    thresholds: list                # list[ThresholdEstimate]

    @property
    def episodes_planned(self) -> int:
        roles = 2 if self.spec.mechanism is None else 3
        return len(self.points) * self.spec.seed_replicates * roles


def _fmt_axis_value(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def expand_points(spec: SweepSpec) -> list[SweepPoint]:
    """Cartesian grid over the spec's resolved axes, in axis order."""
    root = spec.root_seed
    if root is None:
        raise ValueError("expand_points needs a resolved spec "
                         "(root_seed set); call spec.resolved() first")
    per_axis = [axis.resolve(root) for axis in spec.axes]
    points: list[SweepPoint] = []
    for index, combo in enumerate(itertools.product(*per_axis)):
        values = tuple(zip((axis.path for axis in spec.axes), combo))
        label = ",".join(f"{path}={_fmt_axis_value(value)}"
                         for path, value in values)
        points.append(SweepPoint(index=index, label=label, values=values))
    return points


class SweepEngine:
    """Plans and executes sweeps through a campaign runner (a serial,
    store-less :class:`CampaignRunner` unless one is passed)."""

    def __init__(self, runner: Optional[CampaignRunner] = None) -> None:
        self.runner = runner if runner is not None else CampaignRunner()

    def _emit_phase(self, phase: str, finished: bool = False,
                    **payload) -> None:
        """Sweep-level phase transitions ride the runner's event bus."""
        bus = self.runner.telemetry
        if bus is not None:
            bus.emit("phase_finished" if finished else "phase_started",
                     phase=phase, **payload)

    # ------------------------------------------------------------- planning

    def plan(self, spec: SweepSpec) -> list[PlannedPoint]:
        """Expand a resolved spec into runnable campaign units."""
        spec = spec.resolved()
        # The planner derives replicate seeds from the base config's
        # seed, which for a sweep is the spec's root seed.
        base_cfg = ScenarioConfig(**spec.base).with_overrides(
            seed=spec.root_seed)
        planned: list[PlannedPoint] = []
        for point in expand_points(spec):
            scenario_over: dict = {}
            nested_over: dict = {"channel": {}, "vehicle": {}, "highway": {}}
            param_over: list[tuple] = []
            for path, value in point.values:
                target, attr = split_path(path)
                if target == "scenario":
                    scenario_over[attr] = value
                elif target in nested_over:
                    nested_over[target][attr] = value
                else:                               # attack.* / defense.*
                    param_over.append((path, value))
            point_cfg = base_cfg.with_overrides(**scenario_over)
            if nested_over["highway"] and point_cfg.highway is None:
                raise ValueError(
                    "highway.* axes need a highway scenario; set a "
                    "'highway' section in the sweep's base config")
            point_cfg = point_cfg.with_overrides(**{
                target: dc_replace(getattr(point_cfg, target), **over)
                for target, over in nested_over.items() if over})
            replicates = [plan_threat_experiment(
                spec.threat, point_cfg, variant=spec.variant,
                mechanism_key=spec.mechanism, replicate=rep,
                overrides=param_over)
                for rep in range(spec.seed_replicates)]
            experiment = replicates[0].experiment
            planned.append(PlannedPoint(
                point=point, metric=spec.metric or experiment.metric_name,
                lower_is_better=experiment.lower_is_better,
                replicates=replicates))
        return planned

    # ------------------------------------------------------------ execution

    def run(self, spec: SweepSpec) -> SweepResult:
        """Execute a sweep end to end and aggregate the replicates."""
        spec = spec.resolved()
        self._emit_phase("sweep.plan")
        with obs.timed("sweep.plan"):
            planned = self.plan(spec)
            specs = [s for plan in planned for s in plan.specs()]
        self._emit_phase("sweep.plan", finished=True)
        records = self.runner.run(specs)
        self._emit_phase("sweep.aggregate")
        with obs.timed("sweep.aggregate"):
            summaries = []
            for plan in planned:
                baseline = [records[rep.baseline.key]
                            for rep in plan.replicates]
                attacked = [records[rep.attacked.key]
                            for rep in plan.replicates]
                defended = ([records[rep.defended.key]
                             for rep in plan.replicates]
                            if spec.mechanism is not None else ())
                summaries.append(aggregate.summarise_point(
                    plan.point.index, plan.point.label,
                    dict(plan.point.values), plan.metric,
                    plan.lower_is_better, baseline, attacked, defended))
            curve = (aggregate.dose_response(spec.axes[0].path, summaries)
                     if len(spec.axes) == 1 else None)
            thresholds = aggregate.estimate_thresholds(curve, spec.thresholds)
        self._emit_phase("sweep.aggregate", finished=True)
        return SweepResult(spec=spec, points=summaries, curve=curve,
                           thresholds=thresholds)


def run_sweep(spec: SweepSpec, *,
              runner: Optional[CampaignRunner] = None) -> SweepResult:
    """One-call sweep: build an engine, run, aggregate."""
    return SweepEngine(runner=runner).run(spec)
