"""Replicate aggregation and dose-response analysis for sweeps.

Pure functions over :class:`~repro.core.runner.EpisodeRecord` batches:
no wall clocks, no dict-order dependence, so the same records aggregate
to the same bytes regardless of worker count or cache warmth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

#: Tolerance below which a baseline counts as zero for ratio purposes.
_EPS = 1e-9

#: The per-point responses a dose-response curve exposes (curve name ->
#: how it is read off a :class:`SweepPointSummary`).
RESPONSES = (
    "baseline_mean",
    "attacked_mean",
    "defended_mean",
    "impact_ratio_mean",
    "effect_rate",
    "collision_mean",
    "disband_rate",
    "detection_rate",
    "merge_rate",
)


def summary_stats(values: Sequence[float]) -> dict:
    """``{"mean", "std", "min", "max"}`` over a replicate value list.

    ``std`` is the population standard deviation (0.0 for a single
    replicate), so N=1 sweeps degrade gracefully to point estimates.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("summary_stats needs at least one value")
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    return {"mean": mean, "std": math.sqrt(var),
            "min": min(vals), "max": max(vals)}


def effect_present(lower_is_better: bool, baseline: float,
                   attacked: float) -> bool:
    """The paper's effect rule: the attacked value is worse than the
    baseline by more than floating-point noise."""
    if lower_is_better:
        return attacked > baseline + _EPS
    return attacked < baseline - _EPS


@dataclass
class SweepPointSummary:
    """Aggregated replicates of one sweep point.

    ``baseline``/``attacked``/``defended`` are :func:`summary_stats`
    dicts of the experiment's headline metric; the rates are fractions
    of replicates (attacked episode) showing the respective outcome.
    """

    index: int
    label: str
    values: dict
    replicates: int
    metric: str
    baseline: dict
    attacked: dict
    defended: Optional[dict] = None
    impact_ratio: Optional[dict] = None
    effect_rate: float = 0.0
    collisions: dict = field(default_factory=dict)
    disband_rate: float = 0.0
    detection_rate: float = 0.0
    # Fraction of attacked replicates completing >= 1 platoon merge
    # (always 0.0 outside highway scenarios).
    merge_rate: float = 0.0

    def response(self, name: str) -> Optional[float]:
        """Read one named dose-response value off this point."""
        if name == "baseline_mean":
            return self.baseline["mean"]
        if name == "attacked_mean":
            return self.attacked["mean"]
        if name == "defended_mean":
            return self.defended["mean"] if self.defended else None
        if name == "impact_ratio_mean":
            return self.impact_ratio["mean"] if self.impact_ratio else None
        if name == "effect_rate":
            return self.effect_rate
        if name == "collision_mean":
            return self.collisions.get("mean")
        if name == "disband_rate":
            return self.disband_rate
        if name == "detection_rate":
            return self.detection_rate
        if name == "merge_rate":
            return self.merge_rate
        raise ValueError(f"unknown response {name!r}; expected one of "
                         f"{RESPONSES}")


def summarise_point(index: int, label: str, values: dict, metric: str,
                    lower_is_better: bool,
                    baseline_records: Sequence, attacked_records: Sequence,
                    defended_records: Sequence = ()) -> SweepPointSummary:
    """Aggregate one point's replicate records into a summary."""
    if len(baseline_records) != len(attacked_records) or not baseline_records:
        raise ValueError("need equal, non-empty baseline/attacked replicate "
                         "record lists")
    base_vals = [r.extract_metric(metric) for r in baseline_records]
    atk_vals = [r.extract_metric(metric) for r in attacked_records]
    ratios = [a / b for a, b in zip(atk_vals, base_vals) if abs(b) > _EPS]
    effects = [effect_present(lower_is_better, b, a)
               for a, b in zip(atk_vals, base_vals)]
    n = len(attacked_records)
    return SweepPointSummary(
        index=index, label=label, values=dict(values), replicates=n,
        metric=metric,
        baseline=summary_stats(base_vals),
        attacked=summary_stats(atk_vals),
        defended=(summary_stats([r.extract_metric(metric)
                                 for r in defended_records])
                  if defended_records else None),
        impact_ratio=summary_stats(ratios) if ratios else None,
        effect_rate=sum(effects) / n,
        collisions=summary_stats([r.metrics.get("collisions", 0)
                                  for r in attacked_records]),
        disband_rate=sum(1 for r in attacked_records
                         if r.metrics.get("disbands", 0) > 0) / n,
        detection_rate=sum(1 for r in attacked_records
                           if r.metrics.get("detections", 0) > 0) / n,
        merge_rate=sum(1 for r in attacked_records
                       if r.metrics.get("merges_completed", 0) > 0) / n,
    )


# --------------------------------------------------------------------------
# Dose-response curves
# --------------------------------------------------------------------------

@dataclass
class DoseResponseCurve:
    """Responses along one swept axis (single-axis sweeps only)."""

    axis: str
    xs: list
    responses: dict                 # response name -> list aligned with xs

    def series(self, name: str) -> list:
        if name not in self.responses:
            raise ValueError(f"unknown response {name!r}; curve has "
                             f"{sorted(self.responses)}")
        return self.responses[name]


@dataclass
class ThresholdEstimate:
    """Where (if anywhere) a response first crosses a level."""

    response: str
    level: float
    crossing: Optional[float]


def dose_response(axis_path: str,
                  summaries: Sequence[SweepPointSummary]) -> DoseResponseCurve:
    """Build the axis-value -> responses curve from point summaries.

    Points are ordered by their axis value (numeric where possible) so
    grid order does not matter.
    """
    def axis_value(summary: SweepPointSummary) -> Any:
        if axis_path not in summary.values:
            raise ValueError(f"point {summary.label!r} has no value for "
                             f"axis {axis_path!r}")
        return summary.values[axis_path]

    ordered = sorted(summaries, key=lambda s: (_sort_key(axis_value(s)),
                                               s.index))
    xs = [axis_value(s) for s in ordered]
    responses = {name: [s.response(name) for s in ordered]
                 for name in RESPONSES}
    return DoseResponseCurve(axis=axis_path, xs=xs, responses=responses)


def _sort_key(value: Any) -> tuple:
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, float(value))
    return (1, str(value))


def _finite(value) -> Optional[float]:
    """``value`` as a finite float, or ``None`` when it is missing,
    non-numeric, a bool, NaN or infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def first_crossing(xs: Sequence[float], ys: Sequence[Optional[float]],
                   level: float) -> Optional[float]:
    """First axis value at which the response reaches ``level``.

    Scans left to right; a crossing between two points is linearly
    interpolated.  Returns ``None`` when the response never reaches the
    level.

    Edge cases are pinned by ``tests/property/test_prop_aggregate.py``:

    * a point whose x or y is missing (``None``), non-numeric, NaN or
      infinite breaks the series -- no interpolation spans the gap, and
      an at-level point right after a gap (including a *leading* gap)
      is returned exactly;
    * trailing gaps after a crossing are unreachable and change nothing;
    * non-monotone series return the **first** reach, even if the
      response later dips below the level again;
    * the result is always either ``None`` or a finite value between
      the bracketing points -- never NaN.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must align")
    prev_x: Optional[float] = None
    prev_y: Optional[float] = None
    for raw_x, raw_y in zip(xs, ys):
        x, y = _finite(raw_x), _finite(raw_y)
        if x is None or y is None:
            prev_x, prev_y = None, None
            continue
        if y >= level:
            if prev_y is None or prev_y >= level:
                return x
            # Interpolate between the last sub-level point and this one.
            span = y - prev_y
            frac = (level - prev_y) / span if abs(span) > _EPS else 1.0
            return prev_x + (x - prev_x) * frac
        prev_x, prev_y = x, y
    return None


def estimate_thresholds(curve: Optional[DoseResponseCurve],
                        thresholds: Sequence) -> list[ThresholdEstimate]:
    """Evaluate the spec's threshold queries against a curve."""
    out: list[ThresholdEstimate] = []
    for threshold in thresholds:
        crossing = None
        if curve is not None:
            crossing = first_crossing(curve.xs,
                                      curve.series(threshold.response),
                                      threshold.level)
        out.append(ThresholdEstimate(response=threshold.response,
                                     level=threshold.level,
                                     crossing=crossing))
    return out
