"""Persistent benchmark history: ``platoonsec-bench/1`` records.

Every bench and campaign run can append one schema-versioned record --
git SHA, root seed, worker count, per-phase timings from the
:class:`~repro.core.runner.RunReport`, headline metrics and the
aggregated :class:`~repro.obs.registry.MetricsRegistry` snapshot -- to a
JSONL history file (``BENCH_history.jsonl`` by convention).  The history
is the longitudinal complement to per-episode traces: traces answer
"what happened inside this episode", the history answers "how has this
campaign's cost and outcome moved across commits".

:func:`compare_records` diffs two records under explicit tolerances and
is what the ``bench-compare`` CLI (and CI's golden-record gate) runs:

* *wall-time drift* gates only regressions -- a record that got slower
  by more than ``wall_tolerance`` (relative) fails, a faster one never
  does;
* *metric drift* gates both directions -- campaign metrics are
  deterministic for a fixed seed, so any movement beyond
  ``metric_tolerance`` is a reproduction change, not noise;
* *counters* (frames sent, messages dropped, ...) are gated like
  metrics, but only when both records computed the same number of
  units -- a warm-cache run computes fewer episodes and legitimately
  counts less.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

HISTORY_FORMAT = "platoonsec-bench/1"

#: Below this magnitude a reference value counts as zero and drift is
#: measured absolutely instead of relatively.
_EPS = 1e-9


def current_git_sha(cwd: Union[str, Path, None] = None) -> Optional[str]:
    """The repo's HEAD SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             cwd=str(cwd) if cwd is not None else None)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def make_bench_record(label: str, report=None, *,
                      metrics: Optional[Dict[str, float]] = None,
                      root_seed: Optional[int] = None,
                      git_sha: Optional[str] = None,
                      created: Optional[float] = None) -> dict:
    """Build one ``platoonsec-bench/1`` record.

    ``report`` is a :class:`~repro.core.runner.RunReport` (or ``None``
    for table-only bench records); ``metrics`` is the flat name -> float
    headline-metric mapping the drift gate compares.
    """
    record = {
        "format": HISTORY_FORMAT,
        "label": str(label),
        "created": round(float(created if created is not None
                               else time.time()), 3),
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
        "root_seed": root_seed,
        "workers": None,
        "units": 0,
        "computed": 0,
        "cache_hits": 0,
        "wall_time": 0.0,
        "episode_time": 0.0,
        "phases": {},
        "metrics": {name: float(value)
                    for name, value in (metrics or {}).items()},
        "counters": {},
        "timers": {},
    }
    if report is not None:
        record.update({
            "workers": report.workers,
            "units": len(report.units),
            "computed": report.computed,
            "cache_hits": report.cache_hits,
            "wall_time": round(report.wall_time, 6),
            "episode_time": round(report.episode_time, 6),
            "phases": {name: round(seconds, 6)
                       for name, seconds in report.phases.items()},
            "counters": dict(report.counters),
            "timers": {name: dict(stat)
                       for name, stat in report.timers.items()},
        })
    return record


def validate_record(record: Any, where: str = "record") -> dict:
    """Reject anything that is not a ``platoonsec-bench/1`` object."""
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected a JSON object, got "
                         f"{type(record).__name__}")
    if record.get("format") != HISTORY_FORMAT:
        raise ValueError(f"{where}: unsupported bench record format "
                         f"{record.get('format')!r} (expected "
                         f"{HISTORY_FORMAT!r})")
    if not isinstance(record.get("label"), str):
        raise ValueError(f"{where}: bench record has no string 'label'")
    return record


def append_history(path: Union[str, Path], record: dict) -> Path:
    """Append one record to a JSONL history file (created on demand)."""
    validate_record(record)
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":")) + "\n")
    except OSError as exc:
        raise ValueError(f"bench history {path} is not writable: "
                         f"{exc}") from None
    return path


def load_history(path: Union[str, Path]) -> list[dict]:
    """Read a history file back, oldest first; bad lines raise."""
    records: list[dict] = []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{i + 1}: not JSON: {exc}") from None
        records.append(validate_record(record, where=f"{path}:{i + 1}"))
    return records


def load_record(path: Union[str, Path]) -> dict:
    """Read one bench record: a standalone JSON document (e.g. a CI
    golden), or the latest entry of a JSON-lines history file."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError:
        history = load_history(path)
        if not history:
            raise ValueError(f"history {path} is empty") from None
        return history[-1]
    return validate_record(data, where=str(path))


# --------------------------------------------------------------------------
# Comparison / regression gating
# --------------------------------------------------------------------------

@dataclass
class BenchComparison:
    """Outcome of diffing two bench records under tolerances."""

    old_label: str
    new_label: str
    wall_tolerance: float
    metric_tolerance: float
    rows: List[list] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def format(self) -> str:
        from repro.analysis.tables import format_table

        parts = [format_table(
            ["quantity", "old", "new", "drift", "verdict"], self.rows,
            title=f"bench-compare: {self.old_label!r} -> "
                  f"{self.new_label!r}")]
        for note in self.notes:
            parts.append(f"note: {note}")
        if self.problems:
            parts.append("DIVERGENCE:")
            parts.extend(f"  - {problem}" for problem in self.problems)
        else:
            parts.append(f"no divergence beyond tolerance "
                         f"(wall ±{self.wall_tolerance:g} rel, "
                         f"metrics ±{self.metric_tolerance:g} rel)")
        return "\n".join(parts)


def _drift(old: float, new: float) -> float:
    """Relative drift where the reference allows it, absolute otherwise."""
    if abs(old) < _EPS:
        return abs(new - old)
    return (new - old) / abs(old)


def _fmt(value: float) -> float:
    return round(float(value), 6)


def compare_records(old: dict, new: dict, *,
                    wall_tolerance: float = 1.0,
                    metric_tolerance: float = 0.05,
                    expect_speedup: Optional[float] = None) -> BenchComparison:
    """Diff two bench records; tolerance-exceeding drift is a problem.

    See the module docstring for the gating rules.  Tolerances are
    relative: ``wall_tolerance=1.0`` allows the new run to take up to
    twice as long, ``metric_tolerance=0.05`` allows metrics to move 5 %.

    ``expect_speedup`` turns the wall comparison into a *performance
    gate*: the new record must be at least that factor faster than the
    old one (``old_wall / new_wall >= expect_speedup``), otherwise the
    comparison fails.  This is how the kernel bench asserts the vector
    kernel's advantage over the scalar reference instead of merely
    tolerating it.
    """
    validate_record(old, "old record")
    validate_record(new, "new record")
    comparison = BenchComparison(old_label=old["label"],
                                 new_label=new["label"],
                                 wall_tolerance=wall_tolerance,
                                 metric_tolerance=metric_tolerance)
    if old["label"] != new["label"]:
        comparison.problems.append(
            f"label mismatch: comparing {old['label']!r} against "
            f"{new['label']!r} -- these are different campaigns")

    old_wall = float(old.get("wall_time") or 0.0)
    new_wall = float(new.get("wall_time") or 0.0)
    wall_drift = _drift(old_wall, new_wall)
    wall_bad = old_wall > _EPS and wall_drift > wall_tolerance
    comparison.rows.append(["wall_time [s]", _fmt(old_wall), _fmt(new_wall),
                            f"{wall_drift:+.2f}",
                            "SLOWER" if wall_bad else "ok"])
    if wall_bad:
        comparison.problems.append(
            f"wall_time regressed {old_wall:.3f}s -> {new_wall:.3f}s "
            f"({wall_drift:+.1%} > +{wall_tolerance:.1%} allowed)")
    if expect_speedup is not None:
        speedup = (old_wall / new_wall) if new_wall > _EPS else float("inf")
        fast_enough = speedup >= expect_speedup
        comparison.rows.append(["wall speedup [x]",
                                _fmt(expect_speedup), _fmt(speedup), "-",
                                "ok" if fast_enough else "TOO SLOW"])
        if not fast_enough:
            comparison.problems.append(
                f"expected >= {expect_speedup:g}x wall speedup, measured "
                f"{speedup:.2f}x ({old_wall:.3f}s -> {new_wall:.3f}s)")
        else:
            comparison.notes.append(
                f"wall speedup {speedup:.2f}x meets the "
                f">= {expect_speedup:g}x gate")

    def gate(kind: str, old_map: dict, new_map: dict) -> None:
        for name in sorted(set(old_map) | set(new_map)):
            if name not in new_map:
                comparison.rows.append([f"{kind}:{name}",
                                        _fmt(old_map[name]), "-", "-",
                                        "MISSING"])
                comparison.problems.append(
                    f"{kind} {name!r} present in old record, missing "
                    "from new")
                continue
            if name not in old_map:
                comparison.rows.append([f"{kind}:{name}", "-",
                                        _fmt(new_map[name]), "-", "new"])
                comparison.notes.append(
                    f"{kind} {name!r} is new (not in old record)")
                continue
            o, n = float(old_map[name]), float(new_map[name])
            drift = _drift(o, n)
            bad = abs(drift) > metric_tolerance
            comparison.rows.append([f"{kind}:{name}", _fmt(o), _fmt(n),
                                    f"{drift:+.4f}",
                                    "DRIFT" if bad else "ok"])
            if bad:
                comparison.problems.append(
                    f"{kind} {name!r} drifted {o:.6g} -> {n:.6g} "
                    f"({drift:+.2%} > ±{metric_tolerance:.2%} allowed)")

    gate("metric", old.get("metrics") or {}, new.get("metrics") or {})

    old_counters = old.get("counters") or {}
    new_counters = new.get("counters") or {}
    if old.get("computed") == new.get("computed") \
            and old_counters and new_counters:
        gate("counter", old_counters, new_counters)
    elif old_counters or new_counters:
        comparison.notes.append(
            "counters not gated: records computed different unit counts "
            f"({old.get('computed')} vs {new.get('computed')}), so "
            "counter totals are not comparable")
    return comparison
