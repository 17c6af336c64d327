"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``catalogue``
    Run the full Table II campaign.
``highway``
    Run the multi-platoon highway campaign: every catalogued
    cross-platoon cell (Sybil ghost shopping, merge-point jamming, ...)
    baseline vs attacked, with per-cell impact ratios.
``matrix [mechanism]``
    Run the Table III defence matrix (optionally one mechanism row).
``experiment <specfile.json|threat[/variant]>``
    Run one declarative ``platoonsec-experiment/1`` spec (baseline vs
    attacked, plus a defended episode when the spec declares defences).
    Accepts a spec JSON file or a catalogue reference like
    ``jamming`` / ``malware/obd``.
``experiments [--list|--validate] [spec ...]``
    List the registry-backed experiment catalogue and defence stacks, or
    validate the catalogue / the given spec files without running them.
``sweep <specfile.json|preset>``
    Expand a declarative parameter sweep (grid/seeded-random axes over
    scenario, channel, vehicle or attack/defence parameters, with
    ``seed_replicates`` per point) through the campaign engine, print
    the dose-response table and threshold estimates, and -- with
    ``--out-dir`` -- write the byte-deterministic ``platoonsec-sweep/1``
    JSON + CSV artifacts.  ``sweep --list-presets`` names the shipped
    presets.
``tracediff <a> <b>``
    Compare two trace files and name the first divergent record.
``detections <trace|run-log>``
    Summarize the security-verdict telemetry in a JSONL episode trace
    (per-mechanism verdict counts rebuilt from ``verdict`` records) or
    a campaign run log (the detection-quality projection on every
    ``unit_finished`` event): flag rate, TPR/FPR against ground-truth
    attack provenance, time to first flag and missed injections.
``bench-compare [old.json [new.json]]``
    Diff two ``platoonsec-bench/1`` records (or the last N history
    entries) under explicit wall-time/metric tolerances; exits non-zero
    on drift, with distinct codes for divergence and usage errors.
``report (catalogue|matrix|sweep) [target]``
    Run a campaign or sweep and render a single self-contained HTML
    report (outcome grids, inline-SVG dose-response curves, per-unit
    timing, cache summary) -- no scripts, no network assets.
``store (stats|gc|verify) ...``
    Maintain persistent result stores: entry/lease statistics,
    ``gc --older-than 7d`` garbage collection, and ``verify``
    re-checking every entry against its content key and checksum.
``taxonomy``
    Print Tables I/II/III from the machine-readable taxonomy and verify
    the implementation registry.
``risk``
    Print the platoon TARA risk report.

Every command that runs episodes (``catalogue``, ``highway``,
``matrix``, ``experiment``, ``sweep``, ``falsify``, ``report``) executes
through the campaign engine: ``--workers N`` fans episodes over a
process pool, ``--store sqlite:<path>`` persists/reuses episode results
across invocations and concurrent processes in one sqlite database,
``--trace-dir DIR`` streams one schema-versioned JSONL trace per
computed unit (named by content hash), ``--profile`` enables profiling
spans and prints the aggregated counters/timers, and ``--report``
prints the per-unit cache/timing breakdown.

Run telemetry
-------------
The engine commands accept ``--run-log PATH`` (stream one JSON event
line per run/unit/phase transition; with a store configured it defaults
to ``run-log.jsonl`` next to the store's database) and
``--progress`` (force the live stderr progress line, which otherwise
auto-enables only on a TTY).  ``--bench-history PATH`` appends one
``platoonsec-bench/1`` record per campaign to a JSONL history file that
``bench-compare`` gates regressions against.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.analysis.tables import format_table
from repro.core import taxonomy
from repro.core.campaign import run_defense_matrix, run_threat_catalogue
from repro.core.runner import CampaignRunner
from repro.core.scenario import ScenarioConfig


def _base_config(args) -> ScenarioConfig:
    from repro.net.channel import ChannelConfig

    return ScenarioConfig(n_vehicles=args.vehicles, duration=args.duration,
                          warmup=10.0, seed=args.seed, trucks=args.trucks,
                          kernel=args.kernel,
                          channel=ChannelConfig(fading_streams=args.fading))


def _resolve_store(args):
    """The result store selected by ``--store`` (None without one)."""
    from repro.store import open_store

    return open_store(args.store) if args.store is not None else None


def _make_telemetry(args, store=None):
    """Build the run-event bus from the global telemetry flags.

    Returns ``None`` when nothing would listen (no ``--run-log``, no
    store to default it next to, progress neither forced nor on a TTY),
    so the default CLI path stays telemetry-free.  With a store, the
    run log defaults to a sibling ``run-log.jsonl`` next to its database.
    """
    from repro.obs.telemetry import (
        JsonlRunLogSink,
        ProgressSink,
        TelemetryBus,
    )

    run_log = getattr(args, "run_log", None)
    if run_log is None and store is not None:
        run_log = store.default_run_log_path()
    sinks = []
    if run_log is not None:
        sinks.append(JsonlRunLogSink(run_log))
    progress = ProgressSink(enabled=True if args.progress else None)
    if progress.enabled:
        sinks.append(progress)
    return TelemetryBus(sinks) if sinks else None


def _make_runner(args) -> CampaignRunner:
    store = _resolve_store(args)
    return CampaignRunner(workers=args.workers, store=store,
                          trace_dir=args.trace_dir,
                          telemetry=_make_telemetry(args, store))


def _print_report(runner: CampaignRunner, args) -> None:
    if runner.telemetry is not None:
        runner.telemetry.close()
    report = runner.report()
    if args.report:
        print(report.format())
    if args.profile:
        print(report.format_observability())
    print(report.summary())


def _append_bench_history(args, label: str, runner: CampaignRunner,
                          metrics) -> None:
    """Append one ``platoonsec-bench/1`` record when ``--bench-history``
    was given; silently a no-op otherwise."""
    if getattr(args, "bench_history", None) is None:
        return
    from repro.obs.history import append_history, make_bench_record

    record = make_bench_record(label, runner.report(), metrics=metrics,
                               root_seed=args.seed)
    append_history(args.bench_history, record)
    print(f"bench history: appended {label!r} to {args.bench_history}",
          file=sys.stderr)


def _catalogue_metrics(outcomes) -> dict:
    """Flat headline metrics for a Table II campaign."""
    metrics = {}
    for o in outcomes:
        metrics[f"{o.threat_key}/{o.variant}.baseline"] = o.baseline_value
        metrics[f"{o.threat_key}/{o.variant}.attacked"] = o.attacked_value
    metrics["effects_confirmed"] = float(
        sum(1 for o in outcomes if o.effect_present))
    return metrics


def _matrix_metrics(cells) -> dict:
    """Flat headline metrics for a Table III defence matrix."""
    metrics = {}
    for c in cells:
        prefix = f"{c.mechanism_key}/{c.threat_key}"
        metrics[f"{prefix}.defended"] = c.defended_value
        if c.mitigation is not None:
            metrics[f"{prefix}.mitigation"] = c.mitigation
        # Detection counters from the defended episode's verdict ledger:
        # deterministic simulator state, so CI gates them at zero
        # tolerance alongside the headline metric.
        totals = (c.detection or {}).get("totals")
        if totals:
            metrics[f"{prefix}.det_verdicts"] = float(totals["verdicts"])
            metrics[f"{prefix}.det_flagged"] = float(totals["flagged"])
            metrics[f"{prefix}.det_missed"] = float(
                totals["missed_injections"])
    return metrics


def _experiment_metrics(run) -> dict:
    """Flat headline metrics for one experiment spec (its catalogue-style
    row, plus the defended value and mitigation when it has defences)."""
    metrics = _catalogue_metrics([run.outcome])
    if run.defended_value is not None:
        prefix = f"{run.outcome.threat_key}/{run.outcome.variant}"
        metrics[f"{prefix}.defended"] = run.defended_value
        if run.mitigation is not None:
            metrics[f"{prefix}.mitigation"] = run.mitigation
    return metrics


def _sweep_metrics(result) -> dict:
    """Flat headline metrics for a sweep (per-point attacked mean and
    effect rate)."""
    metrics = {}
    for point in result.points:
        metrics[f"{point.label}.attacked_mean"] = point.attacked["mean"]
        metrics[f"{point.label}.effect_rate"] = point.effect_rate
    return metrics


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_only(only) -> list | None:
    """Validate a ``--only`` comma-list against the threat taxonomy."""
    if only is None:
        return None
    threats = [key for key in only.split(",") if key]
    unknown = [key for key in threats if key not in taxonomy.THREATS]
    if unknown:
        raise ValueError(f"unknown threats {unknown}; expected from "
                         f"{sorted(taxonomy.THREATS)}")
    if not threats:
        raise ValueError("empty campaign -- no threats selected")
    return threats


def _print_listing(headers, rows, title) -> int:
    """The one table-formatting path shared by every catalogue-style
    listing (``experiments --list``, ``sweep --list-presets``)."""
    print(format_table(headers, rows, title=title))
    return 0


def _pm(value: float, std: float, replicates: int, digits: int = 3) -> str:
    """``mean±std`` when replicated, plain value otherwise."""
    if replicates > 1:
        return f"{round(value, digits)}±{round(std, digits)}"
    return str(round(value, digits))


def _replicates(args) -> int:
    """``--seed-replicates`` for the campaign commands (one by default;
    sweeps default to their spec's count instead)."""
    return 1 if args.seed_replicates is None else args.seed_replicates


def _run_catalogue(args):
    """Run ``catalogue [--only]`` on the engine the flags select:
    ``(runner, outcomes, bench label, bench metrics)``."""
    threats = _parse_only(args.only)
    runner = _make_runner(args)
    outcomes = run_threat_catalogue(_base_config(args), threats=threats,
                                    seed_replicates=_replicates(args),
                                    runner=runner)
    label = f"catalogue[{args.only}]" if args.only else "catalogue"
    return runner, outcomes, label, _catalogue_metrics(outcomes)


def _run_matrix(args, mechanism):
    """Run ``matrix [mechanism]``: ``(runner, cells, label, metrics)``."""
    if mechanism is not None and mechanism not in taxonomy.MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}; expected "
                         f"from {sorted(taxonomy.MECHANISMS)}")
    runner = _make_runner(args)
    cells = run_defense_matrix(
        _base_config(args), mechanisms=[mechanism] if mechanism else None,
        seed_replicates=_replicates(args), runner=runner)
    label = f"matrix[{mechanism}]" if mechanism else "matrix"
    return runner, cells, label, _matrix_metrics(cells)


def _run_sweep(args, target):
    """Run ``sweep <spec|preset>``: ``(runner, result, label, metrics)``."""
    from repro.sweep import SweepEngine

    if target is None:
        raise ValueError("sweep needs a spec file or preset name "
                         "(see 'sweep --list-presets')")
    spec = _resolve_sweep_spec(target, args)
    runner = _make_runner(args)
    result = SweepEngine(runner=runner).run(spec)
    return runner, result, f"sweep[{spec.name}]", _sweep_metrics(result)


def cmd_catalogue(args) -> int:
    runner, outcomes, label, metrics = _run_catalogue(args)
    rows = [[o.threat_key, o.variant, o.metric_name,
             _pm(o.baseline_value, o.baseline_std, o.replicates),
             _pm(o.attacked_value, o.attacked_std, o.replicates),
             "CONFIRMED" if o.effect_present else "no effect"]
            for o in outcomes]
    print(format_table(["threat", "variant", "metric", "baseline",
                        "attacked", "effect"], rows,
                       title="Table II campaign"))
    _print_report(runner, args)
    _append_bench_history(args, label, runner, metrics)
    return 0 if all(o.effect_present for o in outcomes) else 1


def cmd_highway(args) -> int:
    from repro.core.campaign import highway_variants

    runner = _make_runner(args)
    outcomes = run_threat_catalogue(_base_config(args), highway_variants(),
                                    seed_replicates=_replicates(args),
                                    runner=runner)
    rows = [[o.threat_key, o.variant, o.metric_name,
             _pm(o.baseline_value, o.baseline_std, o.replicates),
             _pm(o.attacked_value, o.attacked_std, o.replicates),
             (round(o.impact_ratio, 4) if o.impact_ratio is not None
              else "n/a"),
             "CONFIRMED" if o.effect_present else "no effect"]
            for o in outcomes]
    print(format_table(["threat", "variant", "metric", "baseline",
                        "attacked", "impact ratio", "effect"], rows,
                       title="highway campaign (cross-platoon cells)"))
    if args.observables:
        for outcome in outcomes:
            print(f"{outcome.threat_key}/{outcome.variant}:")
            for key, value in sorted(outcome.attack_observables.items()):
                print(f"  {key} = {value}")
    _print_report(runner, args)
    _append_bench_history(args, "highway", runner,
                          _catalogue_metrics(outcomes))
    # The highway cells measure shared-spectrum impact: every cell must
    # move its headline metric (nonzero, non-degenerate impact ratio).
    ok = all(o.impact_ratio is not None and abs(o.impact_ratio) > 0.0
             for o in outcomes)
    return 0 if ok else 1


def cmd_matrix(args) -> int:
    runner, cells, label, metrics = _run_matrix(args, args.mechanism)
    rows = [[c.mechanism_key, c.threat_key, c.metric_name,
             _pm(c.baseline_value, c.baseline_std, c.replicates),
             _pm(c.attacked_value, c.attacked_std, c.replicates),
             _pm(c.defended_value, c.defended_std, c.replicates),
             round(c.mitigation, 2) if c.mitigation is not None else "n/a"]
            for c in cells]
    print(format_table(["mechanism", "threat", "metric", "baseline",
                        "attacked", "defended", "mitigation"], rows,
                       title="Table III defence matrix"))
    _print_report(runner, args)
    _append_bench_history(args, label, runner, metrics)
    return 0


def cmd_experiment(args) -> int:
    from repro.core.campaign import run_experiment_spec

    spec = _resolve_experiment_spec(args.spec)
    if spec is None:
        return 2
    runner = _make_runner(args)
    run = run_experiment_spec(spec, _base_config(args), runner=runner)
    outcome = run.outcome
    headers = ["experiment", "metric", "baseline", "attacked"]
    row = [spec.display_name, outcome.metric_name,
           round(outcome.baseline_value, 3), round(outcome.attacked_value, 3)]
    if run.defended_value is not None:
        headers += ["defended", "mitigation"]
        row += [round(run.defended_value, 3),
                (round(run.mitigation, 2) if run.mitigation is not None
                 else "n/a")]
    headers.append("effect")
    row.append("CONFIRMED" if outcome.effect_present else "no effect")
    print(format_table(headers, [row],
                       title=f"experiment {spec.display_name} "
                             f"({spec.threat}/{spec.variant})"))
    for key, value in sorted(outcome.attack_observables.items()):
        print(f"  {key} = {value}")
    _print_report(runner, args)
    _append_bench_history(args, f"experiment[{spec.display_name}]", runner,
                          _experiment_metrics(run))
    return 0 if outcome.effect_present else 1


def _resolve_experiment_spec(raw: str):
    """A spec file path or ``<threat>[/variant]`` catalogue reference;
    ``None`` (after printing the error) when neither resolves."""
    from pathlib import Path

    from repro.core.experiment import load_experiment_spec
    from repro.experiments import experiment_spec

    if Path(raw).exists():
        return load_experiment_spec(raw)
    threat, _, variant = raw.partition("/")
    if threat not in taxonomy.THREATS:
        print(f"error: {raw!r} is neither an experiment spec file "
              "nor a '<threat>[/variant]' catalogue reference "
              f"(threats: {sorted(taxonomy.THREATS)})", file=sys.stderr)
        return None
    return experiment_spec(threat, variant or None)


def cmd_falsify(args) -> int:
    from repro.falsify import Falsifier, SearchBudget, write_counterexample

    spec = _resolve_experiment_spec(args.spec)
    if spec is None:
        return 2
    runner = _make_runner(args)
    budget = SearchBudget(episodes=args.episodes,
                          samples_per_round=args.samples_per_round,
                          rounds=args.rounds,
                          descent_passes=args.descent_passes,
                          tighten_grid=args.tighten_grid)
    space_kwargs = {"max_windows": args.max_windows}
    if args.attack_seconds is not None:
        space_kwargs["attack_seconds"] = args.attack_seconds
    if args.tune:
        space_kwargs["tune"] = [name for name in args.tune.split(",") if name]
    falsifier = Falsifier(runner, root_seed=args.seed,
                          log=lambda message: print(f"falsify: {message}",
                                                    file=sys.stderr))
    result = falsifier.falsify(spec, _base_config(args), budget,
                               **space_kwargs)

    rows = [[entry["stage"], entry["schedule"],
             round(entry["severity"], 2), entry["collisions"],
             "VIOLATION" if entry["violated"] else ""]
            for entry in result.history]
    print(format_table(
        ["stage", "schedule", "severity [m]", "collisions", "verdict"],
        rows, title=f"falsification search: {result.spec_name} "
                    f"({result.episodes_used}/{budget.episodes} episodes)"))
    if result.baseline is not None and result.baseline.violated:
        print("baseline episode already violates safety; nothing to "
              "falsify", file=sys.stderr)
        _print_report(runner, args)
        return 2
    if not result.found:
        print("no safety violation found within the episode budget")
        _print_report(runner, args)
        return 1

    outcome = result.counterexample
    print(f"violation found: {outcome.verdict.describe()} "
          f"[{outcome.schedule.label()}]")
    if result.threshold_intensity is not None:
        print(f"violation threshold: ~{result.threshold_intensity:.2f} of "
              "the found schedule's intensity")
    if not args.no_emit:
        entry = write_counterexample(
            args.corpus_dir, result.counterexample_spec(),
            _base_config(args), provenance=result.provenance(),
            name=args.name)
        print(f"counterexample written: {entry.path}/")
        print(f"  replay: platoonsec experiment {entry.spec_path}")
    _print_report(runner, args)
    return 0


def _catalogue_check(ok_line: str) -> int:
    """The one completeness check (taxonomy -> registry -> catalogue)
    behind ``taxonomy`` and ``experiments --validate``."""
    from repro.experiments import check_catalogue_complete

    problems = check_catalogue_complete()
    if problems:
        print("CATALOGUE PROBLEMS:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(ok_line)
    return 0


def cmd_experiments(args) -> int:
    from repro.core.experiment import load_experiment_spec
    from repro.experiments import iter_defense_stacks, iter_experiment_specs

    if args.validate:
        if args.specs:
            failures = []
            for path in args.specs:
                try:
                    spec = load_experiment_spec(path)
                except (OSError, ValueError) as exc:
                    failures.append((path, str(exc)))
                    continue
                print(f"{path}: ok ({spec.display_name})")
            for path, reason in failures:
                print(f"{path}: INVALID -- {reason}", file=sys.stderr)
            return 2 if failures else 0
        return _catalogue_check(
            "catalogue check: every threat, variant and mechanism "
            "resolves through the registry.")
    experiment_rows = [
        [threat, variant, "*" if is_default else "",
         ", ".join(c.key for c in spec.attacks), spec.metric.name]
        for threat, variant, is_default, spec in iter_experiment_specs()]
    _print_listing(["threat", "variant", "default", "attacks", "metric"],
                   experiment_rows, "experiment catalogue (Table II)")
    stack_rows = [
        [mechanism, ", ".join(c.key for c in stack.defenses),
         ", ".join(f"{k}={v}" for k, v in sorted(stack.requirements.items()))
         or "-"]
        for mechanism, stack in iter_defense_stacks()]
    return _print_listing(["mechanism", "defenses", "requirements"],
                          stack_rows, "\ndefence stacks (Table III)")


def _resolve_sweep_spec(spec_arg: str, args):
    """A preset name or spec-file path -> a resolved ``SweepSpec``.

    Raises ``ValueError`` (a usage error, exit 2) when the argument is
    neither.
    """
    from pathlib import Path

    from repro.sweep import PRESETS, load_sweep_spec

    if spec_arg in PRESETS:
        spec = PRESETS[spec_arg]
    elif Path(spec_arg).exists():
        spec = load_sweep_spec(spec_arg)
    else:
        raise ValueError(f"{spec_arg!r} is neither a shipped preset "
                         f"({sorted(PRESETS)}) nor a spec file")
    return spec.resolved(
        root_seed=args.seed,
        seed_replicates=args.seed_replicates,
        base_defaults={"n_vehicles": args.vehicles,
                       "duration": args.duration,
                       "warmup": 10.0, "trucks": args.trucks})


def cmd_sweep(args) -> int:
    from repro.sweep import PRESETS
    from repro.sweep.artifacts import write_sweep_artifacts

    if args.list_presets:
        return _print_listing(
            ["preset", "threat", "axes", "replicates"],
            [[spec.name, spec.threat,
              ", ".join(axis.path for axis in spec.axes),
              spec.seed_replicates]
             for spec in PRESETS.values()],
            "shipped sweep presets")
    runner, result, label, metrics = _run_sweep(args, args.spec)
    spec = result.spec
    rows = []
    for point in result.points:
        rows.append([
            point.label,
            _pm(point.baseline["mean"], point.baseline["std"],
                point.replicates),
            _pm(point.attacked["mean"], point.attacked["std"],
                point.replicates),
            (round(point.impact_ratio["mean"], 2)
             if point.impact_ratio else "n/a"),
            round(point.effect_rate, 2),
            round(point.disband_rate, 2),
            round(point.detection_rate, 2),
        ])
    print(format_table(
        ["point", f"baseline {result.points[0].metric}" if result.points
         else "baseline", "attacked", "impact ratio", "effect rate",
         "disband rate", "detection rate"], rows,
        title=f"sweep {spec.name} ({spec.seed_replicates} replicate(s) "
              f"per point, root seed {spec.root_seed})"))
    for estimate in result.thresholds:
        where = ("never reached" if estimate.crossing is None
                 else f"first crossed at {estimate.crossing:g}")
        print(f"threshold {estimate.response} >= {estimate.level:g}: {where}")
    if args.out_dir is not None:
        paths = write_sweep_artifacts(result, args.out_dir)
        print(f"artifacts: {paths['json']} {paths['csv']}")
    _print_report(runner, args)
    _append_bench_history(args, label, runner, metrics)
    return 0


def cmd_taxonomy(args) -> int:
    print(format_table(
        ["key", "survey", "year"],
        [[s.key, s.authors, s.year] for s in taxonomy.SURVEYS.values()],
        title="Table I -- related surveys"))
    print(format_table(
        ["key", "threat", "compromises", "implementations"],
        [[t.key, t.display_name,
          "/".join(a.value for a in t.compromises),
          ", ".join(t.attack_impls)] for t in taxonomy.THREATS.values()],
        title="\nTable II -- threats"))
    print(format_table(
        ["key", "mechanism", "targets", "implementations"],
        [[m.key, m.display_name, ", ".join(m.attack_targets),
          ", ".join(m.defense_impls)] for m in taxonomy.MECHANISMS.values()],
        title="\nTable III -- mechanisms"))
    return _catalogue_check(
        "\nregistry check: every catalogued row is implemented.")


def cmd_risk(args) -> int:
    from repro.risk import build_platoon_tara, format_risk_report

    print(format_risk_report(build_platoon_tara()))
    return 0


_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _parse_age(text: str) -> float:
    """``"7d"``/``"36h"``/``"90m"``/``"45s"``/plain seconds -> seconds."""
    text = text.strip()
    unit = 1.0
    if text and text[-1].lower() in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1].lower()]
        text = text[:-1]
    try:
        seconds = float(text) * unit
    except ValueError:
        raise ValueError(f"bad age {text!r}; expected a number with an "
                         "optional s/m/h/d suffix (e.g. 7d, 36h)") from None
    if seconds < 0:
        raise ValueError("age must be >= 0")
    return seconds


def cmd_store_stats(args) -> int:
    from repro.store import open_store

    store = open_store(args.url, create=False)
    stats = store.stats()
    print(format_table(["property", "value"], stats.rows(),
                       title=f"result store {store.url()}"))
    if stats.lease_table:
        print(format_table(["key", "owner", "state", "remaining"],
                           stats.lease_rows(),
                           title="\nin-flight leases"))
    return 0


def cmd_store_gc(args) -> int:
    from repro.store import open_store

    older_than = _parse_age(args.older_than) \
        if args.older_than is not None else None
    store = open_store(args.url, create=False)
    before = len(store.keys())
    deleted = store.gc(older_than=older_than)
    print(f"store gc: deleted {len(deleted)} of {before} entries, "
          "purged expired leases"
          + (f" (older than {args.older_than})"
             if args.older_than is not None else ""))
    return 0


def cmd_store_verify(args) -> int:
    from repro.store import open_store

    store = open_store(args.url, create=False)
    report = store.verify()
    if report.ok:
        print(f"store verify: {report.checked} entr(ies) ok in "
              f"{store.url()}")
        return 0
    print(f"store verify: {len(report.problems)} problem(s) in "
          f"{report.checked} entr(ies):", file=sys.stderr)
    for key, reason in report.problems:
        print(f"  {key}: {reason}", file=sys.stderr)
    return 1


def _opt(value, digits: int = 4):
    """Optional-metric cell: ``n/a`` for None, rounded otherwise."""
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return round(value, digits)
    return value


_DETECTION_HEADERS = ["mechanism", "verdicts", "flagged", "flag rate",
                      "TPR", "FPR", "first flag [s]", "missed"]


def _detection_rows(summary: dict) -> list:
    rows = []
    for name, tally in summary["mechanisms"].items():
        rows.append([name, tally["verdicts"], tally["flagged"],
                     _opt(tally["flag_rate"]), _opt(tally["tpr"]),
                     _opt(tally["fpr"]), _opt(tally["time_to_first_flag"]),
                     tally["missed_injections"]])
    totals = summary["totals"]
    rows.append(["(total)", totals["verdicts"], totals["flagged"],
                 _opt(totals["flag_rate"]), _opt(totals["tpr"]),
                 _opt(totals["fpr"]), _opt(totals["time_to_first_flag"]),
                 totals["missed_injections"]])
    return rows


def cmd_detections(args) -> int:
    """Summarize security verdicts from a trace or a campaign run log.

    The input kind is sniffed from the first JSON line: a trace leads
    with a ``format`` header, a run log with ``kind`` events.
    """
    import json

    from repro.obs.security import TRACE_VERDICT_CAP, summarize_trace_verdicts
    from repro.obs.trace import TRACE_FORMAT, load_trace

    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            first_line = fh.readline().strip()
            rest = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        head = json.loads(first_line) if first_line else {}
    except json.JSONDecodeError:
        head = {}

    if isinstance(head, dict) and head.get("format") == TRACE_FORMAT:
        header, records = load_trace(args.path)
        summary = summarize_trace_verdicts(records).summary()
        unit = header.get("spec_key") or args.path
        print(format_table(_DETECTION_HEADERS, _detection_rows(summary),
                           title=f"detection verdicts: trace {unit}"))
        print(f"(trace retention keeps the first {TRACE_VERDICT_CAP} "
              "records per mechanism/verdict pair; aggregate counts in "
              "run logs and metrics are uncapped)")
        return 0

    if isinstance(head, dict) and "kind" in head:
        rows = []
        for line in [first_line] + rest.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            detection = event.get("detection")
            if event.get("kind") != "unit_finished" or not detection:
                continue
            unit_label = (f"{event.get('threat')}/{event.get('variant')}"
                          f" {event.get('mechanism') or '-'}"
                          f" [{event.get('role')}]")
            rows.append([unit_label, detection["verdicts"],
                         detection["flagged"], _opt(detection["flag_rate"]),
                         _opt(detection["tpr"]), _opt(detection["fpr"]),
                         _opt(detection["time_to_first_flag"]),
                         detection["missed_injections"]])
        if not rows:
            print("no unit_finished events carry detection telemetry "
                  "(defence-free campaign, or a pre-detection run log)")
            return 0
        print(format_table(["unit"] + _DETECTION_HEADERS[1:], rows,
                           title=f"detection verdicts: run log {args.path}"))
        return 0

    print(f"error: {args.path} is neither a platoonsec trace "
          "(format header) nor a run log (kind events)", file=sys.stderr)
    return 2


def cmd_tracediff(args) -> int:
    from repro.analysis.tracediff import diff_traces

    try:
        diff = diff_traces(args.trace_a, args.trace_b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(diff.format())
    return 0 if diff.identical else 1


def cmd_bench_compare(args) -> int:
    from repro.obs.history import compare_records, load_history, load_record

    try:
        if args.old is not None and args.new is not None:
            old, new = load_record(args.old), load_record(args.new)
        else:
            history = load_history(args.history)
            if not history:
                raise ValueError(f"history {args.history} is empty")
            if args.old is not None:
                # One file: gate the latest history entry against it.
                old, new = load_record(args.old), history[-1]
            else:
                if args.last < 2:
                    raise ValueError("--last must be >= 2 (comparing an "
                                     "entry against itself is vacuous)")
                if len(history) < args.last:
                    raise ValueError(
                        f"history {args.history} holds {len(history)} "
                        f"record(s); --last {args.last} needs at least "
                        f"{args.last}")
                old, new = history[-args.last], history[-1]
        comparison = compare_records(
            old, new, wall_tolerance=args.wall_tolerance,
            metric_tolerance=args.metric_tolerance,
            expect_speedup=args.expect_speedup)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(comparison.format())
    return 0 if comparison.ok else 1


def cmd_report(args) -> int:
    from repro.obs.report import campaign_report, sweep_report, write_report

    if args.what == "catalogue":
        runner, outcomes, label, metrics = _run_catalogue(args)
        document = campaign_report(
            "Table II campaign", outcomes=outcomes,
            run_report=runner.report(), trace_dir=args.trace_dir)
    elif args.what == "matrix":
        runner, cells, label, metrics = _run_matrix(args, args.target)
        document = campaign_report(
            "Table III defence matrix", cells=cells,
            run_report=runner.report(), trace_dir=args.trace_dir)
    else:                                                   # sweep
        runner, result, label, metrics = _run_sweep(args, args.target)
        document = sweep_report(result, run_report=runner.report(),
                                trace_dir=args.trace_dir)
    _print_report(runner, args)
    path = write_report(args.out, document)
    print(f"report: {path}")
    _append_bench_history(args, label, runner, metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--vehicles", type=int, default=8)
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trucks", action="store_true")
    parser.add_argument("--kernel", choices=("scalar", "vector"),
                        default="scalar",
                        help="simulation kernel: per-vehicle objects "
                             "(scalar, default) or numpy-pooled arrays "
                             "(vector); trace-equivalent by construction")
    parser.add_argument("--fading", choices=("shared", "pairwise"),
                        default="shared",
                        help="fading RNG streams: the legacy shared "
                             "simulator stream (default) or counter-based "
                             "per-pair streams (batchable, registration-"
                             "order independent; changes episode content)")
    parser.add_argument("--workers", type=int, default=1,
                        help="campaign worker-pool size (1 = serial)")
    parser.add_argument("--store", default=None,
                        help="persistent result store URL sqlite:<path> "
                             "(single WAL database, safe for concurrent "
                             "runners)")
    parser.add_argument("--trace-dir", default=None,
                        help="directory for per-unit JSONL episode traces")
    parser.add_argument("--profile", action="store_true",
                        help="enable profiling spans and print the "
                             "aggregated counters/timers")
    parser.add_argument("--report", action="store_true",
                        help="print the per-unit campaign report")
    parser.add_argument("--seed-replicates", type=_positive_int,
                        default=None,
                        help="run every campaign unit / sweep point at N "
                             "derived seeds and report mean±std")
    parser.add_argument("--run-log", default=None,
                        help="stream one JSON event line per run/unit/phase "
                             "transition to this file (defaults to "
                             "run-log.jsonl next to the --store "
                             "database when one is configured)")
    parser.add_argument("--progress", action="store_true",
                        help="force the live stderr progress line "
                             "(auto-enabled only when stderr is a TTY)")
    parser.add_argument("--bench-history", default=None,
                        help="append one platoonsec-bench/1 record per "
                             "campaign/sweep run to this JSONL history "
                             "file (see bench-compare)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalogue", help="run the full Table II campaign")
    p_cat.add_argument("--only", default=None,
                       help="comma-separated threat subset to run")
    p_cat.set_defaults(fn=cmd_catalogue)

    p_highway = sub.add_parser(
        "highway",
        help="run the multi-platoon highway campaign cells",
        epilog="exit codes:\n"
               "  0  every highway cell produced a usable impact ratio\n"
               "  1  some cell's impact ratio was degenerate\n"
               "  2  usage error",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_highway.add_argument("--observables", action="store_true",
                           help="print per-cell attack observables "
                                "(ghost admissions, merge counters, ...)")
    p_highway.set_defaults(fn=cmd_highway)

    p_matrix = sub.add_parser("matrix", help="run the Table III matrix")
    p_matrix.add_argument("mechanism", nargs="?", default=None,
                          choices=sorted(taxonomy.MECHANISMS))
    p_matrix.set_defaults(fn=cmd_matrix)

    p_exp = sub.add_parser("experiment",
                           help="run a declarative experiment spec")
    p_exp.add_argument("spec",
                       help="experiment spec JSON file, or a "
                            "'<threat>[/variant]' catalogue reference")
    p_exp.set_defaults(fn=cmd_experiment)

    p_fals = sub.add_parser(
        "falsify",
        help="search for an attack schedule that violates safety",
        epilog="exit codes:\n"
               "  0  violation found (and emitted unless --no-emit)\n"
               "  1  no violation within the episode budget\n"
               "  2  usage error or unsafe baseline",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_fals.add_argument("spec",
                        help="experiment spec JSON file, or a "
                             "'<threat>[/variant]' catalogue reference")
    p_fals.add_argument("--episodes", type=int, default=48,
                        help="episode budget for the whole search "
                             "(default: %(default)s)")
    p_fals.add_argument("--samples-per-round", type=int, default=8,
                        help="random schedules per sampling round "
                             "(default: %(default)s)")
    p_fals.add_argument("--rounds", type=int, default=3,
                        help="seeded sampling rounds (default: %(default)s)")
    p_fals.add_argument("--descent-passes", type=int, default=4,
                        help="coordinate-descent passes "
                             "(default: %(default)s)")
    p_fals.add_argument("--tighten-grid", type=int, default=5,
                        help="intensity grid points for the tightening "
                             "stage (default: %(default)s)")
    p_fals.add_argument("--max-windows", type=int, default=2,
                        help="most attack windows per schedule "
                             "(default: %(default)s)")
    p_fals.add_argument("--attack-seconds", type=float, default=None,
                        help="attacker budget: total active attack "
                             "seconds (default: the whole post-warmup "
                             "episode)")
    p_fals.add_argument("--tune", default=None,
                        help="comma-separated attack parameters to scale "
                             "(default: every non-zero float parameter)")
    p_fals.add_argument("--corpus-dir", default="tests/corpus",
                        help="where found counterexamples are emitted "
                             "(default: %(default)s)")
    p_fals.add_argument("--name", default=None,
                        help="corpus entry name (default: "
                             "<threat>-<spec hash>)")
    p_fals.add_argument("--no-emit", action="store_true",
                        help="search only; do not write a corpus entry")
    p_fals.set_defaults(fn=cmd_falsify)

    p_exps = sub.add_parser("experiments",
                            help="list or validate the experiment catalogue")
    p_exps.add_argument("specs", nargs="*", default=[],
                        help="spec files to validate (with --validate)")
    p_exps.add_argument("--list", action="store_true",
                        help="list the catalogued experiments and defence "
                             "stacks (the default)")
    p_exps.add_argument("--validate", action="store_true",
                        help="validate the catalogue, or the given spec "
                             "files, without running anything")
    p_exps.set_defaults(fn=cmd_experiments)

    p_sweep = sub.add_parser("sweep",
                             help="run a declarative parameter sweep")
    p_sweep.add_argument("spec", nargs="?", default=None,
                         help="sweep spec JSON file or preset name")
    p_sweep.add_argument("--out-dir", default=None,
                         help="write the platoonsec-sweep/1 JSON + CSV "
                              "artifacts into this directory")
    p_sweep.add_argument("--list-presets", action="store_true",
                         help="list the shipped sweep presets and exit")
    p_sweep.set_defaults(fn=cmd_sweep)

    exit_codes = ("exit codes:\n"
                  "  0  inputs are identical / within tolerance\n"
                  "  1  divergence found\n"
                  "  2  usage error (missing, unreadable or invalid input)")

    p_diff = sub.add_parser("tracediff",
                            help="compare two JSONL episode traces",
                            epilog=exit_codes,
                            formatter_class=argparse.RawDescriptionHelpFormatter)
    p_diff.add_argument("trace_a")
    p_diff.add_argument("trace_b")
    p_diff.set_defaults(fn=cmd_tracediff)

    p_det = sub.add_parser(
        "detections",
        help="summarize security verdicts from a trace or run log",
        epilog="exit codes:\n"
               "  0  summary printed (possibly empty)\n"
               "  2  unreadable or unrecognized input",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_det.add_argument("path",
                       help="JSONL episode trace (verdict records) or "
                            "campaign run log (unit_finished detection "
                            "projections)")
    p_det.set_defaults(fn=cmd_detections)

    p_bench = sub.add_parser(
        "bench-compare",
        help="diff two platoonsec-bench/1 records under drift tolerances",
        epilog=exit_codes,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_bench.add_argument("old", nargs="?", default=None,
                         help="old bench-record JSON file (e.g. a CI "
                              "golden) or JSONL history (its latest "
                              "entry); omit both files to compare "
                              "history entries")
    p_bench.add_argument("new", nargs="?", default=None,
                         help="new bench-record JSON file or JSONL "
                              "history; when omitted, the latest --history "
                              "entry is the new side")
    p_bench.add_argument("--history", default="BENCH_history.jsonl",
                         help="JSONL bench history written by "
                              "--bench-history (default: %(default)s)")
    p_bench.add_argument("--last", type=int, default=2,
                         help="with no record files: compare the Nth-from-"
                              "last history entry against the latest "
                              "(default: %(default)s)")
    p_bench.add_argument("--wall-tolerance", type=float, default=1.0,
                         help="allowed relative wall-time slowdown "
                              "(default: %(default)s, i.e. up to 2x)")
    p_bench.add_argument("--metric-tolerance", type=float, default=0.05,
                         help="allowed relative metric drift, both "
                              "directions (default: %(default)s)")
    p_bench.add_argument("--expect-speedup", type=float, default=None,
                         help="fail unless the new record's wall time is "
                              "at least this factor faster than the old "
                              "one (kernel-bench gate)")
    p_bench.set_defaults(fn=cmd_bench_compare)

    p_report = sub.add_parser(
        "report",
        help="run a campaign/sweep and render a self-contained HTML report")
    p_report.add_argument("what", choices=["catalogue", "matrix", "sweep"],
                          help="what to run and render")
    p_report.add_argument("target", nargs="?", default=None,
                          help="matrix: one mechanism row; sweep: spec "
                               "file or preset name")
    p_report.add_argument("--only", default=None,
                          help="catalogue: comma-separated threat subset")
    p_report.add_argument("--out", default="platoonsec-report.html",
                          help="output HTML path (default: %(default)s)")
    p_report.set_defaults(fn=cmd_report)

    p_store = sub.add_parser(
        "store",
        help="inspect and maintain persistent result stores",
        epilog="store URL: sqlite:<path>",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    store_sub = p_store.add_subparsers(dest="store_cmd", required=True)
    p_sstats = store_sub.add_parser(
        "stats", help="entry/byte/lease counts for one store")
    p_sstats.add_argument("url", help="store URL (sqlite:<path>)")
    p_sstats.set_defaults(fn=cmd_store_stats)
    p_sgc = store_sub.add_parser(
        "gc", help="drop old entries and expired leases")
    p_sgc.add_argument("url", help="store URL (sqlite:<path>)")
    p_sgc.add_argument("--older-than", default=None,
                       help="delete entries older than this age "
                            "(e.g. 7d, 36h, 90m, 3600); with no age, "
                            "only expired leases go")
    p_sgc.set_defaults(fn=cmd_store_gc)
    p_sver = store_sub.add_parser(
        "verify", help="re-check every entry against its content key")
    p_sver.add_argument("url", help="store URL (sqlite:<path>)")
    p_sver.set_defaults(fn=cmd_store_verify)

    sub.add_parser("taxonomy", help="print the machine-readable tables") \
        .set_defaults(fn=cmd_taxonomy)
    sub.add_parser("risk", help="print the TARA risk report") \
        .set_defaults(fn=cmd_risk)

    args = parser.parse_args(argv)
    if args.profile:
        obs.set_profiling(True)
    try:
        return args.fn(args)
    except ValueError as exc:
        # Runner construction errors (unwritable trace/cache dirs) are
        # user errors, not crashes: report and exit with a distinct code.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
