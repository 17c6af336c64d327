"""platoonsec benchmark: campaign workloads through the real CLI.

Run from the repository root::

    python3 perfbench/run.py --workload crypto-density --seed 42 \
        --seconds 55 --trace 0

``--trace 0`` repeats the workload's ``python -m repro`` commands as fresh
processes for ``--seconds`` and reports the end-to-end metrics over
those iterations.  ``--trace 1`` runs them once untraced and once traced in this
process, with the public functions of every layer wrapped, and reports
the per-layer metrics.  Both check the outputs; the last line of
standard output is one JSON object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Verdict,
    combined_digest,
    fresh_dir,
    run_in_process,
    run_subprocess,
)

#: Every end-to-end metric: (name, unit, which direction is better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("episode_p50_s", "s", "lower"),
    ("parallel_efficiency", "ratio", "higher"),
    ("warm_wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: A timed run repeats its workload at least this often, whatever
#: ``--seconds`` says, so every metric draws on several samples.
MIN_ITERATIONS = 5
#: No iteration starts once the run could not end within this budget.
RUN_LIMIT_S = 110.0
#: Warm reruns per iteration on store workloads.  A warm rerun is a
#: ~12-ms campaign inside a ~0.17-s process, so it is cheap to repeat,
#: and its fastest time needs more samples than one per iteration.
WARM_RERUNS = 3


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_commands(workload, seed: int, work: Path) -> list:
    """Each command's cold pass and, on store workloads, its warm
    reruns, in order, as fresh processes."""
    passes = []
    for index, command in enumerate(workload.commands):
        cwork = fresh_dir(work / f"c{index}")
        argv = command.argv(cwork)
        cold = run_subprocess(ROOT, argv, seed, cwork, "cold")
        warms = [run_subprocess(ROOT, argv, seed, cwork, f"warm{k}")
                 for k in range(WARM_RERUNS if workload.store else 0)]
        passes.append((cold, warms))
    return passes


def check(workload, passes: list, expected: int) -> Verdict:
    """One verdict over every command's passes, in units."""
    units = sum(len(p.finished_units)
                for cold, warms in passes for p in [cold, *warms])
    verdict = Verdict(attempted=max(units, expected, 1))
    for command, (cold, warms) in zip(workload.commands, passes):
        command.check(cold, warms, verdict)
    return verdict


def end_to_end(workload, iterations: list) -> tuple:
    """Each end-to-end metric over the run's iterations, and the number
    of units behind ``episode_p50_s``.

    Every iteration computes the same units.  A unit's *best* time is
    its fastest in-worker compute time over the iterations, and the
    run's *best work* is the sum of those.  The machine's noise comes in
    bursts of a few seconds, shorter than an iteration, so best times
    of single units are much steadier than times of whole commands.  A
    whole-command time is therefore the best work times the median
    ratio, over the iterations, of that time to the iteration's summed
    compute time: ``wall_s`` is best work ÷ (workers ×
    ``parallel_efficiency``), ``cpu_s`` best work × median(CPU ÷ compute).
    Slower episodes raise the best work; more overhead around them, or
    worse overlap, raises the ratio.
    """
    best: dict = {}
    samples = {name: [] for name in ("setup", "eff", "cpu", "warm", "rss")}
    for passes in iterations:
        colds = [cold for cold, _ in passes]
        warms = [warm for _, reruns in passes for warm in reruns]
        work = sum(sum(cold.episode_times) for cold in colds)
        wall = sum(cold.wall_s for cold in colds)
        samples["setup"].append(sum(cold.setup_s for cold in colds))
        samples["rss"].append(max(p.rss_mb for p in colds + warms))
        # One sample per round of reruns, summed over the commands.
        for rerun in zip(*(reruns for _, reruns in passes)):
            samples["warm"].append(sum(warm.wall_s for warm in rerun))
        if work > 0 and wall > 0:
            samples["eff"].append(work / (workload.workers * wall))
            samples["cpu"].append(sum(c.cpu_s for c in colds) / work)
        for index, cold in enumerate(colds):
            for event in cold.finished_units:
                if event.get("source") == "computed":
                    key = (index, event["unit"])
                    best[key] = min(best.get(key, event["wall_time"]),
                                    event["wall_time"])
    best_work = sum(best.values())
    efficiency = _median(samples["eff"])
    wall = best_work / (workload.workers * efficiency) if efficiency else 0.0
    metrics = {
        "setup_s": _median(samples["setup"]),
        "wall_s": wall,
        "cpu_s": best_work * _median(samples["cpu"]),
        "episode_p50_s": _median(best.values()),
        "parallel_efficiency": efficiency,
        # Store workloads rerun against the warm store: a short campaign
        # without episodes, so its fastest rerun is taken.  Without a
        # store a rerun recomputes everything, so it is ``wall_s``.
        "warm_wall_s": min(samples["warm"]) if samples["warm"] else wall,
        "peak_rss_mb": _median(samples["rss"]),
    }
    return metrics, len(best)


def _reference_digest(workload_name: str, seed: int):
    path = HERE / "reference.json"
    if not path.exists():
        return None
    digests = json.loads(path.read_text()).get("digests", {})
    return digests.get(workload_name, {}).get(str(seed))


def timed_run(workload, seed: int, seconds: float) -> dict:
    work = ROOT / ".perfbench" / workload.name
    start = time.monotonic()
    iterations, verdicts, durations = [], [], []
    digest = None
    while True:
        began = time.monotonic()
        passes = run_commands(workload, seed, work)
        verdict = check(workload, passes, max(
            (v.attempted for v in verdicts), default=0))
        durations.append(time.monotonic() - began)
        if digest is None:
            digest = combined_digest(passes)
        elif combined_digest(passes) != digest:
            verdict.fail(verdict.attempted,
                         "outputs changed between repetitions")
        iterations.append(passes)
        verdicts.append(verdict)
        elapsed = time.monotonic() - start
        next_end = elapsed + _median(durations)
        if len(iterations) >= MIN_ITERATIONS and next_end > seconds \
                or next_end > RUN_LIMIT_S:
            break
    metrics, samples = end_to_end(workload, iterations)
    return {"metrics": metrics,
            "units": {name: unit for name, unit, _ in END_TO_END},
            "verdicts": verdicts, "digest": digest,
            "notes": [f"{len(iterations)} iterations in "
                      f"{time.monotonic() - start:.1f} s",
                      f"{samples} units per iteration"]}


def _unit_wait(events: list) -> float:
    """Summed queueing of computed units: finished - started - compute."""
    started, wait = {}, 0.0
    for event in events:
        if event["kind"] == "unit_started":
            started[event["unit"]] = event["ts"]
        elif event["kind"] == "unit_finished" \
                and event.get("source") == "computed":
            wait += event["ts"] - started[event["unit"]] - event["wall_time"]
    return wait


def _traced_passes(workload, seed: int, work: Path, workers, episode: bool,
                   warm: bool) -> tuple:
    """Run every command of the workload in this process with the
    campaign-side layers, and optionally the episode layers, wrapped."""
    from repro.obs import registry as obs

    tracer, patches = tracing.Tracer(), tracing.Patches()
    runners = tracing.install_parent(tracer, patches)
    if episode:
        tracing.install_episode(tracer, patches)
    obs.get_registry().reset()
    passes = []
    try:
        for index, command in enumerate(workload.commands):
            cwork = fresh_dir(work / f"c{index}")
            argv = command.argv(cwork, workers)
            cold = run_in_process(argv, seed, cwork, "cold")
            reruns = [run_in_process(argv, seed, cwork, "warm0")] \
                if warm else []
            passes.append((cold, reruns))
    finally:
        patches.undo()
    timers = obs.get_registry().snapshot()["timers"]
    return tracer, runners, timers, passes


def _wall(passes: list) -> float:
    return sum(cold.wall_s for cold, _ in passes)


def traced_run(workload, seed: int) -> dict:
    base = ROOT / ".perfbench" / workload.name
    untraced = run_commands(workload, seed, base / "untraced")
    digest = combined_digest(untraced)
    verdicts = [check(workload, untraced, 0)]

    # Campaign-side layers run in this process at the workload's own
    # worker count; episode layers are traced here too when it is serial.
    serial = workload.workers == 1
    parent, runners, timers, traced = _traced_passes(
        workload, seed, base / "traced", None, episode=serial,
        warm=workload.store)
    checked = check(workload, traced, 0)
    if combined_digest(traced) != digest:
        checked.fail(checked.attempted, "traced pass changed the outputs")
    verdicts.append(checked)

    episode, episode_runners = parent, runners
    if not serial:
        # Pool workers are separate processes: trace the same units on
        # a serial replay instead.
        episode, episode_runners, _, replay = _traced_passes(
            workload, seed, base / "replay", 1, episode=True, warm=False)
        replayed = Verdict(attempted=max(1, sum(
            len(cold.finished_units) for cold, _ in replay)))
        if any(cold.rc != 0 for cold, _ in replay) \
                or combined_digest(replay) != digest:
            replayed.fail(replayed.attempted,
                          "serial replay changed the outputs")
        verdicts.append(replayed)

    counters, phases = {}, {}
    for runner in episode_runners:
        for name, value in runner.report().counters.items():
            counters[name] = counters.get(name, 0) + value
    for runner in runners:
        for name, value in runner.report().phases.items():
            phases[name] = phases.get(name, 0.0) + value
    wait = sum(_unit_wait(p.events)
               for cold, warms in traced for p in [cold, *warms])
    metrics = tracing.layer_metrics(episode, parent, counters, phases,
                                    timers, wait)
    metrics["trace.overhead"] = (_wall(traced) / _wall(untraced) - 1.0
                                 if _wall(untraced) > 0 else 0.0)

    tracers = {"traced": parent} if serial else {"traced": parent,
                                                 "replay": episode}
    shares = tracing.loop_shares(episode)
    path = ROOT / ".perfbench" / "reports" / f"{workload.name}.layers.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "metrics": metrics,
        "run_until_shares": shares,
        "passes": {name: _aggregates(t) for name, t in tracers.items()},
    }, indent=2, sort_keys=True) + "\n")
    return {"metrics": metrics,
            "units": {name: unit for name, unit, _ in tracing.PER_LAYER},
            "verdicts": verdicts, "digest": digest,
            "notes": [f"per-layer report: {path.relative_to(ROOT)}",
                      "self time as a share of run_until: " + ", ".join(
                          f"{layer} {share:.3f}"
                          for layer, share in shares.items())]}


def _aggregates(tracer) -> dict:
    """A tracer's raw per-layer and per-function sums, for the report."""
    return {
        "layers": {layer: {"entries": tracer.entries[layer],
                           "self_s": tracer.self_time[layer]}
                   for layer in sorted(tracer.self_time)},
        "functions": {label: {"calls": tracer.calls[label],
                              "total_s": tracer.total[label],
                              "errors": tracer.errors[label]}
                      for label in sorted(tracer.calls)},
    }


def report(workload, seed: int, trace: int, result: dict) -> int:
    """Print the run's metrics and checks; the JSON object goes last."""
    verdicts = result["verdicts"]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    if not any(v.attempted > v.failed for v in verdicts):
        print("error: every pass failed; no measurement to report:",
              *[p for v in verdicts for p in v.problems], sep="\n  ",
              file=sys.stderr)
        return 1
    print(f"workload {workload.name}, seed {seed}, trace {trace}: "
          + "; ".join(result["notes"]))
    for name, unit in result["units"].items():
        print(f"  {name} = {result['metrics'][name]:.6g} {unit}")
    print(f"  unit_fail_rate = {failed / attempted:.4g} "
          f"({failed} of {attempted} units)")
    reference = _reference_digest(workload.name, seed)
    print(f"  output digest {result['digest']}"
          + ("" if reference is None else
             f" ({'same as' if reference == result['digest'] else 'CHANGED from'}"
             f" the reference digest {reference[:16]})"))
    for problem in (p for v in verdicts for p in v.problems):
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in result["units"].items()},
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True,
                        help="root seed of every campaign the workload runs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long a timed run repeats the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no platoonsec sources under {ROOT / 'src'}; run "
              "from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        workload = WORKLOADS[name]
        result = (traced_run(workload, args.seed) if args.trace
                  else timed_run(workload, args.seed, args.seconds))
        status = max(status, report(workload, args.seed, args.trace, result))
    return status


if __name__ == "__main__":
    sys.exit(main())
