#!/usr/bin/env python3
"""Run the full Table II attack campaign against a freight platoon.

This is the paper's Table II turned into an experiment: every catalogued
threat executed against the same 8-truck motorway platoon, reporting the
compromised security attribute and the measured impact vs baseline.

The campaign executes through the parallel campaign engine: use
``--workers N`` to fan episodes over a process pool and ``--store
sqlite:<path>`` to reuse episode results across invocations (identical
results either way, thanks to per-experiment seed derivation).

With ``--spec FILE`` the campaign instead runs one declarative
``platoonsec-experiment/1`` spec (see ``examples/specs/``) against the
same freight platoon, on the same engine -- new experiments are JSON,
not code.

Usage::

    python examples/attack_campaign.py [--quick] [--workers N]
                                       [--store URL] [--spec FILE]
"""

import argparse

from repro import ScenarioConfig
from repro.analysis.tables import format_table
from repro.core import taxonomy
from repro.core.campaign import run_experiment_spec, run_threat_catalogue
from repro.core.experiment import load_experiment_spec
from repro.core.runner import CampaignRunner


def run_spec(spec_path: str, config: ScenarioConfig,
             runner: CampaignRunner) -> None:
    """Run one declarative experiment spec against the freight platoon."""
    spec = load_experiment_spec(spec_path)
    run = run_experiment_spec(spec, config, runner=runner)
    outcome = run.outcome
    row = [spec.display_name, outcome.metric_name,
           round(outcome.baseline_value, 3),
           round(outcome.attacked_value, 3),
           ("-" if run.defended_value is None
            else round(run.defended_value, 3)),
           "CONFIRMED" if outcome.effect_present else "no effect"]
    print(format_table(
        ["Experiment", "Metric", "Baseline", "Attacked", "Defended",
         "Paper claim"],
        [row], title=f"declarative experiment ({spec_path})"))
    for key, value in sorted(outcome.attack_observables.items()):
        print(f"  {key} = {value}")
    print(f"\n{runner.report().summary()}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="shorter episodes (smoke-test mode)")
    parser.add_argument("--workers", type=int, default=1,
                        help="campaign worker-pool size (1 = serial)")
    parser.add_argument("--store", default=None,
                        help="persistent result store URL "
                             "(sqlite:<path>)")
    parser.add_argument("--spec", default=None,
                        help="run one platoonsec-experiment/1 spec file "
                             "instead of the full catalogue")
    args = parser.parse_args()

    config = ScenarioConfig(
        n_vehicles=8, trucks=True, initial_speed=24.0,
        duration=60.0 if args.quick else 100.0,
        warmup=10.0, seed=42)

    runner = CampaignRunner(workers=args.workers, store=args.store)
    if args.spec is not None:
        run_spec(args.spec, config, runner)
        return

    print(f"running {len(taxonomy.THREATS)} attack experiments "
          f"({config.duration:.0f}s episodes, trucks at "
          f"{config.initial_speed * 3.6:.0f} km/h, "
          f"workers={args.workers})...\n")

    outcomes = run_threat_catalogue(config, runner=runner)

    rows = []
    for outcome in outcomes:
        threat = taxonomy.THREATS[outcome.threat_key]
        ratio = outcome.impact_ratio
        rows.append([
            threat.display_name,
            "/".join(a.value[:5] for a in threat.compromises),
            outcome.metric_name,
            round(outcome.baseline_value, 3),
            round(outcome.attacked_value, 3),
            f"{ratio:.1f}x" if ratio is not None else "new",
            "CONFIRMED" if outcome.effect_present else "no effect",
        ])
    print(format_table(
        ["Threat (Table II)", "Attribute", "Metric", "Baseline", "Attacked",
         "Impact", "Paper claim"],
        rows, title="Canonical platoon attack campaign"))

    confirmed = sum(1 for o in outcomes if o.effect_present)
    print(f"\n{runner.report().summary()}")
    print(f"{confirmed}/{len(outcomes)} catalogued effects reproduced.")
    if args.quick and confirmed < len(outcomes):
        print("(--quick episodes are too short for the join/replay "
              "experiments; run without --quick for the full campaign.)")


if __name__ == "__main__":
    main()
