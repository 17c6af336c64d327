"""The canonical experiment catalogue: Table II/III as declarative data.

``CATALOGUE`` and ``DEFENSE_STACKS`` are the literal-data form of the
paper's canonical experiments; :func:`experiment_spec` and
:func:`defense_stack` resolve them through the component registry into
:class:`~repro.core.experiment.ExperimentSpec` /
:class:`~repro.core.experiment.DefenseStack` objects, which the campaign
planner and the runner's workers build episodes from.
:func:`check_catalogue_complete` checks the whole chain from taxonomy
row to registered component to catalogued experiment.
"""

from repro.experiments.catalog import (
    CATALOGUE,
    DEFENSE_STACKS,
    check_catalogue_complete,
    defense_stack,
    experiment_spec,
    iter_defense_stacks,
    iter_experiment_specs,
    variant_names,
)

__all__ = [
    "CATALOGUE",
    "DEFENSE_STACKS",
    "check_catalogue_complete",
    "defense_stack",
    "experiment_spec",
    "iter_defense_stacks",
    "iter_experiment_specs",
    "variant_names",
]
