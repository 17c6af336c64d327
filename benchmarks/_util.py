"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables (or one experiment from
the DESIGN.md index) and prints it in the paper's row structure with our
measured columns appended.  Benches run each experiment exactly once
(``benchmark.pedantic(rounds=1)``): the interesting output is the table,
the timing is a by-product.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Callable, Optional, Sequence

from repro.analysis.tables import format_table
from repro.core.scenario import ScenarioConfig

# Structured bench outcomes go to the platoonsec-bench/1 history store
# (repro.obs.history): set REPRO_BENCH_HISTORY to a JSONL path and every
# emitted table appends one schema-versioned record that `python -m repro
# bench-compare` can gate.
BENCH_HISTORY = os.environ.get("REPRO_BENCH_HISTORY") or None

# The REPRO_BENCH_LOG prose log served its one deprecation release and
# is gone; fail loudly (not silently ignore) so CI configs still setting
# it get pointed at the structured replacements.
if os.environ.get("REPRO_BENCH_LOG"):
    raise RuntimeError(
        "REPRO_BENCH_LOG was removed: set REPRO_BENCH_HISTORY=<path.jsonl> "
        "to record structured platoonsec-bench/1 records (gated by "
        "'python -m repro bench-compare'), and REPRO_BENCH_STORE=<url> to "
        "reuse episode results across harness runs")

# The canonical bench scenario: 8 vehicles, 90 simulated seconds, CACC at
# motorway speed -- large enough for string effects, small enough to keep
# the full harness in minutes.
BENCH_CONFIG = ScenarioConfig(n_vehicles=8, duration=90.0, warmup=10.0,
                              seed=2021)

# Campaign-engine knobs for the T2/T3 table benches: REPRO_BENCH_WORKERS
# fans episodes over a process pool, REPRO_BENCH_STORE=sqlite:<path>
# reuses episode results across harness runs.  Everything defaults to
# the plain serial, uncached behaviour so timings stay comparable.
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
BENCH_STORE = os.environ.get("REPRO_BENCH_STORE") or None


def bench_runner():
    """A campaign runner configured from the bench environment knobs."""
    from repro.core.runner import CampaignRunner

    return CampaignRunner(workers=BENCH_WORKERS, store=BENCH_STORE)


def table_metrics(headers: Sequence[str],
                  rows: Sequence[Sequence[Any]]) -> dict:
    """Flatten a bench table into name -> float headline metrics.

    Each row's leading string cells form a ``a/b`` prefix and every
    numeric cell becomes ``prefix.header``; rows whose prefixes collide
    get a ``#rowindex`` suffix so nothing is silently dropped.
    """
    metrics: dict = {}
    for index, row in enumerate(rows):
        labels: list[str] = []
        for cell in row:
            if not isinstance(cell, str):
                break
            labels.append(cell)
        prefix = "/".join(labels) or f"row{index}"
        for header, cell in zip(headers, row):
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                continue
            name = f"{prefix}.{header}"
            if name in metrics:
                name = f"{name}#{index}"
            metrics[name] = float(cell)
    return metrics


def emit(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]],
         notes: Optional[str] = None) -> str:
    """Print a regenerated table (stderr) and record its outcome.

    With ``REPRO_BENCH_HISTORY`` set, the table's numeric cells are
    appended as one ``platoonsec-bench/1`` record to that history file.
    """
    text = format_table(headers, rows, title=f"\n== {title} ==")
    if notes:
        text += f"\n{notes}"
    print(text, file=sys.stderr)
    if BENCH_HISTORY is not None:
        from repro.obs.history import append_history, make_bench_record

        append_history(BENCH_HISTORY, make_bench_record(
            f"bench[{title}]", metrics=table_metrics(headers, rows),
            root_seed=BENCH_CONFIG.seed))
    return text


def run_once(benchmark, fn: Callable[[], Any]) -> Any:
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def fmt(value: Any, digits: int = 3) -> Any:
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return round(value, digits)
    return value
