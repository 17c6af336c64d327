"""Persistent episode traces: schema-versioned JSONL, one file per unit.

The paper's threat narratives (Table II) are claims about *sequences of
events* -- replay-induced oscillation, Sybil ghost joins, jamming-driven
disbands.  In-memory, those sequences live in the episode's
:class:`~repro.events.EventLog` and die with it; a surprising campaign
verdict cannot be inspected after the fact.  A trace fixes that: the
full event log plus periodic channel/MAC/platoon/controller samples,
streamed to one compact JSONL file per campaign unit, named by the
unit's content hash.

File layout
-----------
Line 1 is a header object::

    {"format": "platoonsec-trace/1", "schema_version": 1,
     "spec_key": ..., "threat": ..., "variant": ..., "role": ...,
     "mechanism": ..., "seed": ..., "config_hash": ...,
     "sample_period": ..., "n_records": N}

Every subsequent line (the *body*) is one record, sorted by simulation
time, either an event::

    {"t": 11.0, "type": "event", "kind": "platoon_disband",
     "source": "veh1", "data": {"reason": "comm_loss"}}

or a periodic sample::

    {"t": 10.0, "type": "sample", "channel": {...}, "mac": {...},
     "platoon": {...}, "controller": {...}}

Everything in the body is derived from simulator state only -- no wall
clocks, no pids -- so for a fixed seed the body is *byte-identical*
across runs, worker counts and processes.  That is what turns
"serial vs parallel bit-identical" from an opaque assert into a
byte-level diff (see :mod:`repro.analysis.tracediff`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    from repro.core.scenario import Scenario

TRACE_FORMAT = "platoonsec-trace/1"
# 1: events + samples; 2: adds "verdict" records (security-verdict
# stream from repro.obs.security, capped per (mechanism, verdict)).
SCHEMA_VERSION = 2

#: Default sampling period [simulated seconds]; coarse enough to keep a
#: 90 s episode's trace in the tens of kilobytes.
DEFAULT_SAMPLE_PERIOD = 1.0


def trace_filename(spec_key: str) -> str:
    """Canonical trace filename for a campaign unit's content hash."""
    return f"{spec_key}.trace.jsonl"


def _dumps(obj: dict) -> str:
    """Canonical, compact, key-sorted JSON -- byte-stable by seed."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TraceRecorder:
    """Samples a running scenario; pairs with :func:`write_trace`.

    Attach before ``scenario.run()``: installs a periodic sampler on the
    scenario's simulator that captures channel counters, aggregate MAC
    state, platoon membership health and leader/controller state at each
    tick.  After the run, :meth:`records` merges the samples with the
    scenario's event log into one time-sorted record list.
    """

    def __init__(self, scenario: "Scenario",
                 sample_period: float = DEFAULT_SAMPLE_PERIOD) -> None:
        self.scenario = scenario
        self.sample_period = sample_period
        self._samples: list[dict] = []
        self._proc = scenario.sim.every(sample_period, self._sample,
                                        initial_delay=sample_period)

    def _sample(self) -> None:
        scenario = self.scenario
        now = scenario.sim.now
        ch = scenario.channel.stats
        mac = {"enqueued": 0, "sent": 0, "dropped": 0, "backoffs": 0}
        degraded = members = fragments = 0
        platoon_ids = set()
        for vehicle in scenario.platoon_vehicles:
            stats = vehicle.radio.mac.stats
            mac["enqueued"] += stats.enqueued
            mac["sent"] += stats.sent
            mac["dropped"] += (stats.dropped_queue_full
                               + stats.dropped_retry_limit)
            mac["backoffs"] += stats.total_backoffs
            if vehicle.degraded:
                degraded += 1
            if vehicle.state.in_platoon:
                members += 1
                if vehicle.state.platoon_id is not None:
                    platoon_ids.add(vehicle.state.platoon_id)
        fragments = len(platoon_ids)
        leader = scenario.leader
        with scenario.world.frozen():
            gaps = [scenario.world.true_gap(v)
                    for v in scenario.platoon_vehicles[1:]]
        gaps = [g for g in gaps if g is not None]
        self._samples.append({
            "t": now,
            "type": "sample",
            "channel": {"tx": ch.transmissions,
                        "delivered": ch.delivered,
                        "lost_noise": ch.lost_noise,
                        "lost_interference": ch.lost_interference,
                        "out_of_range": ch.out_of_range},
            "mac": mac,
            "platoon": {"in_platoon": members,
                        "degraded": degraded,
                        "fragments": fragments},
            "controller": {"leader_speed": leader.speed,
                           "leader_accel": leader.acceleration,
                           "mean_gap": (sum(gaps) / len(gaps)) if gaps
                           else None,
                           "min_gap": min(gaps) if gaps else None},
        })

    def stop(self) -> None:
        self._proc.stop()

    def records(self) -> list[dict]:
        """Events + verdicts + samples, stably sorted by simulation time.

        Verdict records come from the scenario's detection ledger (the
        retained first-N per (mechanism, verdict) pair); the stable sort
        keeps the within-timestamp order events < verdicts < samples.
        """
        merged = [
            {"t": e.time, "type": "event", "kind": e.kind,
             "source": e.source, "data": dict(e.data)}
            for e in self.scenario.events
        ]
        merged.extend(self.scenario.detection_ledger.trace_records())
        merged.extend(self._samples)
        merged.sort(key=lambda record: record["t"])
        return merged


def write_trace(path: Union[str, Path], records: list[dict],
                meta: Optional[dict] = None,
                sample_period: float = DEFAULT_SAMPLE_PERIOD) -> Path:
    """Write a schema-versioned JSONL trace file.

    ``meta`` supplies the unit identity fields for the header
    (spec_key/threat/variant/role/mechanism/seed/config_hash); absent
    keys are written as ``None`` so headers are structurally uniform.
    """
    meta = meta or {}
    header = {
        "format": TRACE_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "spec_key": meta.get("spec_key"),
        "threat": meta.get("threat"),
        "variant": meta.get("variant"),
        "role": meta.get("role"),
        "mechanism": meta.get("mechanism"),
        "seed": meta.get("seed"),
        "config_hash": meta.get("config_hash"),
        "sample_period": sample_period,
        "n_records": len(records),
    }
    path = Path(path)
    lines = [_dumps(header)]
    lines.extend(_dumps(record) for record in records)
    path.write_text("\n".join(lines) + "\n")
    return path


def load_trace(path: Union[str, Path]) -> tuple[dict, list[dict]]:
    """Read a trace back as ``(header, records)``.

    Unknown formats raise ``ValueError`` rather than guessing; a record
    count mismatching the header means a truncated write and also raises.
    """
    text = Path(path).read_text()
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError(f"empty trace file: {path}")
    header = json.loads(lines[0])
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"unsupported trace format: {header.get('format')!r}")
    records = [json.loads(line) for line in lines[1:]]
    if header.get("n_records") != len(records):
        raise ValueError(
            f"truncated trace {path}: header promises "
            f"{header.get('n_records')} records, found {len(records)}")
    return header, records


def trace_body_bytes(path: Union[str, Path]) -> bytes:
    """The body of a trace file (everything after the header line).

    This is the unit of the byte-identity guarantee: two runs of the
    same episode at the same seed produce equal bodies regardless of
    worker count, process or wall clock.
    """
    data = Path(path).read_bytes()
    newline = data.index(b"\n")
    return data[newline + 1:]
