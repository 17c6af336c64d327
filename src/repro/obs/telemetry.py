"""Run telemetry: a structured event bus for campaign execution.

While a campaign runs, the :class:`~repro.core.runner.CampaignRunner`
(and the sweep engine on top of it) emits typed progress events -- run
started/finished, unit started/finished with cache provenance and worker
id, phase transitions -- to a :class:`TelemetryBus`.  The bus fans each
event out to pluggable sinks:

* :class:`JsonlRunLogSink` -- one JSON line per event, written as the
  run progresses (the ``run-log.jsonl`` the CLI drops next to the
  episode cache);
* :class:`ProgressSink` -- a live one-line stderr progress display
  (units done, compute/cache split, rate, ETA) that auto-disables when
  the stream is not a TTY;
* any user sink implementing :class:`TelemetrySink`.

Telemetry is strictly observational and zero-cost when disabled: a
runner without a bus (or a bus without sinks) takes one predicate check
per event site and touches nothing else, so traces, cache entries and
campaign outcomes are byte-identical with telemetry on or off.

Determinism contract
--------------------
Event *payloads* split into stable fields (unit identity, cache source,
worker counts) and volatile fields (wall times, timestamps, worker
pids, sequence numbers).  :func:`canonical_events` projects the volatile
fields away and sorts records into a canonical order, so for a fixed
(spec, seed, workers) the canonical run log is byte-identical across
serial and parallel runs -- the same guarantee the trace layer provides
for episode bodies.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, TextIO, Union

RUN_LOG_FORMAT = "platoonsec-runlog/1"

#: Every event kind the bus accepts, in canonical sort order.
EVENT_KINDS = (
    "run_started",
    "phase_started",
    "phase_finished",
    "unit_started",
    "unit_finished",
    "run_finished",
)

#: Payload fields that describe scheduling/infrastructure rather than
#: work (wall clocks, pids, emission order, pool size, whether a result
#: store served a record) and are stripped by
#: :func:`canonical_events`.  ``store`` is volatile by design: the CI
#: store-parity gate ``cmp``s a ``sqlite:``-backed run's canonical log
#: against a store-less one.
VOLATILE_FIELDS = frozenset({"seq", "ts", "wall_time", "worker", "workers",
                             "store"})

_KIND_RANK = {kind: rank for rank, kind in enumerate(EVENT_KINDS)}


@dataclass(frozen=True)
class TelemetryEvent:
    """One typed progress event: kind, emission order, wall clock, data."""

    kind: str
    seq: int
    ts: float
    payload: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        """Flat plain-JSON view (what the run-log sink writes)."""
        record = {"kind": self.kind, "seq": self.seq,
                  "ts": round(self.ts, 6)}
        record.update(self.payload)
        return record


class TelemetrySink:
    """Base sink: receives every event, closes with the bus."""

    def handle(self, event: TelemetryEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:                       # pragma: no cover - trivial
        pass


class TelemetryBus:
    """Fans typed run events out to zero or more sinks.

    With no sinks the bus is inert: :meth:`emit` returns immediately
    without allocating an event, so an always-constructed bus costs one
    truthiness check per event site.
    """

    def __init__(self, sinks: Sequence[TelemetrySink] = ()) -> None:
        self._sinks: List[TelemetrySink] = list(sinks)
        self._seq = 0

    @property
    def enabled(self) -> bool:
        return bool(self._sinks)

    @property
    def sinks(self) -> tuple:
        return tuple(self._sinks)

    def subscribe(self, sink: TelemetrySink) -> TelemetrySink:
        self._sinks.append(sink)
        return sink

    def emit(self, kind: str, **payload) -> Optional[TelemetryEvent]:
        """Emit one event to every sink; no-op without sinks."""
        if not self._sinks:
            return None
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown telemetry event kind {kind!r}; "
                             f"expected one of {EVENT_KINDS}")
        event = TelemetryEvent(kind=kind, seq=self._seq, ts=time.time(),
                               payload=payload)
        self._seq += 1
        for sink in self._sinks:
            sink.handle(event)
        return event

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


# --------------------------------------------------------------------------
# Sinks
# --------------------------------------------------------------------------

class RecordingSink(TelemetrySink):
    """Keeps every event in memory (tests, ad-hoc introspection)."""

    def __init__(self) -> None:
        self.events: List[TelemetryEvent] = []

    def handle(self, event: TelemetryEvent) -> None:
        self.events.append(event)


class JsonlRunLogSink(TelemetrySink):
    """Streams events to a JSONL run log, one canonical line per event.

    The file is truncated at construction (one log per run), flushed per
    event so a crashed campaign still leaves its progress behind.  An
    unwritable path raises ``ValueError`` up front -- a user error,
    matching the runner's cache/trace-dir behaviour.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh: Optional[TextIO] = open(self.path, "w",
                                              encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"run log {self.path} is not writable: "
                             f"{exc}") from None

    def handle(self, event: TelemetryEvent) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(event.to_record(), sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class ProgressSink(TelemetrySink):
    """Live single-line progress display for interactive runs.

    Tracks units done vs planned, the computed/cache-hit split, the unit
    completion rate and an ETA, redrawn in place on ``unit_finished``.
    Auto-disabled when the stream is not a TTY (``enabled=None``), so
    piped and CI output stays clean; pass ``enabled=True`` to force.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 enabled: Optional[bool] = None,
                 min_interval: float = 0.1) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            isatty = getattr(self.stream, "isatty", None)
            enabled = bool(isatty()) if callable(isatty) else False
        self.enabled = enabled
        self.min_interval = min_interval
        self._total = 0
        self._done = 0
        self._computed = 0
        self._hits = 0
        self._started: Optional[float] = None
        self._last_draw = 0.0
        self._last_width = 0

    def handle(self, event: TelemetryEvent) -> None:
        if not self.enabled:
            return
        if event.kind == "run_started":
            self._total += int(event.payload.get("distinct", 0))
            if self._started is None:
                self._started = event.ts
        elif event.kind == "unit_finished":
            self._done += 1
            if event.payload.get("cache_hit"):
                self._hits += 1
            else:
                self._computed += 1
            self._draw(event.ts)
        elif event.kind == "run_finished":
            self._draw(event.ts, force=True)
            self.stream.write("\n")
            self.stream.flush()

    def _draw(self, now: float, force: bool = False) -> None:
        if not force and now - self._last_draw < self.min_interval \
                and self._done < self._total:
            return
        self._last_draw = now
        # Zero-duration runs are real (an all-cache-hit batch can finish
        # within one clock tick, and clock skew can even make ``now``
        # precede ``run_started``): a degenerate elapsed must not
        # fabricate a billion-units/s rate or divide anything by ~0.
        elapsed = now - (self._started if self._started is not None
                         else now)
        rate = self._done / elapsed if elapsed > 1e-6 else None
        remaining = max(self._total - self._done, 0)
        rate_text = f"{rate:.1f}" if rate is not None else "?"
        eta = f"{remaining / rate:.0f}s" if rate else "?"
        hit_ratio = self._hits / self._done if self._done else 0.0
        line = (f"[campaign] {self._done}/{self._total} units | "
                f"{self._computed} computed, {self._hits} cache hits "
                f"({hit_ratio:.0%}) | {rate_text} unit/s | ETA {eta}")
        pad = max(self._last_width - len(line), 0)
        self._last_width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()


# --------------------------------------------------------------------------
# Run-log reading and canonicalisation
# --------------------------------------------------------------------------

def load_run_log(path: Union[str, Path]) -> list[dict]:
    """Read a run log back as a list of flat event records."""
    records: list[dict] = []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        if not line:
            continue
        record = json.loads(line)
        if record.get("kind") not in _KIND_RANK:
            raise ValueError(f"{path}:{i + 1}: unknown event kind "
                             f"{record.get('kind')!r}")
        records.append(record)
    return records


def canonical_events(records: Sequence[dict]) -> list[dict]:
    """Project volatile fields away and sort into a canonical order.

    The result is a pure function of what the campaign *did* (units,
    cache provenance, phases, worker count) -- not of scheduling -- so
    serial and parallel runs of the same work canonicalise identically.
    """
    stable = [{key: value for key, value in record.items()
               if key not in VOLATILE_FIELDS} for record in records]
    def sort_key(record: dict) -> tuple:
        return (str(record.get("unit") or ""),
                str(record.get("phase") or ""),
                _KIND_RANK.get(record.get("kind"), len(EVENT_KINDS)),
                json.dumps(record, sort_keys=True))
    return sorted(stable, key=sort_key)


def canonical_run_log_bytes(path: Union[str, Path]) -> bytes:
    """Canonical byte encoding of a run log (the byte-identity unit).

    Two runs of the same spec at the same seed and worker count produce
    equal canonical bytes regardless of scheduling, interleaving or wall
    clock -- CI can ``cmp`` them like trace bodies.
    """
    lines = [json.dumps(record, sort_keys=True, separators=(",", ":"))
             for record in canonical_events(load_run_log(path))]
    return ("\n".join(lines) + "\n").encode("utf-8")
