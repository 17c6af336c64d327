"""Campaign execution engine: parallel fan-out, memoised episodes, seeds.

The Table II/III campaigns decompose into *experiment units*: single
episodes described declaratively by an :class:`EpisodeSpec` (threat,
variant, role, fully-resolved :class:`ScenarioConfig`, and -- for
defended episodes -- the Table III mechanism key).  The
:class:`CampaignRunner` executes a batch of specs:

* **Fan-out** -- units run on a ``ProcessPoolExecutor`` worker pool
  (``workers=N``); ``N=1`` falls back to a plain serial loop in-process.
* **Memoisation** -- every spec is content-hashed (threat, variant, role,
  mechanism, canonical config JSON); identical units execute exactly
  once per runner and results are shared.  With a ``store`` attached
  (a :class:`~repro.store.SqliteStore` or its ``sqlite:<path>`` URL),
  records persist keyed by spec hash and survive across processes;
  corrupt, stale or misfiled rows -- and a failing store -- are
  treated as cache misses and recomputed, never raised.
* **Unit leases** -- against a shared store, the runner claims an
  in-flight lease per missing unit before computing it.  A unit whose
  lease another live runner holds is *waited for* instead of recomputed
  (its result arrives as a ``"disk"`` hit); a lease whose holder
  crashed expires after its TTL and the waiter takes the unit over.
  Two runners sharing one sqlite store therefore never execute the
  same unit twice.
* **Determinism** -- specs carry an explicit per-experiment seed derived
  via :func:`derive_seed`, so any unit reruns bit-identically in
  isolation, serially or on any worker.
* **Accounting** -- each requested unit yields a :class:`UnitReport`
  (cache hit/miss, source, episode wall time);
  :meth:`CampaignRunner.report` aggregates them into a :class:`RunReport`
  the CLI prints.
* **Observability** -- every computed episode runs against an isolated
  :class:`~repro.obs.registry.MetricsRegistry`; workers serialise the
  snapshot back inside the record and the runner merges snapshots across
  the pool (counters sum, timers merge) into the run report, alongside
  the runner's own per-phase wall time.  With ``trace_dir`` set, each
  computed unit also streams a JSONL trace named by its content hash
  (see :mod:`repro.obs.trace`).
* **Telemetry** -- with a :class:`~repro.obs.telemetry.TelemetryBus`
  attached, the runner emits typed progress events (run/unit
  started/finished with cache provenance and worker pid, phase
  transitions) as the campaign executes; without one, every event site
  is a single predicate check and nothing else changes.

Workers return :class:`EpisodeRecord` -- a slim, JSON-serialisable
projection of a :class:`~repro.core.scenario.ScenarioResult` (metric
fields, attack/defence observables) -- rather than the full result, so
records are cheap to ship between processes and round-trip losslessly
through the disk cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.experiment import ExperimentSpec
from repro.core.scenario import ScenarioConfig, run_episode
from repro.experiments import defense_stack, experiment_spec
from repro.obs import registry as obs
from repro.obs.telemetry import TelemetryBus
from repro.obs.trace import trace_filename
from repro.store import SqliteStore, StoreError, open_store

ROLES = ("baseline", "attacked", "defended")

#: How often (seconds) a runner waiting on another runner's leased unit
#: re-checks the store.
LEASE_POLL_S = 0.05

_SEED_SPACE = 2 ** 32


def derive_seed(root_seed: int, *components: Any) -> int:
    """Derive a per-experiment seed from a root seed and labels.

    The derivation is a SHA-256 of ``root|component|component|...`` taken
    modulo 2**32: stable across processes, platforms and Python versions
    (no reliance on ``hash()``), and sensitive to every component, so
    e.g. ``derive_seed(42, "jamming", "barrage-30dBm")`` names one
    reproducible episode stream forever.
    """
    material = "|".join([str(int(root_seed))] + [str(c) for c in components])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


def derive_replicate_seed(root_seed: int, threat_key: str, variant: str,
                          replicate: int) -> int:
    """Seed for replicate ``r`` of a (threat, variant) experiment.

    Replicate 0 *is* the canonical campaign stream
    (``derive_seed(root, threat, variant)``), so single-replicate sweeps
    and ``--seed-replicates 1`` campaigns reuse -- and share cache
    entries with -- the episodes the plain catalogue runs.  Higher
    replicates draw decorrelated streams.
    """
    if replicate < 0:
        raise ValueError("replicate must be >= 0")
    if replicate == 0:
        return derive_seed(root_seed, threat_key, variant)
    return derive_seed(root_seed, threat_key, variant, "rep", replicate)


def _jsonable(value: Any) -> Any:
    """Coerce a value into plain-JSON types (sets become sorted lists)."""
    if isinstance(value, (set, frozenset)):
        try:
            return sorted(value)
        except TypeError:
            return sorted(value, key=repr)
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()          # numpy scalars
    return str(value)


def _roundtrip(value: Any) -> Any:
    """Normalise nested data through JSON so computed records compare
    equal to records reloaded from the disk cache (tuples -> lists)."""
    return json.loads(json.dumps(value, default=_jsonable))


@dataclass(frozen=True)
class EpisodeSpec:
    """One runnable, hashable experiment unit.

    ``config`` is the fully-resolved scenario configuration (threat
    overrides and mechanism requirements applied, per-experiment seed
    already derived).  Workers rebuild attacks, hooks and defences from
    ``(threat_key, variant, mechanism_key, config)`` alone, so a spec is
    picklable and self-contained.

    ``overrides`` are dotted parameter overrides applied to the rebuilt
    attack/defence instances before the episode runs: ``("attack.X", v)``
    sets attribute ``X`` on every attack exposing it, ``("defense.X", v)``
    likewise on the defences.  Sweeps use them to vary constructor
    parameters (jammer power, ghost count, ...) that live outside the
    scenario config.  They are part of the content hash, so two specs
    differing only in an override are distinct cache entries.

    ``experiment`` optionally carries a canonical
    ``platoonsec-experiment/1`` payload (:meth:`ExperimentSpec.to_dict`).
    When present, workers rebuild the attack list, hooks and defences
    from the payload instead of the threat catalogue -- this is how the
    falsification engine runs arbitrary attack *schedules* (several
    windowed instances of one attack with per-window parameters) through
    the same memoised runner.  A payload spec declaring defence
    components may use role ``"defended"`` with no ``mechanism_key``.
    """

    threat_key: str
    variant: str
    role: str
    config: ScenarioConfig
    mechanism_key: Optional[str] = None
    overrides: tuple = ()
    experiment: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}; expected one of {ROLES}")
        if self.experiment is not None:
            # Normalise through JSON up front so the hash and the worker
            # see exactly what a reloaded spec file would contain.
            object.__setattr__(self, "experiment", _roundtrip(self.experiment))
            if self.role == "defended" and self.mechanism_key is None \
                    and not self.experiment.get("defenses"):
                raise ValueError(
                    "a 'defended' payload spec needs a mechanism_key or "
                    "payload defence components")
            if self.role != "defended" and self.mechanism_key is not None:
                raise ValueError(
                    "mechanism_key requires a 'defended' spec")
        elif (self.role == "defended") != (self.mechanism_key is not None):
            raise ValueError("mechanism_key must be set exactly for 'defended' specs")
        canon = tuple(sorted((str(path), value)
                             for path, value in self.overrides))
        object.__setattr__(self, "overrides", canon)
        for path, _ in canon:
            target, _, attr = path.partition(".")
            if target not in ("attack", "defense") or not attr:
                raise ValueError(
                    f"bad override path {path!r}; expected "
                    "'attack.<param>' or 'defense.<param>'")
            if target == "attack" and self.role == "baseline":
                raise ValueError(
                    f"override {path!r} is meaningless on a baseline spec "
                    "(no attacks are constructed)")
            if target == "defense" and self.role != "defended":
                raise ValueError(
                    f"override {path!r} requires a 'defended' spec")

    @property
    def key(self) -> str:
        """Content hash identifying this unit for memoisation."""
        payload = {
            "threat": self.threat_key,
            "variant": self.variant,
            "role": self.role,
            "mechanism": self.mechanism_key,
            "config": self.config.canonical_dict(),
        }
        # Only hashed when present so pre-sweep spec hashes (and any
        # on-disk caches keyed by them) stay valid.
        if self.overrides:
            payload["overrides"] = [[path, value]
                                    for path, value in self.overrides]
        if self.experiment is not None:
            payload["experiment"] = self.experiment
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def apply_parameter_overrides(attacks: Sequence, defenses: Sequence,
                              overrides: Sequence[tuple]) -> None:
    """Apply dotted ``attack.X``/``defense.X`` overrides in place.

    Every override must land on at least one instance exposing the
    attribute; a miss raises ``ValueError`` (a silent miss would let a
    typo'd sweep axis quietly measure nothing).
    """
    for path, value in overrides:
        target, _, attr = path.partition(".")
        pool = list(attacks) if target == "attack" else list(defenses)
        hits = [obj for obj in pool if hasattr(obj, attr)]
        if not hits:
            kind = "attack" if target == "attack" else "defence"
            raise ValueError(
                f"override {path!r}: no {kind} instance exposes {attr!r} "
                f"(instances: {[type(o).__name__ for o in pool]})")
        for obj in hits:
            setattr(obj, attr, value)


@dataclass
class EpisodeRecord:
    """Slim, JSON-serialisable result of one episode."""

    spec_key: str
    threat_key: str
    variant: str
    role: str
    mechanism_key: Optional[str]
    seed: int
    metrics: dict
    attack_observables: list = field(default_factory=list)
    defense_observables: dict = field(default_factory=dict)
    wall_time: float = 0.0
    # Per-episode observability snapshot (counters/gauges/timers) from
    # the worker's isolated MetricsRegistry; the runner aggregates these
    # across the pool into its run report.
    observability: dict = field(default_factory=dict)
    # DetectionLedger.summary(): per-mechanism + total detection-quality
    # aggregates for the episode's defence stack (empty when undefended).
    detection: dict = field(default_factory=dict)

    def extract_metric(self, name: str) -> float:
        """Headline-metric lookup: metric fields first, then attack
        observables (booleans as 0/1), else 0.0."""
        if name in self.metrics:
            value = self.metrics[name]
            return float(value) if value is not None else 0.0
        for entry in self.attack_observables:
            observables = entry["observables"]
            if name in observables:
                value = observables[name]
                if isinstance(value, bool):
                    return 1.0 if value else 0.0
                return float(value) if value is not None else 0.0
        return 0.0

    def prefixed_observables(self) -> dict:
        out: dict = {}
        for entry in self.attack_observables:
            out.update({f"{entry['attack']}.{k}": v
                        for k, v in entry["observables"].items()})
        return out


def record_from_result(spec: EpisodeSpec, result, wall_time: float,
                       observability: Optional[dict] = None) -> EpisodeRecord:
    """Project a full ScenarioResult down to a cacheable record."""
    return EpisodeRecord(
        spec_key=spec.key,
        threat_key=spec.threat_key,
        variant=spec.variant,
        role=spec.role,
        mechanism_key=spec.mechanism_key,
        seed=spec.config.seed,
        metrics=_roundtrip(dataclasses.asdict(result.metrics)),
        attack_observables=_roundtrip(
            [{"attack": report.attack_name, "observables": dict(report.observables)}
             for report in result.attack_reports]),
        defense_observables=_roundtrip(result.defense_observables),
        wall_time=wall_time,
        observability=_roundtrip(observability or {}),
        detection=_roundtrip(result.detection),
    )


def _execute_spec(spec: EpisodeSpec, trace_dir: Optional[str] = None,
                  profile: bool = False) -> EpisodeRecord:
    """Run one unit (top-level so worker processes can unpickle it).

    The episode runs against a fresh isolated
    :class:`~repro.obs.registry.MetricsRegistry`; its snapshot travels
    back to the parent inside the record.  With ``trace_dir`` set, the
    episode streams a JSONL trace named by the spec's content hash.
    """
    trace_path = (Path(trace_dir) / trace_filename(spec.key)
                  if trace_dir is not None else None)
    obs.set_profiling(profile)
    with obs.isolated_registry() as registry:
        start = time.perf_counter()
        espec = (ExperimentSpec.from_dict(spec.experiment)
                 if spec.experiment is not None
                 else experiment_spec(spec.threat_key, spec.variant))
        experiment = espec.build(spec.config)
        attacks = (experiment.make_attacks()
                   if spec.role != "baseline" else ())
        defenses: Sequence = ()
        if spec.role == "defended":
            defenses = (defense_stack(spec.mechanism_key).build()
                        if spec.mechanism_key is not None
                        else espec.build_defenses(spec.config))
        if spec.overrides:
            apply_parameter_overrides(attacks, defenses, spec.overrides)
        result = run_episode(experiment.config, attacks=attacks,
                             defenses=defenses,
                             setup_hooks=experiment.hooks,
                             trace_path=trace_path,
                             trace_meta={"spec_key": spec.key,
                                         "threat": spec.threat_key,
                                         "variant": spec.variant,
                                         "role": spec.role,
                                         "mechanism": spec.mechanism_key})
        wall = time.perf_counter() - start
        snapshot = registry.snapshot()
    return record_from_result(spec, result, wall, observability=snapshot)


def _execute_spec_worker(spec: EpisodeSpec, trace_dir: Optional[str] = None,
                         profile: bool = False) -> tuple:
    """Pool entry point: tags the record with the executing worker's pid.

    The pid rides back *outside* the record, so telemetry can report
    which worker ran a unit without touching the record (and therefore
    the cache format or its bytes).
    """
    return os.getpid(), _execute_spec(spec, trace_dir, profile)


# --------------------------------------------------------------------------
# Run accounting
# --------------------------------------------------------------------------

@dataclass
class UnitReport:
    """Timing/provenance of one *requested* unit (duplicates included)."""

    key: str
    threat_key: str
    variant: str
    role: str
    mechanism_key: Optional[str]
    cache_hit: bool
    source: str                 # "computed" | "memory" | "disk"
    wall_time: float            # episode compute time (0.0 for hits)


@dataclass
class RunReport:
    """Aggregate view over every unit a runner has executed so far.

    ``counters``/``timers`` aggregate the per-episode observability
    snapshots of every *computed* unit across the worker pool (cache
    hits contribute nothing -- their numbers were counted by whichever
    run computed them).  ``phases`` is the runner's own per-phase wall
    time: hit/miss resolution, episode compute, result bookkeeping.
    """

    workers: int
    units: List[UnitReport] = field(default_factory=list)
    wall_time: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, dict] = field(default_factory=dict)
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        return sum(1 for u in self.units if u.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(1 for u in self.units if not u.cache_hit)

    @property
    def computed(self) -> int:
        return self.cache_misses

    @property
    def episode_time(self) -> float:
        """Total in-worker episode compute time (> wall_time when parallel)."""
        return sum(u.wall_time for u in self.units)

    def summary(self) -> str:
        phases = ", ".join(f"{name} {seconds:.2f}s"
                           for name, seconds in self.phases.items())
        return (f"campaign: {len(self.units)} units "
                f"({self.computed} computed, {self.cache_hits} cache hits) "
                f"in {self.wall_time:.1f}s wall "
                f"({self.episode_time:.1f}s episode time, "
                f"workers={self.workers}"
                + (f"; phases: {phases}" if phases else "") + ")")

    def format(self) -> str:
        from repro.analysis.tables import format_table

        rows = [[u.role, u.threat_key, u.variant, u.mechanism_key or "-",
                 "hit" if u.cache_hit else "miss", u.source,
                 round(u.wall_time, 2)] for u in self.units]
        return format_table(
            ["role", "threat", "variant", "mechanism", "cache", "source",
             "wall [s]"], rows, title="campaign unit report")

    def format_observability(self) -> str:
        """Aggregated cross-worker counters/timers + runner phase times."""
        snap = {"counters": self.counters, "timers": self.timers}
        parts = [obs.format_snapshot(snap, title="campaign observability")]
        if self.phases:
            from repro.analysis.tables import format_table

            parts.append(format_table(
                ["phase", "wall [s]"],
                [[name, round(seconds, 4)]
                 for name, seconds in self.phases.items()],
                title="runner phases"))
        return "\n".join(parts)


# --------------------------------------------------------------------------
# The runner
# --------------------------------------------------------------------------

class CampaignRunner:
    """Executes experiment units with memoisation and optional fan-out.

    Parameters
    ----------
    workers:
        Worker-pool size.  ``1`` (the default) runs everything serially
        in-process; ``N > 1`` fans cache misses out over a
        ``ProcessPoolExecutor``.
    store:
        Optional persistent result store: a
        :class:`~repro.store.SqliteStore` or a ``sqlite:<path>`` URL.
        Corrupt, stale or misfiled rows, and store failures, fall back
        to recomputation -- they never raise.  Against a shared store
        the runner takes per-unit in-flight leases (the store's default
        TTL) so concurrent runners split the work instead of
        duplicating it.
    trace_dir:
        Optional directory for persistent episode traces: every
        *computed* unit writes one JSONL trace named by its content hash
        (cache hits skip the episode, so they write no trace).  The
        directory must be creatable and writable; anything else raises
        ``ValueError`` up front rather than losing traces mid-campaign.
    telemetry:
        Optional :class:`~repro.obs.telemetry.TelemetryBus` receiving
        typed run/unit/phase progress events as the campaign executes.
        ``None`` (the default) is zero-cost: one predicate check per
        event site, no events constructed, and episode results, traces
        and cache entries are byte-identical either way.
    """

    def __init__(self, workers: int = 1,
                 trace_dir: Optional[Union[str, Path]] = None,
                 telemetry: Optional[TelemetryBus] = None,
                 store: Optional[Union[str, SqliteStore]] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.store: Optional[SqliteStore] = \
            open_store(store) if store is not None else None
        self._owner = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        if self.trace_dir is not None:
            try:
                self.trace_dir.mkdir(parents=True, exist_ok=True)
                probe = self.trace_dir / ".write-probe"
                probe.write_text("")
                probe.unlink()
            except OSError as exc:
                raise ValueError(
                    f"trace dir {self.trace_dir} is not writable: "
                    f"{exc}") from None
        self.telemetry = telemetry
        self._memory: Dict[str, EpisodeRecord] = {}
        self._units: List[UnitReport] = []
        self._wall_time = 0.0
        self._obs = obs.MetricsRegistry()
        self._phases: Dict[str, float] = {}

    # ----------------------------------------------------------- telemetry

    def _emit(self, kind: str, **payload) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(kind, **payload)

    @staticmethod
    def _highway_fields(spec: EpisodeSpec) -> dict:
        """Stable per-platoon payload fields for highway units.

        Pure functions of the spec (never of execution state), so serial
        and parallel runs emit byte-identical canonical event streams.
        """
        highway = spec.config.highway
        if highway is None:
            return {}
        return {"platoons": len(highway.platoons),
                "lanes": highway.lanes,
                "background": highway.background_count()}

    def _emit_unit_started(self, spec: EpisodeSpec) -> None:
        self._emit("unit_started", unit=spec.key, threat=spec.threat_key,
                   variant=spec.variant, role=spec.role,
                   mechanism=spec.mechanism_key,
                   **self._highway_fields(spec))

    def _emit_unit_finished(self, spec: EpisodeSpec, source: str,
                            wall_time: float,
                            worker: Optional[int] = None,
                            record: Optional[EpisodeRecord] = None) -> None:
        # Cache provenance names the store the record lives in.  The
        # field is volatile (like worker pids): canonical run logs stay
        # byte-identical with and without a store, so the store-parity
        # CI gate can cmp a sqlite: run against a store-less one.
        extra = self._highway_fields(spec)
        if self.store is not None:
            extra["store"] = self.store.backend
        # Detection-quality projection: derived from simulator state only,
        # so (unlike wall times / worker ids) it is NOT volatile -- the
        # fields survive into canonical run logs and are byte-identical
        # across kernels, worker counts and with or without a store.
        totals = (record.detection or {}).get("totals") if record else None
        if totals:
            extra["detection"] = {
                "verdicts": totals["verdicts"],
                "flagged": totals["flagged"],
                "flag_rate": totals["flag_rate"],
                "tpr": totals["tpr"],
                "fpr": totals["fpr"],
                "time_to_first_flag": totals["time_to_first_flag"],
                "missed_injections": totals["missed_injections"],
            }
        self._emit("unit_finished", unit=spec.key, threat=spec.threat_key,
                   variant=spec.variant, role=spec.role,
                   mechanism=spec.mechanism_key, source=source,
                   cache_hit=source != "computed", wall_time=wall_time,
                   worker=worker, **extra)

    # ----------------------------------------------------------- execution

    def run(self, specs: Sequence[EpisodeSpec]) -> Dict[str, EpisodeRecord]:
        """Execute a batch of units; return records keyed by spec hash.

        Every requested spec produces one :class:`UnitReport`; duplicate
        and previously-seen specs are cache hits.  The returned mapping
        covers every distinct key in ``specs``.
        """
        batch_start = time.perf_counter()
        requested = [(spec.key, spec) for spec in specs]
        distinct = len({key for key, _ in requested})
        self._emit("run_started", requested=len(requested),
                   distinct=distinct, workers=self.workers,
                   store=(self.store.backend if self.store is not None
                          else None))

        # Resolve hits and collect distinct misses in request order.
        phase_start = time.perf_counter()
        self._emit("phase_started", phase="resolve")
        to_compute: List[tuple] = []
        sources: Dict[str, str] = {}
        for key, spec in requested:
            if key in sources:
                continue
            if key in self._memory:
                sources[key] = "memory"
            else:
                record = self._load_cached(key)
                if record is not None:
                    self._memory[key] = record
                    sources[key] = "disk"
                else:
                    sources[key] = "computed"
                    to_compute.append((key, spec))
                    continue
            # Cache hits resolve instantly: start and finish back to back.
            self._emit_unit_started(spec)
            self._emit_unit_finished(spec, sources[key], 0.0,
                                     record=self._memory[key])
        elapsed = time.perf_counter() - phase_start
        self._add_phase("resolve", elapsed)
        self._emit("phase_finished", phase="resolve", wall_time=elapsed)

        phase_start = time.perf_counter()
        self._emit("phase_started", phase="compute")
        computed, external = self._compute(to_compute)
        elapsed = time.perf_counter() - phase_start
        self._add_phase("compute", elapsed)
        self._emit("phase_finished", phase="compute", wall_time=elapsed)

        phase_start = time.perf_counter()
        self._emit("phase_started", phase="record")
        # Units another runner computed (shared-store lease hand-off)
        # arrived from the store: account them as disk hits.
        for key in external:
            sources[key] = "disk"
        for key, record in computed.items():
            self._memory[key] = record
            # Aggregate per-episode observability across the pool --
            # units computed *here* only, so cache hits (including
            # lease hand-offs) never double-count.
            if key not in external and record.observability:
                self._obs.merge_snapshot(record.observability)

        seen: set = set()
        for key, spec in requested:
            first_request = key not in seen
            seen.add(key)
            source = sources[key] if first_request else "memory"
            is_hit = source != "computed" or not first_request
            record = self._memory[key]
            wall = record.wall_time if (source == "computed" and first_request) \
                else 0.0
            self._units.append(UnitReport(
                key=key, threat_key=spec.threat_key, variant=spec.variant,
                role=spec.role, mechanism_key=spec.mechanism_key,
                cache_hit=is_hit, source=source, wall_time=wall))
        elapsed = time.perf_counter() - phase_start
        self._add_phase("record", elapsed)
        self._emit("phase_finished", phase="record", wall_time=elapsed)

        batch_wall = time.perf_counter() - batch_start
        self._wall_time += batch_wall
        computed_here = len(to_compute) - len(external)
        self._emit("run_finished", requested=len(requested),
                   distinct=distinct, computed=computed_here,
                   cache_hits=distinct - computed_here,
                   workers=self.workers, wall_time=batch_wall)
        return {key: self._memory[key] for key, _ in requested}

    def _add_phase(self, name: str, seconds: float) -> None:
        self._phases[name] = self._phases.get(name, 0.0) + seconds

    def _compute(self, to_compute: Sequence[tuple]
                 ) -> Tuple[Dict[str, EpisodeRecord], Set[str]]:
        """Resolve every miss: compute it here, or -- against a shared
        store -- wait for the runner whose lease covers it.

        Returns ``(records, external)`` where ``external`` is the subset
        of keys another process computed (they surface as disk hits).
        """
        if not to_compute:
            return {}, set()
        if self.store is None:
            return self._execute_batch(to_compute), set()

        results: Dict[str, EpisodeRecord] = {}
        external: Set[str] = set()
        owned: List[tuple] = []
        waiting: List[tuple] = []
        for key, spec in to_compute:
            status = self._acquire(key)
            if status == "hit":
                record = self._load_cached(key)
                if record is None:
                    # The entry vanished or is corrupt: repair it here.
                    owned.append((key, spec))
                    continue
                results[key] = record
                external.add(key)
                self._emit_unit_started(spec)
                self._emit_unit_finished(spec, "disk", 0.0, record=record)
            elif status == "acquired":
                owned.append((key, spec))
            else:                                               # held
                waiting.append((key, spec))

        results.update(self._execute_batch(owned))

        # Poll leased-out units: reuse results as they land; take over
        # any unit whose holder's lease expired (crashed runner).
        while waiting:
            progressed = False
            still: List[tuple] = []
            takeover: List[tuple] = []
            for key, spec in waiting:
                record = self._load_cached(key)
                if record is not None:
                    results[key] = record
                    external.add(key)
                    self._emit_unit_started(spec)
                    self._emit_unit_finished(spec, "disk", 0.0, record=record)
                    progressed = True
                    continue
                status = self._acquire(key)
                if status == "acquired":
                    takeover.append((key, spec))
                    progressed = True
                else:
                    still.append((key, spec))
            if takeover:
                results.update(self._execute_batch(takeover))
            waiting = still
            if waiting and not progressed:
                time.sleep(LEASE_POLL_S)
        return results, external

    def _execute_batch(self, to_compute: Sequence[tuple]
                       ) -> Dict[str, EpisodeRecord]:
        """Compute a batch locally (serial or pooled), persisting each
        record -- and releasing its lease -- as it completes."""
        if not to_compute:
            return {}
        trace_dir = str(self.trace_dir) if self.trace_dir is not None else None
        profile = obs.profiling_enabled()
        results: Dict[str, EpisodeRecord] = {}
        try:
            if self.workers == 1 or len(to_compute) == 1:
                for key, spec in to_compute:
                    self._emit_unit_started(spec)
                    record = _execute_spec(spec, trace_dir, profile)
                    results[key] = record
                    self._store_cached(key, record)
                    self._emit_unit_finished(spec, "computed",
                                             record.wall_time,
                                             worker=os.getpid(),
                                             record=record)
                return results
            specs_by_key = dict(to_compute)
            pool_size = min(self.workers, len(to_compute))
            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                futures = {}
                for key, spec in to_compute:
                    futures[pool.submit(_execute_spec_worker, spec,
                                        trace_dir, profile)] = key
                    self._emit_unit_started(spec)
                pending = set(futures)
                while pending:
                    done, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                    for future in done:
                        key = futures[future]
                        worker, record = future.result()
                        results[key] = record
                        self._store_cached(key, record)
                        self._emit_unit_finished(specs_by_key[key],
                                                 "computed",
                                                 record.wall_time,
                                                 worker=worker,
                                                 record=record)
            return results
        finally:
            # A failed episode must not leave its lease pinned until
            # the TTL: release every claim we did not convert into a
            # stored record (storing releases the lease itself).
            if self.store is not None:
                for key, _ in to_compute:
                    if key not in results:
                        self._release(key)

    # ------------------------------------------------------- result store

    def _acquire(self, key: str) -> str:
        try:
            return self.store.acquire(key, self._owner)
        except StoreError:
            # A broken store must never stall the campaign: compute.
            return "acquired"

    def _release(self, key: str) -> None:
        try:
            self.store.release(key, self._owner)
        except StoreError:
            pass

    def _load_cached(self, key: str) -> Optional[EpisodeRecord]:
        if self.store is None:
            return None
        try:
            raw = self.store.load(key)
        except StoreError:
            return None
        if raw is None:
            return None
        try:
            field_names = [f.name for f in dataclasses.fields(EpisodeRecord)]
            return EpisodeRecord(**{name: raw[name] for name in field_names})
        except (KeyError, TypeError):
            return None

    def _store_cached(self, key: str, record: EpisodeRecord) -> None:
        if self.store is None:
            return
        try:
            self.store.store(key, dataclasses.asdict(record))
        except StoreError:
            pass

    # ---------------------------------------------------------- reporting

    def report(self) -> RunReport:
        snap = self._obs.snapshot()
        return RunReport(workers=self.workers, units=list(self._units),
                         wall_time=self._wall_time,
                         counters=snap["counters"],
                         timers=snap["timers"],
                         phases=dict(self._phases))
