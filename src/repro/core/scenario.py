"""Scenario construction and episode execution.

A :class:`Scenario` assembles the full stack -- simulator, channel,
(optional) VLC, world, platoon, infrastructure -- from a declarative
:class:`ScenarioConfig`, installs defences and attacks, runs the episode,
and returns a :class:`ScenarioResult` bundling metrics, attack reports and
the event log.

The canonical episode (used by Table II / Table III benches):

* ``n_vehicles`` platoon vehicles pre-formed at cruise speed, the leader
  following a *varying* speed profile (sinusoid) so beacons carry real
  dynamics for the controllers -- and for the attackers to corrupt;
* an optional legitimate joiner approaching from behind (join-latency and
  DoS experiments);
* attacks activating after a warm-up window.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.events import EventLog
from repro.highway.config import HighwayConfig
from repro.obs import registry as obs
from repro.obs.security import DetectionLedger
from repro.obs.trace import TraceRecorder, write_trace
from repro.net.channel import ChannelConfig, RadioChannel
from repro.net.messages import reset_message_seq
from repro.net.simulator import Simulator
from repro.net.vlc import VlcChannel, VlcConfig
from repro.platoon.dynamics import LongitudinalState, VehicleParams
from repro.platoon.vehicle import Vehicle, VehicleConfig
from repro.platoon.world import World
from repro.core.metrics import MetricsCollector, ScenarioMetrics

if TYPE_CHECKING:
    from repro.core.attack import Attack
    from repro.core.defense import Defense
    from repro.infra.authority import TrustedAuthority
    from repro.infra.rsu import RoadsideUnit


@dataclass
class ScenarioConfig:
    """Declarative description of one episode."""

    n_vehicles: int = 8
    seed: int = 42
    duration: float = 100.0
    warmup: float = 10.0
    initial_speed: float = 27.0          # [m/s]
    # Front-bumper to front-bumper start spacing; None = place vehicles at
    # the CACC law's equilibrium gap for the configured speed and length.
    initial_spacing: Optional[float] = None
    start_position: float = 1000.0       # leader's starting coordinate [m]
    cacc_kind: str = "ploeg"
    leader_profile: str = "varying"      # "constant" | "varying"
    speed_amplitude: float = 1.5         # [m/s] sinusoid amplitude
    speed_period: float = 25.0           # [s]
    trucks: bool = False
    max_members: int = 12
    max_pending: int = 4
    with_vlc: bool = False
    with_authority: bool = False
    rsu_positions: tuple = ()
    rsu_coverage: float = 600.0
    joiner: bool = False                 # spawn a legitimate joiner
    joiner_delay: float = 15.0           # when it starts requesting [s]
    joiner_distance: float = 80.0        # behind the tail [m]
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    vehicle: VehicleConfig = field(default_factory=VehicleConfig)
    # Multi-platoon highway layout (repro.highway).  None = the legacy
    # single-platoon episode; when set, ``n_vehicles`` is superseded by
    # the per-platoon sizes and the first platoon becomes the primary
    # one that metrics and legacy attack targets refer to.
    highway: Optional[HighwayConfig] = None
    # "scalar" = per-vehicle Python objects (reference implementation);
    # "vector" = numpy-pooled kinematics + batched control/reception behind
    # the same APIs.  The two are trace-equivalent (tests/kernel/), so the
    # kernel is an execution detail, not part of the episode identity.
    kernel: str = "scalar"

    def __post_init__(self) -> None:
        if self.n_vehicles < 1:
            raise ValueError(f"n_vehicles must be >= 1, got {self.n_vehicles}")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        # Experiment specs, sweeps and JSON files supply the nested
        # configs as plain dicts and the RSU positions as a list; coerce
        # them so every construction path (with_overrides,
        # dataclasses.replace, direct kwargs) yields the typed config.
        if isinstance(self.channel, dict):
            self.channel = ChannelConfig(**self.channel)
        if isinstance(self.vehicle, dict):
            self.vehicle = VehicleConfig(**self.vehicle)
        if isinstance(self.highway, dict):
            self.highway = HighwayConfig(**self.highway)
        if isinstance(self.rsu_positions, list):
            self.rsu_positions = tuple(self.rsu_positions)

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)

    def canonical_dict(self) -> dict:
        """Plain-JSON view of the config (tuples become lists).

        This is the identity the campaign runner content-hashes for
        episode memoisation: two configs with equal canonical dicts
        describe the same episode.  Defaults that don't change the
        episode's stochastic content are stripped so hashes minted
        before those knobs existed stay valid: ``kernel`` (trace-
        equivalent by construction) and the legacy ``fading_streams``
        default (``"pairwise"`` *does* change the streams, so it stays).
        """
        out = json.loads(json.dumps(asdict(self), sort_keys=True))
        # The kernel is trace-equivalent by construction (tests/kernel/),
        # so it is never part of the identity: a cached scalar episode
        # validly answers for the same episode under the vector kernel.
        del out["kernel"]
        if out.get("channel", {}).get("fading_streams") == "shared":
            del out["channel"]["fading_streams"]
        # No highway layout = the legacy single-platoon episode; strip
        # the null so hashes minted before the field existed stay valid.
        if out.get("highway") is None:
            out.pop("highway", None)
        return out

    def content_hash(self) -> str:
        """Stable SHA-256 over :meth:`canonical_dict`."""
        blob = json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ScenarioResult:
    """Everything an episode produced."""

    config: ScenarioConfig
    metrics: ScenarioMetrics
    attack_reports: list = field(default_factory=list)
    defense_observables: dict = field(default_factory=dict)
    events: Optional[EventLog] = None
    # DetectionLedger.summary(): per-mechanism detection-quality aggregates.
    detection: dict = field(default_factory=dict)

    def summary(self) -> dict:
        out = dict(self.metrics.summary())
        for report in self.attack_reports:
            for key, value in report.observables.items():
                out[f"{report.attack_name}.{key}"] = value
        return out


class Scenario:
    """A built, runnable platooning episode."""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config or ScenarioConfig()
        cfg = self.config

        # Message sequence numbers are signed (and hence sized) content;
        # restart the stream so every episode is independent of whatever
        # ran earlier in this process.
        reset_message_seq()

        if cfg.kernel not in ("scalar", "vector"):
            raise ValueError(
                f"kernel must be 'scalar' or 'vector', got {cfg.kernel!r}")

        self.sim = Simulator(seed=cfg.seed)
        self.world = World()
        self.events = EventLog()
        self._dynamics_factory = None
        if cfg.kernel == "vector":
            from repro.kernel import KinematicsPool, VectorRadioChannel

            pooled = (cfg.highway.total_vehicles() if cfg.highway is not None
                      else cfg.n_vehicles)
            self.pool = KinematicsPool(capacity=pooled + 1)
            self.world.attach_pool(self.pool)
            self._dynamics_factory = self.pool.make_dynamics
            self.channel = VectorRadioChannel(self.sim, cfg.channel)
        else:
            self.pool = None
            self.channel = RadioChannel(self.sim, cfg.channel)
        self.vlc: Optional[VlcChannel] = (VlcChannel(self.sim, VlcConfig())
                                          if cfg.with_vlc else None)

        self.authority: Optional["TrustedAuthority"] = None
        self.rsus: list["RoadsideUnit"] = []
        if cfg.with_authority:
            from repro.infra.authority import TrustedAuthority

            self.authority = TrustedAuthority()

        params = VehicleParams.truck() if cfg.trucks else VehicleParams()
        vcfg = replace(cfg.vehicle, cacc_kind=cfg.cacc_kind,
                       cruise_speed=cfg.initial_speed)

        # --- platoon(s) ---------------------------------------------------
        # Multi-platoon highway world: the builder creates every platoon
        # and the background traffic; the first platoon keeps the legacy
        # aliases so single-platoon attacks/metrics work unchanged.
        self.highway_platoons: list = []
        self.background_vehicles: list[Vehicle] = []
        self.coordinators: list = []
        self.platoon_vehicles: list[Vehicle] = []
        if cfg.highway is not None:
            from repro.highway.builder import build_highway
            from repro.highway.coordinator import HighwayCoordinator

            built = build_highway(self)
            self.highway_platoons = built.platoons
            self.background_vehicles = built.background
            primary = built.platoons[0]
            self.platoon_vehicles = primary.vehicles
            self.leader = primary.leader
            self.platoon_id = primary.platoon_id
            self.leader_logic = primary.leader.leader_logic
            self.coordinators = [HighwayCoordinator(self, handle, i)
                                 for i, handle in enumerate(built.platoons)]
            self._finish_init(cfg, params, vcfg)
            return
        if cfg.initial_spacing is not None:
            spacing = max(cfg.initial_spacing, params.length + 2.0)
        else:
            from repro.platoon.controllers import make_controller

            equilibrium_gap = make_controller(cfg.cacc_kind).desired_gap(
                cfg.initial_speed)
            spacing = params.length + equilibrium_gap
        for i in range(cfg.n_vehicles):
            vehicle = Vehicle(
                self.sim, self.world, self.channel, f"veh{i}", self.events,
                initial=LongitudinalState(
                    position=cfg.start_position - i * spacing,
                    speed=cfg.initial_speed),
                params=params, config=replace(vcfg), vlc_channel=self.vlc,
                dynamics_factory=self._dynamics_factory)
            self.platoon_vehicles.append(vehicle)
            if self.authority is not None:
                self.authority.register_vehicle(vehicle.vehicle_id)

        self.leader = self.platoon_vehicles[0]
        self.platoon_id = "p1"
        self.leader_logic = self.leader.make_leader(
            self.platoon_id, max_members=cfg.max_members,
            max_pending=cfg.max_pending)
        for vehicle in self.platoon_vehicles[1:]:
            vehicle.become_member(self.platoon_id, self.leader.vehicle_id)
            self.leader_logic.registry.members.append(vehicle.vehicle_id)
        # NOTE: the initial roster broadcast is deferred to run() so that it
        # goes out *after* any defence installed its signing processors.
        self._finish_init(cfg, params, vcfg)

    def _finish_init(self, cfg: ScenarioConfig, params: VehicleParams,
                     vcfg: VehicleConfig) -> None:
        """Shared tail of construction: infrastructure, joiner, hooks."""
        # --- infrastructure ------------------------------------------------
        for i, position in enumerate(cfg.rsu_positions):
            from repro.infra.rsu import RoadsideUnit

            self.rsus.append(RoadsideUnit(
                self.sim, self.channel, f"rsu{i}", position,
                self.authority, self.events, coverage_m=cfg.rsu_coverage))

        # --- optional legitimate joiner -------------------------------------
        self.joiner: Optional[Vehicle] = None
        if cfg.joiner:
            tail = self.platoon_vehicles[-1]
            self.joiner = Vehicle(
                self.sim, self.world, self.channel, "joiner", self.events,
                initial=LongitudinalState(
                    position=tail.position - params.length - cfg.joiner_distance,
                    speed=cfg.initial_speed),
                params=params, config=replace(vcfg), vlc_channel=self.vlc,
                dynamics_factory=self._dynamics_factory)
            if self.authority is not None:
                self.authority.register_vehicle("joiner")
            self.sim.schedule_at(cfg.joiner_delay, self._start_joiner)

        # --- leader speed profile --------------------------------------------
        if cfg.leader_profile == "varying":
            self.sim.every(0.5, self._update_leader_speed, initial_delay=0.5)

        self.attacks: list["Attack"] = []
        self.defenses: list["Defense"] = []
        # Cross-component security state (group keys, CA handles, ...).
        # Defences publish here; *insider* attacks may read it -- that is
        # the modelling of "an attacker in the network can still carry out
        # attacks" from §VI-A.1.
        self.security_context: dict = {}
        # Ground truth for detector scoring: identities whose traffic is
        # currently attacker-influenced (forged, replayed, falsified,
        # spoofed).  Attacks register here; detectors never read it -- only
        # the metrics layer does, to label detections true/false positive.
        self.tainted_identities: set[str] = set()
        # Every defence accept/flag/drop decision lands here (repro.obs.
        # security); the summary feeds ScenarioMetrics and the trace.
        self.detection_ledger = DetectionLedger()
        self.metrics_collector = MetricsCollector(self)
        self._ran = False

    # ----------------------------------------------------------------- hooks

    def _start_joiner(self) -> None:
        if self.joiner is not None:
            self.joiner.start_join(self.platoon_id, self.leader.vehicle_id)

    def _update_leader_speed(self) -> None:
        cfg = self.config
        t = self.sim.now
        self.leader.target_speed = (cfg.initial_speed + cfg.speed_amplitude
                                    * math.sin(2 * math.pi * t / cfg.speed_period))

    # ------------------------------------------------------------ composition

    def add_attack(self, attack: "Attack") -> "Scenario":
        self.attacks.append(attack)
        return self

    def add_defense(self, defense: "Defense") -> "Scenario":
        self.defenses.append(defense)
        return self

    def members(self) -> list[Vehicle]:
        return self.platoon_vehicles[1:]

    def vehicle(self, vehicle_id: str) -> Vehicle:
        found = self.world.get(vehicle_id)
        if found is None:
            raise KeyError(f"no vehicle {vehicle_id!r} in scenario")
        return found

    # --------------------------------------------------------------- running

    def run(self) -> ScenarioResult:
        """Install defences and attacks, run the episode, compute metrics."""
        if self._ran:
            raise RuntimeError("scenario already ran; build a fresh one")
        self._ran = True
        with obs.span("episode"):
            with obs.timed("episode.setup"):
                for defense in self.defenses:
                    defense.setup(self)
                # Initial roster broadcasts happen only now, after the
                # defences' outbound signing processors are installed.
                if self.highway_platoons:
                    for handle in self.highway_platoons:
                        logic = handle.leader.leader_logic
                        if logic is not None:
                            logic.broadcast_roster()
                else:
                    self.leader_logic.broadcast_roster()
                for attack in self.attacks:
                    attack.setup(self)
            self.sim.run_until(self.config.duration)
            self.metrics_collector.stop()
            with obs.timed("episode.metrics"):
                metrics = self.metrics_collector.compute(
                    warmup=self.config.warmup)
            reports = [attack.report() for attack in self.attacks]
            defense_obs = {d.name: d.observables() for d in self.defenses}
        # Fold episode-level outcomes into the process registry so run
        # reports can aggregate them across workers.
        obs.inc("episodes.run")
        obs.inc("detections", self.events.count("detection"))
        obs.inc("disbands", self.events.count("platoon_disband"))
        obs.inc("collisions", metrics.collisions)
        return ScenarioResult(detection=self.detection_ledger.summary(),
                              config=self.config, metrics=metrics,
                              attack_reports=reports,
                              defense_observables=defense_obs,
                              events=self.events)


def run_episode(config: Optional[ScenarioConfig] = None,
                attacks: Sequence["Attack"] = (),
                defenses: Sequence["Defense"] = (),
                setup_hooks: Sequence = (),
                trace_path=None,
                trace_meta: Optional[dict] = None) -> ScenarioResult:
    """One-call episode: build, arm, run.  The workhorse of every bench.

    ``setup_hooks`` are callables ``hook(scenario)`` executed after the
    scenario is built but before it runs -- benches use them to script
    extra legitimate traffic (e.g. periodic gap-open/close commands for
    the replay experiment).

    With ``trace_path`` set, a :class:`~repro.obs.trace.TraceRecorder`
    samples the episode and the merged event/sample stream is written as
    a schema-versioned JSONL trace after the run; ``trace_meta``
    supplies the campaign-unit identity for the trace header (seed and
    config hash are filled in from the scenario when absent).
    """
    scenario = Scenario(config)
    recorder = TraceRecorder(scenario) if trace_path is not None else None
    try:
        for hook in setup_hooks:
            hook(scenario)
        for defense in defenses:
            scenario.add_defense(defense)
        for attack in attacks:
            scenario.add_attack(attack)
        result = scenario.run()
    finally:
        # Always stop the recorder's periodic sampler: a raising episode
        # must not leak scheduled callbacks into the simulator (and no
        # partial trace is written for it).
        if recorder is not None:
            recorder.stop()
    if recorder is not None:
        meta = dict(trace_meta or {})
        meta.setdefault("seed", scenario.config.seed)
        meta.setdefault("config_hash", scenario.config.content_hash())
        with obs.timed("episode.trace_write"):
            write_trace(trace_path, recorder.records(), meta=meta,
                        sample_period=recorder.sample_period)
    return result


def gap_cycle_hook(member_index: int = 2, period: float = 12.0,
                   open_for: float = 4.0, gap_factor: float = 2.0):
    """Setup hook: the leader periodically opens and re-closes a gap at one
    member -- legitimate manoeuvre traffic for replay/forgery experiments
    (the paper's §V-A.1 worked example is exactly this command pair)."""

    def hook(scenario: Scenario) -> None:
        member = scenario.platoon_vehicles[member_index]

        def cycle() -> None:
            scenario.leader_logic.request_gap_open(member.vehicle_id, gap_factor)
            scenario.sim.schedule(open_for, scenario.leader_logic.request_gap_close,
                                  member.vehicle_id)

        scenario.sim.every(period, cycle, initial_delay=period / 2)

    return hook
