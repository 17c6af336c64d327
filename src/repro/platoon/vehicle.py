"""The platoon-enabled vehicle: dynamics + radio + sensors + roles.

:class:`Vehicle` is the composition point of the whole substrate.  Each
vehicle owns:

* a longitudinal dynamics model ticked at a fixed control period,
* a radio on the shared 802.11p-like channel (and optionally a VLC
  endpoint for the hybrid defence),
* GPS / forward-ranging / TPMS sensors,
* a *beacon knowledge base* -- the latest state heard from each other
  vehicle, which is exactly the data falsification attacks poison,
* role logic (leader / member / joiner) driving the manoeuvre protocol,
* security hook points: outbound message processors (signing),
  radio receive filters (verification, freshness, trust) and leader-side
  join validators (admission control).

Degradation policy (the availability story of the paper): a member whose
cooperative data goes stale falls back from CACC to radar-only ACC with a
conservative headway; if the *leader* stays silent past a disband timeout
the member abandons the platoon entirely.  Jamming therefore first widens
gaps (efficiency loss) and then disbands the platoon -- "all savings are
lost", as §V-B puts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.events import EventLog
from repro.net.channel import RadioChannel
from repro.net.messages import Beacon, ManeuverMessage, Message, MessageType
from repro.net.radio import Radio
from repro.net.simulator import Simulator
from repro.net.vlc import VlcChannel, VlcEndpoint
from repro.platoon.controllers import (
    AccController,
    Controller,
    ControllerInputs,
    CruiseController,
    make_controller,
)
from repro.platoon.dynamics import LongitudinalState, VehicleDynamics, VehicleParams
from repro.platoon.maneuvers import JoinerLogic, LeaderLogic, MemberLogic
from repro.platoon.platoon import MembershipRegistry, PlatoonRole, PlatoonState
from repro.platoon.sensors import GpsReceiver, RangeSensor, TirePressureSensor
from repro.platoon.world import World

OutboundProcessor = Callable[[Message], Message]


@dataclass
class BeaconRecord:
    """Latest beacon heard from one sender, with local receive time."""

    beacon: Beacon
    received_at: float

    def age(self, now: float) -> float:
        return now - self.received_at


@dataclass
class VehicleConfig:
    """Per-vehicle behavioural parameters."""

    control_period: float = 0.1          # [s]
    beacon_interval: float = 0.1         # 10 Hz CAM rate
    beacon_timeout: float = 0.5          # cooperative data freshness [s]
    disband_timeout: float = 3.0         # leader silence before giving up [s]
    cacc_kind: str = "ploeg"             # "ploeg" or "path"
    fallback_headway: float = 1.4        # ACC headway when degraded [s]
    cruise_speed: float = 27.0           # ~100 km/h
    use_radar_gap: bool = True           # False => trust beacon positions for gap
    degrade_on_stale: bool = True        # False => hold last value (ablation)
    # Reformation policy: after a comm-loss disband, try to rejoin the old
    # platoon once the channel recovers ("all savings are lost ... until
    # the platoon can reform", §V-B).
    rejoin_after_disband: bool = False
    rejoin_cooldown: float = 5.0


class Vehicle:
    """A platoon-capable vehicle."""

    def __init__(self, sim: Simulator, world: World, channel: RadioChannel,
                 vehicle_id: str, events: EventLog,
                 initial: Optional[LongitudinalState] = None,
                 params: Optional[VehicleParams] = None,
                 config: Optional[VehicleConfig] = None,
                 lane: int = 0,
                 vlc_channel: Optional[VlcChannel] = None,
                 dynamics_factory: Optional[Callable[
                     [VehicleParams, LongitudinalState], VehicleDynamics]] = None
                 ) -> None:
        self.sim = sim
        self.world = world
        self.vehicle_id = vehicle_id
        self.events = events
        self.params = params or VehicleParams()
        self.config = config or VehicleConfig()
        self.lane = lane

        # The factory lets the vector kernel hand out pool-backed slots
        # (repro.kernel.pool.KinematicsPool.make_dynamics) behind the same
        # VehicleDynamics API; default is the scalar integrator.
        factory = dynamics_factory or VehicleDynamics
        self.dynamics = factory(self.params, initial or LongitudinalState())
        self.target_speed = self.config.cruise_speed

        # --- sensors -------------------------------------------------------
        self.gps = GpsReceiver(sim, lambda: self.dynamics.position)
        self.radar = RangeSensor(sim)
        self.tpms = TirePressureSensor(sim)
        self.last_radar_gap: Optional[float] = None

        # --- communications --------------------------------------------------
        self.radio = Radio(sim, channel, vehicle_id, lambda: self.dynamics.position)
        pool = getattr(self.dynamics, "pool", None)
        if pool is not None:
            self.radio.pool_slot = (pool, self.dynamics.slot)
        self.radio.on_receive(self._on_message)
        self.vlc: Optional[VlcEndpoint] = None
        if vlc_channel is not None:
            self.vlc = VlcEndpoint(vlc_channel, vehicle_id,
                                   lambda: self.dynamics.position,
                                   lambda: self.lane)
        self.outbound_processors: list[OutboundProcessor] = []

        # --- platooning state -------------------------------------------------
        self.state = PlatoonState()
        self.leader_logic: Optional[LeaderLogic] = None
        self.member_logic = MemberLogic(self)
        self.joiner_logic: Optional[JoinerLogic] = None
        self.beacon_kb: dict[str, BeaconRecord] = {}

        # --- controllers ------------------------------------------------------
        self.cruise_controller: Controller = CruiseController()
        self.acc_controller = AccController()
        self.fallback_controller = AccController(headway=self.config.fallback_headway)
        self.cacc_controller: Controller = make_controller(self.config.cacc_kind)
        self.active_controller_name = self.cruise_controller.name
        self.degraded = False
        self.degraded_ticks = 0
        self.control_ticks = 0
        self.disbanded = False
        self.compromised = False
        self.compromised_by: Optional[str] = None
        # Lazily attached by the malware attack / onboard-hardening defence.
        self.onboard = None
        # Optional override for the position broadcast in beacons; the
        # sensor-fusion defence points this at a dead-reckoned estimate when
        # it decides the GPS is captured.
        self.beacon_position_fn: Optional[Callable[[], float]] = None

        world.add(self)   # also hooks us into the synchronized control loop

        self._beacon_proc = sim.every(self.config.beacon_interval, self.send_beacon,
                                      initial_delay=sim.rng.uniform(
                                          0.0, self.config.beacon_interval) + 1e-4)

    # ------------------------------------------------------------- properties

    @property
    def position(self) -> float:
        return self.dynamics.position

    @property
    def speed(self) -> float:
        return self.dynamics.speed

    @property
    def acceleration(self) -> float:
        return self.dynamics.acceleration

    @property
    def role(self) -> PlatoonRole:
        return self.state.role

    @property
    def is_leader(self) -> bool:
        return self.state.role is PlatoonRole.LEADER

    # ------------------------------------------------------------------ roles

    def make_leader(self, platoon_id: str, max_members: int = 10,
                    max_pending: int = 4) -> LeaderLogic:
        """Turn this vehicle into the leader of a fresh platoon."""
        registry = MembershipRegistry(platoon_id=platoon_id,
                                      leader_id=self.vehicle_id,
                                      max_members=max_members,
                                      max_pending=max_pending)
        self.leader_logic = LeaderLogic(self, registry)
        self.state.role = PlatoonRole.LEADER
        self.state.platoon_id = platoon_id
        self.state.leader_id = self.vehicle_id
        self.state.roster = [self.vehicle_id]
        self.state.joined_at = self.sim.now
        return self.leader_logic

    def become_member(self, platoon_id: str, leader_id: str) -> None:
        self.state.role = PlatoonRole.MEMBER
        self.state.platoon_id = platoon_id
        self.state.leader_id = leader_id
        self.state.joined_at = self.sim.now
        self.disbanded = False

    def promote_to_leader(self, roster: list[str], platoon_suffix: str = "s") -> None:
        """Become leader of a split-off tail platoon."""
        new_id = f"{self.state.platoon_id or 'p'}-{platoon_suffix}"
        registry = MembershipRegistry(platoon_id=new_id, leader_id=self.vehicle_id,
                                      members=list(roster))
        self.leader_logic = LeaderLogic(self, registry)
        self.state.role = PlatoonRole.LEADER
        self.state.platoon_id = new_id
        self.state.leader_id = self.vehicle_id
        self.state.roster = list(roster)
        self.events.record(self.sim.now, "promoted_leader", self.vehicle_id,
                           platoon_id=new_id, roster=list(roster))
        self.leader_logic.broadcast_roster()

    def start_join(self, platoon_id: str, leader_id: str) -> JoinerLogic:
        """Begin the join procedure toward an existing platoon."""
        self.joiner_logic = JoinerLogic(self, platoon_id, leader_id)
        return self.joiner_logic

    def leave_platoon(self, reason: str) -> None:
        was_in = self.state.in_platoon
        old_platoon = self.state.platoon_id
        old_leader = self.state.leader_id
        self.state.reset()
        self.joiner_logic = None
        if was_in:
            if reason in ("comm_loss",):
                self.disbanded = True
                self.events.record(self.sim.now, "platoon_disband", self.vehicle_id,
                                   reason=reason)
                if (self.config.rejoin_after_disband and old_platoon
                        and old_leader and old_leader != self.vehicle_id):
                    self.sim.schedule(self.config.rejoin_cooldown,
                                      self._attempt_rejoin, old_platoon,
                                      old_leader)
            else:
                self.events.record(self.sim.now, "platoon_left", self.vehicle_id,
                                   reason=reason)

    def _attempt_rejoin(self, platoon_id: str, leader_id: str) -> None:
        if self.state.role is not PlatoonRole.FREE:
            return
        if self.joiner_logic is not None and not self.joiner_logic.joined:
            return
        self.events.record(self.sim.now, "rejoin_attempt", self.vehicle_id,
                           platoon_id=platoon_id)
        self.start_join(platoon_id, leader_id)

    def change_lane(self, lane: int, reason: str = "manual") -> None:
        """Move the vehicle to another lane (instantaneous lateral model).

        The longitudinal substrate has no lateral dynamics, so a lane
        change is a discrete event: the lane index flips and the world is
        told, so a lane-partitioned predecessor map built in the current
        :meth:`~repro.platoon.world.World.frozen` scope is rebuilt before
        the next sensor read.
        """
        if lane == self.lane:
            return
        old = self.lane
        self.lane = lane
        self.world.notify_lane_change(self)
        self.events.record(self.sim.now, "lane_change", self.vehicle_id,
                           from_lane=old, to_lane=lane, reason=reason)

    def compromise(self, by: str) -> None:
        """Mark this vehicle as attacker-controlled (malware outcome)."""
        self.compromised = True
        self.compromised_by = by
        self.events.record(self.sim.now, "vehicle_compromised", self.vehicle_id, by=by)

    # -------------------------------------------------------------- messaging

    def send(self, msg: Message) -> bool:
        """Apply outbound security processors, then broadcast."""
        for processor in self.outbound_processors:
            msg = processor(msg)
        sent = self.radio.send(msg)
        if self.vlc is not None and self.vlc.enabled:
            self.vlc.send(msg)
        return sent

    def send_beacon(self) -> None:
        position = (self.beacon_position_fn() if self.beacon_position_fn
                    is not None else self.gps.read())
        beacon = Beacon(sender_id=self.vehicle_id, timestamp=self.sim.now,
                        position=position,
                        speed=self.dynamics.speed,
                        acceleration=self.dynamics.acceleration,
                        lane=self.lane,
                        platoon_id=self.state.platoon_id,
                        platoon_index=self.state.index_of(self.vehicle_id),
                        is_leader=self.is_leader)
        self.send(beacon)

    def _on_message(self, msg: Message) -> None:
        if msg.msg_type is MessageType.BEACON and isinstance(msg, Beacon):
            self.beacon_kb[msg.sender_id] = BeaconRecord(msg, self.sim.now)
            return
        if isinstance(msg, ManeuverMessage):
            if self.joiner_logic is not None and not self.joiner_logic.joined:
                self.joiner_logic.handle(msg)
            if self.is_leader and self.leader_logic is not None:
                self.leader_logic.handle(msg)
            else:
                self.member_logic.handle(msg)

    def fresh_beacon(self, sender_id: Optional[str],
                     max_age: Optional[float] = None) -> Optional[Beacon]:
        """Latest beacon from ``sender_id`` if younger than ``max_age``."""
        if sender_id is None:
            return None
        record = self.beacon_kb.get(sender_id)
        if record is None:
            return None
        limit = self.config.beacon_timeout if max_age is None else max_age
        if record.age(self.sim.now) > limit:
            return None
        return record.beacon

    # ---------------------------------------------------------------- control

    def control_decide(self) -> float:
        """Phase 1 of the synchronized control loop: sense and decide.

        Reads sensors against the frozen world state, runs manoeuvre
        housekeeping and returns the commanded acceleration.  Must not move
        the vehicle -- that happens in :meth:`control_actuate`.
        """
        law, inputs = self.control_plan()
        return law.compute(inputs)

    def control_plan(self) -> tuple[Controller, ControllerInputs]:
        """Phase 1 without evaluating the control law.

        Identical to :meth:`control_decide` -- same sensor reads (and
        hence the same RNG draws), same manoeuvre housekeeping -- but
        returns the chosen ``(law, inputs)`` pair instead of the command.
        The laws are pure, so the vector kernel batches their evaluation
        (:func:`repro.kernel.controllers.evaluate_commands`) after every
        vehicle has planned, with bit-identical results.
        """
        self.control_ticks += 1
        if self.control_ticks % 10 == 0:
            # The driver display polls tyre pressure at ~1 Hz; spoofed TPMS
            # frames surface as warnings here (§V-G).
            self.tpms.read()

        true_gap = self.world.true_gap(self)
        pred = self.world.predecessor_of(self)
        true_rate = (pred.speed - self.speed) if pred is not None else None
        self.last_radar_gap = self.radar.read(true_gap)
        radar_rate = self.radar.read_rate(true_rate)

        if self.leader_logic is not None and self.is_leader:
            self.leader_logic.tick()
        self.member_logic.tick()
        if self.joiner_logic is not None:
            self.joiner_logic.tick()

        return self._plan_command(radar_rate)

    def control_actuate(self, dt: float, command: float) -> None:
        """Phase 2 of the synchronized control loop: move."""
        self.dynamics.step(dt, command)

    def _compute_command(self, radar_rate: Optional[float]) -> float:
        law, inputs = self._plan_command(radar_rate)
        return law.compute(inputs)

    def _plan_command(self, radar_rate: Optional[float]
                      ) -> tuple[Controller, ControllerInputs]:
        role = self.state.role
        if role is PlatoonRole.MEMBER:
            return self._plan_member(radar_rate)
        if role is PlatoonRole.JOINER:
            return self._plan_joiner(radar_rate)
        # FREE / LEADER / LEAVER: cruise toward target speed, but never
        # blindly rear-end a slower vehicle ahead -- use ACC when a radar
        # target exists.
        inputs = ControllerInputs(own_speed=self.speed, own_accel=self.acceleration,
                                  target_speed=self.target_speed,
                                  gap=self.last_radar_gap, gap_rate=radar_rate)
        self.active_controller_name = (self.acc_controller.name
                                       if inputs.gap is not None
                                       else self.cruise_controller.name)
        if inputs.gap is not None and inputs.gap < self.acc_controller.desired_gap(self.speed) * 1.5:
            return self.acc_controller, inputs
        return self.cruise_controller, inputs

    def _plan_member(self, radar_rate: Optional[float]
                     ) -> tuple[Controller, ControllerInputs]:
        state = self.state
        pred_id = state.predecessor_id(self.vehicle_id)
        if pred_id is None and state.leader_id != self.vehicle_id:
            # Roster does not place us yet; fall back to the physical predecessor.
            phys_pred = self.world.predecessor_of(self)
            pred_id = phys_pred.vehicle_id if phys_pred is not None else None
        leader_id = state.leader_id
        pred_beacon = self.fresh_beacon(pred_id)
        leader_beacon = self.fresh_beacon(leader_id)

        leader_record = self.beacon_kb.get(leader_id) if leader_id else None
        if leader_record is not None:
            leader_age = leader_record.age(self.sim.now)
        else:
            # Never heard the leader yet: measure silence from when we joined,
            # so a freshly-formed platoon gets a grace period.
            leader_age = self.sim.now - (self.state.joined_at or 0.0)
        if leader_age > self.config.disband_timeout:
            # Sustained leader silence: the platoon is effectively gone.
            self.leave_platoon(reason="comm_loss")
            return self._plan_command(radar_rate)

        gap = self.last_radar_gap if self.config.use_radar_gap else None
        if gap is None and pred_beacon is not None:
            # Fall back to beacon-claimed positions (what a vehicle without
            # radar -- or with a blinded one -- must do).
            pred_vehicle = self.world.get(pred_id) if pred_id else None
            pred_length = (pred_vehicle.params.length if pred_vehicle is not None
                           else self.params.length)
            gap = pred_beacon.position - pred_length - self.position

        coop_ok = (pred_beacon is not None and leader_beacon is not None
                   and gap is not None)
        if coop_ok or not self.config.degrade_on_stale:
            stale_pred = pred_beacon or (self.beacon_kb[pred_id].beacon
                                         if pred_id in self.beacon_kb else None)
            stale_leader = leader_beacon or (self.beacon_kb[leader_id].beacon
                                             if leader_id in self.beacon_kb else None)
            if stale_pred is not None and stale_leader is not None and gap is not None:
                inputs = ControllerInputs(
                    own_speed=self.speed, own_accel=self.acceleration,
                    target_speed=self.target_speed,
                    gap=gap, gap_rate=radar_rate,
                    predecessor_speed=stale_pred.speed,
                    predecessor_accel=stale_pred.acceleration,
                    leader_speed=stale_leader.speed,
                    leader_accel=stale_leader.acceleration,
                    desired_gap_factor=state.gap_factor)
                self._set_degraded(False)
                self.active_controller_name = self.cacc_controller.name
                return self.cacc_controller, inputs
        # Degraded: radar-only ACC with conservative headway.
        self._set_degraded(True)
        self.active_controller_name = self.fallback_controller.name
        inputs = ControllerInputs(own_speed=self.speed, own_accel=self.acceleration,
                                  target_speed=self.target_speed,
                                  gap=self.last_radar_gap, gap_rate=radar_rate,
                                  desired_gap_factor=state.gap_factor)
        return self.fallback_controller, inputs

    def _plan_joiner(self, radar_rate: Optional[float]
                     ) -> tuple[Controller, ControllerInputs]:
        # Close in on the platoon tail: slightly higher target speed until
        # the radar sees the tail, then ACC tracks it in.
        gap = self.last_radar_gap
        tail_beacon = None
        # The tail we chase is the last roster entry that is not ourselves
        # (a re-joining ex-member may still appear in a stale roster).
        others = [m for m in self.state.roster if m != self.vehicle_id]
        if others:
            tail_beacon = self.fresh_beacon(others[-1], max_age=1.0)
        approach_speed = self.target_speed
        if tail_beacon is not None:
            approach_speed = tail_beacon.speed + (3.0 if (gap is None or gap > 30) else 0.0)
        inputs = ControllerInputs(own_speed=self.speed, own_accel=self.acceleration,
                                  target_speed=approach_speed,
                                  gap=gap, gap_rate=radar_rate)
        self.active_controller_name = self.acc_controller.name
        if gap is not None:
            # Approach with a tighter headway so we get near enough to merge.
            joiner_acc = AccController(headway=0.6, standstill=4.0)
            return joiner_acc, inputs
        return self.cruise_controller, inputs

    def _set_degraded(self, degraded: bool) -> None:
        if degraded:
            self.degraded_ticks += 1
        if degraded != self.degraded:
            self.degraded = degraded
            kind = "controller_degraded" if degraded else "controller_restored"
            self.events.record(self.sim.now, kind, self.vehicle_id)

    # -------------------------------------------------------------- lifecycle

    def shutdown(self) -> None:
        """Remove the vehicle from the simulation (end of scenario)."""
        self._beacon_proc.stop()
        self.radio.shutdown()
        if self.vlc is not None:
            self.vlc.enabled = False
        self.world.remove(self.vehicle_id)

    def __repr__(self) -> str:
        return (f"<Vehicle {self.vehicle_id} x={self.position:.1f} "
                f"v={self.speed:.1f} role={self.state.role.value}>")
