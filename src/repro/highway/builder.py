"""Construct the highway population inside a scenario.

The builder is the highway counterpart of the single-platoon block in
:class:`repro.core.scenario.Scenario`: it instantiates every platoon
(front-to-back, in spec order) and then the background traffic, in a
**fixed construction order**.  Order is load-bearing: each vehicle draws
its beacon-stagger offset from the shared simulator RNG at construction,
so the construction sequence *is* the random stream -- both kernels (and
any future builder) must create vehicles in exactly this order for
traces to stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.highway.config import HighwayConfig, PlatoonSpec
from repro.platoon.controllers import make_controller
from repro.platoon.dynamics import LongitudinalState, VehicleParams
from repro.platoon.vehicle import Vehicle

if TYPE_CHECKING:
    from repro.core.scenario import Scenario


@dataclass
class PlatoonHandle:
    """One built platoon: id, leader, and member vehicles in road order."""

    platoon_id: str
    spec: PlatoonSpec
    leader: Vehicle
    vehicles: list


@dataclass
class HighwayWorld:
    """Everything the builder created, in construction order."""

    platoons: list
    background: list


def _platoon_spacing(scenario: "Scenario", params: VehicleParams,
                     speed: float) -> float:
    cfg = scenario.config
    if cfg.initial_spacing is not None:
        return max(cfg.initial_spacing, params.length + 2.0)
    equilibrium_gap = make_controller(cfg.cacc_kind).desired_gap(speed)
    return params.length + equilibrium_gap


def build_highway(scenario: "Scenario") -> HighwayWorld:
    """Populate ``scenario`` from its :class:`HighwayConfig`.

    Platoon ``k`` (1-based) gets platoon id ``p{k}`` and vehicle ids
    ``p{k}v{i}`` with ``i=0`` the leader; background vehicles are
    ``bg{i}``.  The first platoon is the primary one the scenario
    aliases point at.
    """
    cfg = scenario.config
    hw = cfg.highway
    assert isinstance(hw, HighwayConfig)

    handles: list[PlatoonHandle] = []
    for k, spec in enumerate(hw.platoons, start=1):
        params = VehicleParams.truck() if spec.trucks else VehicleParams()
        speed = spec.speed if spec.speed is not None else cfg.initial_speed
        vcfg = replace(cfg.vehicle, cacc_kind=cfg.cacc_kind, cruise_speed=speed)
        spacing = _platoon_spacing(scenario, params, speed)
        vehicles: list[Vehicle] = []
        for i in range(spec.n_vehicles):
            vehicle = Vehicle(
                scenario.sim, scenario.world, scenario.channel,
                f"p{k}v{i}", scenario.events,
                initial=LongitudinalState(
                    position=spec.start_position - i * spacing,
                    speed=speed),
                params=params, config=replace(vcfg), lane=spec.lane,
                vlc_channel=scenario.vlc,
                dynamics_factory=scenario._dynamics_factory)
            vehicles.append(vehicle)
            if scenario.authority is not None:
                scenario.authority.register_vehicle(vehicle.vehicle_id)
        leader = vehicles[0]
        platoon_id = f"p{k}"
        logic = leader.make_leader(platoon_id, max_members=cfg.max_members,
                                   max_pending=cfg.max_pending)
        for vehicle in vehicles[1:]:
            vehicle.become_member(platoon_id, leader.vehicle_id)
            logic.registry.members.append(vehicle.vehicle_id)
        handles.append(PlatoonHandle(platoon_id=platoon_id, spec=spec,
                                     leader=leader, vehicles=vehicles))

    background = _build_background(scenario, hw)
    _install_lane_change_driver(scenario, hw, background)
    return HighwayWorld(platoons=handles, background=background)


def _build_background(scenario: "Scenario", hw: HighwayConfig) -> list:
    """Seed free-driving vehicles behind the rearmost platoon.

    Placement and speeds are pure functions of the index (no RNG draws
    beyond the per-vehicle beacon stagger every vehicle makes), so the
    layout is identical across kernels and worker counts.
    """
    cfg = scenario.config
    count = hw.background_count()
    if count == 0:
        return []
    params = VehicleParams()
    rear_anchor = min(spec.start_position for spec in hw.platoons) - 80.0
    per_lane = -(-count // hw.lanes)   # ceil
    gap = max(40.0, hw.road_length / per_lane)
    background: list[Vehicle] = []
    for i in range(count):
        lane = i % hw.lanes
        rank = i // hw.lanes
        # Mild deterministic speed spread so the stream is not lockstep.
        speed = cfg.initial_speed + ((i % 5) - 2) * 0.4
        vcfg = replace(cfg.vehicle, cacc_kind=cfg.cacc_kind, cruise_speed=speed)
        vehicle = Vehicle(
            scenario.sim, scenario.world, scenario.channel,
            f"bg{i}", scenario.events,
            initial=LongitudinalState(
                position=rear_anchor - rank * gap - lane * 11.0,
                speed=speed),
            params=params, config=vcfg, lane=lane,
            vlc_channel=scenario.vlc,
            dynamics_factory=scenario._dynamics_factory)
        background.append(vehicle)
    return background


def _install_lane_change_driver(scenario: "Scenario", hw: HighwayConfig,
                                background: list) -> None:
    """Scripted round-robin lane changes for background vehicles.

    Each tick moves the next background vehicle one lane over, if the
    target lane has room.  This keeps lane membership dynamic, which the
    world's lane-partitioned predecessor map must follow (see
    :meth:`repro.platoon.world.World.notify_lane_change`).
    """
    if hw.lane_change_interval <= 0 or hw.lanes < 2 or not background:
        return
    state = {"next": 0}

    def _tick() -> None:
        vehicle = background[state["next"] % len(background)]
        state["next"] += 1
        target = (vehicle.lane + 1) % hw.lanes
        for other in scenario.world.vehicles_in_lane(target):
            if abs(other.position - vehicle.position) < 30.0:
                return   # not safe; try the next vehicle next tick
        vehicle.change_lane(target, reason="scripted")

    scenario.sim.every(hw.lane_change_interval, _tick,
                       initial_delay=hw.lane_change_interval)
