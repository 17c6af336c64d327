"""Platoon-health metrics.

The paper's attack narratives make qualitative claims -- "the platoon will
oscillate", "all savings are lost", "members can no longer communicate and
it will disband".  This module defines the quantitative counterparts used
throughout the benches:

* **Spacing error** -- mean/max absolute deviation of each member's gap
  from its controller's desired gap (post-warmup).
* **Oscillation** -- standard deviation of gap and of acceleration;
  the *string-stability amplification* ratio compares acceleration energy
  at the platoon tail vs. the first follower (>1 means disturbances grow
  along the string).
* **Safety** -- distinct collision pairs, contact events (re-collisions
  of the same pair count again), minimum observed gap over the platoon,
  minimum *true* bumper gap over every vehicle in the world (the joiner
  included), and the minimum emergency-brake margin: the clearance left
  if the predecessor brakes at its physical limit and the follower
  responds at its own limit (``gap + v_p^2/2b_p - v_f^2/2b_f``; a
  non-positive margin means the follower has left its stopping
  envelope even if bumpers never touched).
* **Availability** -- packet delivery ratio, fraction of control ticks in
  degraded (ACC-fallback) mode, disband count, members remaining.
* **Efficiency (fuel proxy)** -- a documented surrogate: drag work with a
  gap-dependent drag-reduction factor plus positive-acceleration work.
  The platooning literature puts close-following drag savings around
  10-40%; our factor ``1 - 0.35 * exp(-gap/15)`` reproduces that range so
  "gap widens => savings vanish" is measurable.
* **Comfort** -- RMS jerk over members.
* **Manoeuvre outcomes** -- join latency/success, wasted gap-open time,
  platoon fragmentation (distinct platoon ids among the original roster).
* **Detection** -- events of kind ``detection`` (emitted by defences)
  matched against attack activity for latency / true-positive accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.obs import registry as obs
from repro.platoon.platoon import PlatoonRole

if TYPE_CHECKING:
    from repro.core.scenario import Scenario


def drag_factor(gap: Optional[float]) -> float:
    """Aerodynamic drag multiplier for a follower at the given gap.

    1.0 = free-stream drag; close following reduces it by up to 35%.
    """
    if gap is None or gap < 0:
        return 1.0
    return 1.0 - 0.35 * math.exp(-gap / 15.0)


@dataclass
class _VehicleTrace:
    times: list[float] = field(default_factory=list)
    positions: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)
    accels: list[float] = field(default_factory=list)
    jerks: list[float] = field(default_factory=list)
    gaps: list[Optional[float]] = field(default_factory=list)
    spacing_errors: list[Optional[float]] = field(default_factory=list)
    degraded: list[bool] = field(default_factory=list)
    in_platoon: list[bool] = field(default_factory=list)
    fuel: float = 0.0
    gap_open_time: float = 0.0   # seconds spent with gap_factor > 1


class MetricsCollector:
    """Samples the scenario at a fixed period and computes final metrics."""

    def __init__(self, scenario: "Scenario", sample_period: float = 0.1) -> None:
        self.scenario = scenario
        self.sample_period = sample_period
        self.traces: dict[str, _VehicleTrace] = {}
        self.collision_pairs: set[tuple[str, str]] = set()
        self.min_gap: float = float("inf")
        self.min_true_gap: float = float("inf")
        self.min_brake_margin: float = float("inf")
        self.collision_count: int = 0
        self._in_contact: set[tuple[str, str]] = set()
        self._platoon_ids = {v.vehicle_id for v in scenario.platoon_vehicles}
        self._proc = scenario.sim.every(sample_period, self._sample,
                                        initial_delay=sample_period)

    def _observe_safety(self, vehicle, pred) -> Optional[float]:
        """Fold one (follower, predecessor) pair into the safety minima.

        Returns the bumper gap so callers can reuse it (it is exactly
        ``World.true_gap``).  ``min_true_gap`` is the worst observed
        bumper clearance; ``min_brake_margin`` the worst emergency-brake
        envelope: the gap left after both vehicles brake at their
        physical limits from their current speeds.
        """
        if pred is None:
            return None
        gap = self.scenario.world.gap_between(vehicle, pred)
        if gap < self.min_true_gap:
            self.min_true_gap = gap
        margin = (gap
                  + pred.speed ** 2 / (2.0 * pred.params.max_decel)
                  - vehicle.speed ** 2 / (2.0 * vehicle.params.max_decel))
        if margin < self.min_brake_margin:
            self.min_brake_margin = margin
        return gap

    def _sample(self) -> None:
        obs.inc("metrics.samples")
        world = self.scenario.world
        now = self.scenario.sim.now
        with world.frozen():
            contacts = world.collisions()
            for pair in contacts:
                if pair in self._in_contact:
                    continue
                self.collision_count += 1
                if pair not in self.collision_pairs:
                    self.collision_pairs.add(pair)
                    self.scenario.events.record(now, "collision", pair[0], with_=pair[1])
            self._in_contact = set(contacts)
            # Safety minima cover *every* vehicle in the world (the joiner
            # tailgating the platoon included), not just the original roster.
            for vehicle in world.vehicles():
                if vehicle.vehicle_id not in self._platoon_ids:
                    self._observe_safety(vehicle, world.predecessor_of(vehicle))
            for vehicle in self.scenario.platoon_vehicles:
                trace = self.traces.setdefault(vehicle.vehicle_id, _VehicleTrace())
                gap = self._observe_safety(vehicle, world.predecessor_of(vehicle))
                trace.times.append(now)
                trace.positions.append(vehicle.position)
                trace.speeds.append(vehicle.speed)
                trace.accels.append(vehicle.acceleration)
                trace.jerks.append(vehicle.dynamics.last_jerk)
                trace.gaps.append(gap)
                if gap is not None and gap < self.min_gap:
                    self.min_gap = gap
                error: Optional[float] = None
                if vehicle.state.role is PlatoonRole.MEMBER and gap is not None:
                    desired = (vehicle.cacc_controller.desired_gap(vehicle.speed)
                               * vehicle.state.gap_factor)
                    error = gap - desired
                trace.spacing_errors.append(error)
                trace.degraded.append(vehicle.degraded)
                trace.in_platoon.append(vehicle.state.in_platoon)
                if vehicle.state.gap_factor > 1.0:
                    trace.gap_open_time += self.sample_period
                # Fuel proxy: drag work + positive acceleration work.
                v = vehicle.speed
                drag = drag_factor(gap) if vehicle.state.in_platoon and gap is not None \
                    else 1.0
                accel_work = max(0.0, vehicle.acceleration) * v
                trace.fuel += self.sample_period * (2.5e-4 * drag * v ** 2
                                                    + 6.0e-3 * accel_work)

    def stop(self) -> None:
        self._proc.stop()

    # ----------------------------------------------------------------- report

    def compute(self, warmup: float = 0.0) -> "ScenarioMetrics":
        scenario = self.scenario
        member_errors: list[float] = []
        max_abs_error = 0.0
        gap_stds: list[float] = []
        accel_stds: dict[str, float] = {}
        jerk_sq_sum = 0.0
        jerk_n = 0
        degraded_ticks = 0
        total_ticks = 0

        for vid, trace in self.traces.items():
            idx = [i for i, t in enumerate(trace.times) if t >= warmup]
            if not idx:
                continue
            errors = [trace.spacing_errors[i] for i in idx
                      if trace.spacing_errors[i] is not None]
            if errors:
                member_errors.extend(abs(e) for e in errors)
                max_abs_error = max(max_abs_error, max(abs(e) for e in errors))
            gaps = [trace.gaps[i] for i in idx if trace.gaps[i] is not None]
            if len(gaps) > 1:
                gap_stds.append(_std(gaps))
            accels = [trace.accels[i] for i in idx]
            if len(accels) > 1:
                accel_stds[vid] = _std(accels)
            jerks = [trace.jerks[i] for i in idx]
            jerk_sq_sum += sum(j * j for j in jerks)
            jerk_n += len(jerks)
            degraded_ticks += sum(1 for i in idx if trace.degraded[i])
            total_ticks += len(idx)

        # String-stability proxy: acceleration energy at the tail vs the
        # first follower.  Ordered by the original platoon formation.
        order = [v.vehicle_id for v in scenario.platoon_vehicles]
        amplification = None
        follower_ids = [vid for vid in order[1:] if vid in accel_stds]
        if len(follower_ids) >= 2:
            first = accel_stds[follower_ids[0]]
            last = accel_stds[follower_ids[-1]]
            if first > 1e-9:
                amplification = last / first

        platoon_ids = {v.state.platoon_id for v in scenario.platoon_vehicles
                       if v.state.in_platoon and v.state.platoon_id is not None}
        members_remaining = sum(1 for v in scenario.platoon_vehicles
                                if v.state.role is PlatoonRole.MEMBER)

        fuel_total = sum(t.fuel for t in self.traces.values())

        # MAC-level starvation: a barrage jammer also blocks *transmissions*
        # via carrier sensing, which never shows up in the delivery ratio.
        enqueued = dropped = 0
        for vehicle in scenario.platoon_vehicles:
            stats = vehicle.radio.mac.stats
            enqueued += stats.enqueued
            dropped += stats.dropped_queue_full + stats.dropped_retry_limit
        mac_drop_ratio = (dropped / enqueued) if enqueued else 0.0

        events = scenario.events
        # Wasted entrance gaps: explicit timeout events plus total time any
        # member actually drove with a widened gap (replayed/forged opens
        # keep refreshing the timer, so the integral is the honest number).
        gap_waste = sum(e.data.get("open_for", 0.0)
                        for e in events.of_kind("gap_timeout"))
        gap_open_total = sum(t.gap_open_time for t in self.traces.values())

        # Detection-quality aggregates from the security-verdict ledger
        # (repro.obs.security).  Totals across all installed mechanisms;
        # the per-mechanism split rides ScenarioResult.detection.
        ledger_totals = scenario.detection_ledger.summary()["totals"]

        return ScenarioMetrics(
            security_verdicts=ledger_totals["verdicts"],
            security_flags=ledger_totals["flagged"],
            flag_rate=ledger_totals["flag_rate"],
            detection_tpr=ledger_totals["tpr"],
            detection_fpr=ledger_totals["fpr"],
            time_to_first_flag=ledger_totals["time_to_first_flag"],
            missed_injections=ledger_totals["missed_injections"],
            duration=scenario.sim.now,
            mean_abs_spacing_error=(sum(member_errors) / len(member_errors)
                                    if member_errors else 0.0),
            max_abs_spacing_error=max_abs_error,
            mean_gap_std=(sum(gap_stds) / len(gap_stds)) if gap_stds else 0.0,
            string_amplification=amplification,
            collisions=len(self.collision_pairs),
            collision_count=self.collision_count,
            min_gap=self.min_gap if self.min_gap < float("inf") else None,
            min_true_gap=(self.min_true_gap
                          if self.min_true_gap < float("inf") else None),
            min_brake_margin=(self.min_brake_margin
                              if self.min_brake_margin < float("inf") else None),
            packet_delivery_ratio=scenario.channel.stats.packet_delivery_ratio,
            mac_drop_ratio=mac_drop_ratio,
            degraded_fraction=(degraded_ticks / total_ticks) if total_ticks else 0.0,
            disbands=events.count("platoon_disband"),
            members_remaining=members_remaining,
            platoon_fragments=len(platoon_ids),
            fuel_proxy=fuel_total,
            rms_jerk=math.sqrt(jerk_sq_sum / jerk_n) if jerk_n else 0.0,
            joins_completed=events.count("join_completed"),
            joins_rejected=events.count("join_rejected"),
            joins_dropped=events.count("join_dropped_queue_full"),
            merges_completed=events.count("merge_committed"),
            gap_open_waste_s=gap_waste,
            gap_open_time_s=gap_open_total,
            detections=events.count("detection"),
            false_positives=sum(1 for e in events.of_kind("detection")
                                if not e.data.get("true_positive", True)),
        )


def _std(values: list[float]) -> float:
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((x - mean) ** 2 for x in values) / (n - 1))


@dataclass
class ScenarioMetrics:
    """Final, comparable numbers for one scenario episode."""

    duration: float
    mean_abs_spacing_error: float
    max_abs_spacing_error: float
    mean_gap_std: float
    string_amplification: Optional[float]
    collisions: int
    collision_count: int
    min_gap: Optional[float]
    min_true_gap: Optional[float]
    min_brake_margin: Optional[float]
    packet_delivery_ratio: float
    mac_drop_ratio: float
    degraded_fraction: float
    disbands: int
    members_remaining: int
    platoon_fragments: int
    fuel_proxy: float
    rms_jerk: float
    joins_completed: int
    joins_rejected: int
    joins_dropped: int
    gap_open_waste_s: float
    gap_open_time_s: float
    detections: int
    false_positives: int
    # Platoon-to-platoon merges committed (rear leader handed its roster
    # to the platoon ahead); nonzero only on highway scenarios.  Default
    # keeps records built from pre-highway field sets constructible.
    merges_completed: int = 0
    # Detection quality (security-verdict ledger totals, repro.obs.
    # security).  All defaulted: records written before the ledger landed
    # stay constructible, and undefended episodes report zeros/None.
    security_verdicts: int = 0
    security_flags: int = 0
    flag_rate: float = 0.0
    detection_tpr: Optional[float] = None
    detection_fpr: Optional[float] = None
    time_to_first_flag: Optional[float] = None
    missed_injections: int = 0

    def summary(self) -> dict:
        return {
            "mean_abs_spacing_error_m": round(self.mean_abs_spacing_error, 3),
            "max_abs_spacing_error_m": round(self.max_abs_spacing_error, 3),
            "gap_std_m": round(self.mean_gap_std, 3),
            "string_amplification": (round(self.string_amplification, 3)
                                     if self.string_amplification is not None else None),
            "collisions": self.collisions,
            "collision_count": self.collision_count,
            "min_gap_m": round(self.min_gap, 3) if self.min_gap is not None else None,
            "min_true_gap_m": (round(self.min_true_gap, 3)
                               if self.min_true_gap is not None else None),
            "min_brake_margin_m": (round(self.min_brake_margin, 3)
                                   if self.min_brake_margin is not None else None),
            "pdr": round(self.packet_delivery_ratio, 3),
            "mac_drop_ratio": round(self.mac_drop_ratio, 3),
            "degraded_fraction": round(self.degraded_fraction, 3),
            "disbands": self.disbands,
            "members_remaining": self.members_remaining,
            "platoon_fragments": self.platoon_fragments,
            "fuel_proxy": round(self.fuel_proxy, 2),
            "rms_jerk": round(self.rms_jerk, 3),
            "joins_completed": self.joins_completed,
            "merges_completed": self.merges_completed,
            "gap_open_waste_s": round(self.gap_open_waste_s, 1),
            "gap_open_time_s": round(self.gap_open_time_s, 1),
            "detections": self.detections,
            "security_verdicts": self.security_verdicts,
            "security_flags": self.security_flags,
            "flag_rate": round(self.flag_rate, 6),
            "detection_tpr": self.detection_tpr,
            "detection_fpr": self.detection_fpr,
            "time_to_first_flag": (round(self.time_to_first_flag, 3)
                                   if self.time_to_first_flag is not None
                                   else None),
            "missed_injections": self.missed_injections,
        }
