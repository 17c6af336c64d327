"""IEEE 802.11p-like broadcast radio channel.

The channel implements the pieces of the physical layer that the paper's
availability attacks exploit:

* **Log-distance path loss** with log-normal shadowing and (optionally)
  Rayleigh fading, parameterised for the 5.9 GHz ITS band.
* **SINR-based reception**: each delivery attempt computes the signal to
  (noise + interference) ratio; interference sums concurrent transmissions
  and any registered *interferers* (jammers).
* **Carrier sensing** support for the CSMA/CA MAC: total in-band power at a
  node, including jammer power, which is how a barrage jammer also starves
  transmit opportunities.
* **Promiscuous reception** so eavesdropper radios can observe traffic that
  is not addressed to them (all platoon traffic is broadcast anyway).

Units: powers in dBm internally converted to mW for summation, distances in
metres, times in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from repro.net.messages import Message
from repro.net.simulator import Simulator
from repro.obs import registry as obs

if TYPE_CHECKING:
    from repro.net.radio import Radio


def dbm_to_mw(dbm: float) -> float:
    """Convert a power in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert a power in milliwatts to dBm.  Zero maps to -inf."""
    if mw <= 0.0:
        return float("-inf")
    return 10.0 * math.log10(mw)


class Interferer(Protocol):
    """Anything that injects RF power into the channel (e.g. a jammer)."""

    def interference_dbm_at(self, position: float, now: float) -> float:
        """Received interference power (dBm) at a road position, or -inf."""
        ...


@dataclass
class ChannelConfig:
    """Physical-layer parameters for the 5.9 GHz ITS band.

    Defaults follow common Veins/Plexe highway parameterisations: free-space
    reference loss at 1 m for 5.89 GHz, a path-loss exponent slightly above
    free space (highway line-of-sight), and a 6 Mbit/s control-channel rate.
    """

    tx_power_dbm: float = 20.0
    reference_loss_db: float = 47.86     # free space at 1 m, 5.89 GHz
    path_loss_exponent: float = 2.2
    shadowing_sigma_db: float = 2.0
    rayleigh_fading: bool = True
    noise_floor_dbm: float = -95.0
    sinr_threshold_db: float = 8.0       # 50% reception point of the PER curve
    per_steepness: float = 1.2           # logistic slope (per dB)
    bitrate_bps: float = 6e6
    propagation_speed: float = 3e8
    max_range_m: float = 1500.0
    carrier_sense_dbm: float = -85.0
    min_distance_m: float = 1.0          # clamp to avoid log(0)
    # Randomness layout for per-attempt fading/success draws:
    #   "shared"   -- legacy: all draws come from the one simulator RNG in
    #                 receiver-registration order (order-dependent).
    #   "pairwise" -- each ordered (sender, receiver) pair owns a counter-
    #                 based stream (repro.net.fading); draws are independent
    #                 of registration order and batchable by the vector
    #                 kernel.  Changes the stochastic stream, so traces
    #                 differ from "shared" (content hashes include it).
    fading_streams: str = "shared"


@dataclass
class ChannelStats:
    """Aggregate channel counters, reset per scenario."""

    transmissions: int = 0
    delivery_attempts: int = 0
    delivered: int = 0
    lost_noise: int = 0          # SINR failure with no interference present
    lost_interference: int = 0   # SINR failure while interference was present
    out_of_range: int = 0

    @property
    def packet_delivery_ratio(self) -> float:
        if self.delivery_attempts == 0:
            return 1.0
        return self.delivered / self.delivery_attempts


@dataclass
class _ActiveTransmission:
    sender: "Radio"
    power_dbm: float
    start: float
    end: float


class RadioChannel:
    """Shared broadcast medium connecting all registered radios.

    Radios are registered with a position callback so moving vehicles are
    handled naturally.  Jammers register as :class:`Interferer` objects and
    contribute to both SINR computation and carrier sensing.
    """

    def __init__(self, sim: Simulator, config: Optional[ChannelConfig] = None) -> None:
        self.sim = sim
        self.config = config or ChannelConfig()
        self._radios: dict[str, "Radio"] = {}
        self._interferers: list[Interferer] = []
        self._active: list[_ActiveTransmission] = []
        self.stats = ChannelStats()
        # Observers see every transmission (used by metrics / eavesdrop bookkeeping)
        self._tx_observers: list[Callable[["Radio", Message], None]] = []
        # Deterministic per-config constants, cached once so the hot
        # reception path does not recompute a log10 per attempt.
        self._noise_mw = dbm_to_mw(self.config.noise_floor_dbm)
        self._noise_only_dbm = mw_to_dbm(self._noise_mw)
        if self.config.fading_streams == "pairwise":
            from repro.net.fading import PairwiseFading

            self.pair_fading: Optional[PairwiseFading] = PairwiseFading(
                seed=sim.seed,
                shadowing_sigma_db=self.config.shadowing_sigma_db,
                rayleigh_fading=self.config.rayleigh_fading)
        elif self.config.fading_streams == "shared":
            self.pair_fading = None
        else:
            raise ValueError(
                f"unknown fading_streams {self.config.fading_streams!r}; "
                "expected 'shared' or 'pairwise'")

    # ------------------------------------------------------------------ setup

    def register(self, radio: "Radio") -> None:
        if radio.node_id in self._radios:
            raise ValueError(f"duplicate radio id {radio.node_id!r}")
        self._radios[radio.node_id] = radio

    def unregister(self, radio: "Radio") -> None:
        self._radios.pop(radio.node_id, None)

    def radios(self) -> list["Radio"]:
        return list(self._radios.values())

    def receivers_in_order(self) -> list["Radio"]:
        """Radios in registration order -- the reception-evaluation order.

        This order is a load-bearing contract, not an implementation
        detail: in ``fading_streams="shared"`` mode every per-attempt
        fading/success draw comes from the single simulator RNG, so the
        order receivers are evaluated in *is* the random stream.  Both
        kernels (and any future broadcast implementation) must evaluate
        receivers in exactly this order.  In "pairwise" mode only the
        delivery-event scheduling order still depends on it.
        """
        return list(self._radios.values())

    def add_interferer(self, interferer: Interferer) -> None:
        self._interferers.append(interferer)

    def remove_interferer(self, interferer: Interferer) -> None:
        if interferer in self._interferers:
            self._interferers.remove(interferer)

    def add_tx_observer(self, observer: Callable[["Radio", Message], None]) -> None:
        self._tx_observers.append(observer)

    # ------------------------------------------------------- propagation model

    def path_loss_db(self, distance: float) -> float:
        d = max(distance, self.config.min_distance_m)
        return (self.config.reference_loss_db
                + 10.0 * self.config.path_loss_exponent * math.log10(d))

    def _fading_db(self) -> float:
        """Random large+small scale fading term for one delivery attempt."""
        fading = 0.0
        if self.config.shadowing_sigma_db > 0:
            fading += self.sim.rng.gauss(0.0, self.config.shadowing_sigma_db)
        if self.config.rayleigh_fading:
            # Rayleigh amplitude => exponential power with unit mean.
            u = self.sim.rng.random()
            u = max(u, 1e-12)
            fading += 10.0 * math.log10(-math.log(u))
        return fading

    def received_power_dbm(self, tx_power_dbm: float, distance: float,
                           with_fading: bool = True) -> float:
        rx = tx_power_dbm - self.path_loss_db(distance)
        if with_fading:
            rx += self._fading_db()
        return rx

    def mean_received_power_dbm(self, tx_power_dbm: float, distance: float) -> float:
        """Deterministic (fading-free) received power; used for carrier sensing."""
        return tx_power_dbm - self.path_loss_db(distance)

    def interference_mw_at(self, position: float, exclude: Optional["Radio"] = None) -> float:
        """Total interference power (mW) at a position right now.

        Sums registered interferers (jammers) and currently active
        transmissions other than ``exclude``.
        """
        in_flight = self._in_flight(exclude)
        if in_flight is None:
            return 0.0
        return self._interference_mw(position, in_flight)

    def _in_flight(self, exclude: Optional["Radio"]
                   ) -> Optional[list[tuple[float, float]]]:
        """``(position, tx power [dBm])`` of every frame on the air now
        not sent by ``exclude``, for :meth:`_interference_mw`.

        ``None`` when nothing interferes at all: no jammer is registered
        and no such frame is on the air.  Nothing moves while one frame is
        evaluated, so a broadcast takes this once for all its receivers.
        """
        self._reap_active(self.sim.now)
        in_flight = [(tx.sender.position(), tx.power_dbm)
                     for tx in self._active if tx.sender is not exclude]
        if not in_flight and not self._interferers:
            return None
        return in_flight

    def _interference_mw(self, position: float,
                         in_flight: list[tuple[float, float]]) -> float:
        """Interference (mW) at ``position``: every jammer, in
        registration order, then the frames of :meth:`_in_flight`."""
        now = self.sim.now
        total = 0.0
        for source in self._interferers:
            dbm = source.interference_dbm_at(position, now)
            if dbm > float("-inf"):
                total += dbm_to_mw(dbm)
        for sender_position, power_dbm in in_flight:
            distance = abs(sender_position - position)
            total += dbm_to_mw(self.mean_received_power_dbm(power_dbm, distance))
        return total

    def channel_busy(self, radio: "Radio") -> bool:
        """Carrier-sense check used by the MAC: is in-band power above CS threshold?"""
        power_mw = self.interference_mw_at(radio.position(), exclude=radio)
        return mw_to_dbm(power_mw) >= self.config.carrier_sense_dbm

    def _reap_active(self, now: float) -> None:
        self._active = [tx for tx in self._active if tx.end > now]

    # ------------------------------------------------------------ transmission

    def airtime(self, msg: Message) -> float:
        return msg.size_bits() / self.config.bitrate_bps

    def broadcast(self, sender: "Radio", msg: Message,
                  duration: Optional[float] = None) -> None:
        """Transmit ``msg`` from ``sender`` to every other registered radio.

        Reception is evaluated independently per receiver, in
        :meth:`receivers_in_order` order (see its docstring for why the
        order matters).  Delivery (if successful) is scheduled at
        transmission end + propagation delay.  ``duration`` lets the MAC
        pass a precomputed airtime so the frame is not re-serialised.
        """
        cfg = self.config
        now = self.sim.now
        if duration is None:
            duration = self.airtime(msg)
        power = sender.tx_power_dbm if sender.tx_power_dbm is not None else cfg.tx_power_dbm

        self.stats.transmissions += 1
        obs.inc("frames.sent")
        self._reap_active(now)
        self._active.append(_ActiveTransmission(sender, power, now, now + duration))
        for observer in self._tx_observers:
            observer(sender, msg)

        if self.pair_fading is not None:
            self._broadcast_pairwise(sender, msg, duration, power)
        else:
            self._broadcast_shared(sender, msg, duration, power)

    def _broadcast_shared(self, sender: "Radio", msg: Message,
                          duration: float, power: float) -> None:
        """One reception pass over the receivers, drawing from the
        simulator RNG.

        Each attempt makes the draws of :meth:`received_power_dbm` and
        :meth:`_reception_success`, with the same float expressions: a
        shadowing ``gauss`` when sigma > 0, a Rayleigh ``random`` when
        Rayleigh fading is on, then the interferer calls, then the
        success ``random``, even when the probability is 0 or 1.  Those
        methods stay the specification.  Nothing moves while a frame is
        evaluated, so the constants, the in-flight frames and the
        counters are taken or applied once per frame.
        """
        cfg = self.config
        gauss, random = self.sim.rng.gauss, self.sim.rng.random
        log10, log, exp = math.log10, math.log, math.exp
        schedule = self.sim.schedule
        sigma = cfg.shadowing_sigma_db
        shadowing = sigma > 0
        rayleigh = cfg.rayleigh_fading
        reference_loss = cfg.reference_loss_db
        loss_slope = 10.0 * cfg.path_loss_exponent
        min_distance = cfg.min_distance_m
        max_range = cfg.max_range_m
        steepness = cfg.per_steepness
        threshold = cfg.sinr_threshold_db
        propagation_speed = cfg.propagation_speed
        noise_mw = self._noise_mw
        noise_only_dbm = self._noise_only_dbm
        jam_floor_mw = noise_mw * 0.1
        in_flight = self._in_flight(sender)
        sender_pos = sender.position()
        out_of_range = attempts = delivered = jammed = lost_noise = 0
        for receiver in self.receivers_in_order():
            if receiver is sender or not receiver.enabled:
                continue
            position = receiver.position()
            distance = abs(position - sender_pos)
            if distance > max_range:
                out_of_range += 1
                continue
            attempts += 1
            fading = 0.0
            if shadowing:
                fading += gauss(0.0, sigma)
            if rayleigh:
                u = random()
                if u < 1e-12:
                    u = 1e-12
                fading += 10.0 * log10(-log(u))
            d = min_distance if min_distance > distance else distance
            rx_power_dbm = power - (reference_loss + loss_slope * log10(d)) + fading
            interference_mw = (0.0 if in_flight is None
                               else self._interference_mw(position, in_flight))
            if interference_mw == 0.0:
                sinr_db = rx_power_dbm - noise_only_dbm
            else:
                sinr_db = rx_power_dbm - mw_to_dbm(noise_mw + interference_mw)
            x = steepness * (sinr_db - threshold)
            if x > 30:
                p_success = 1.0
            elif x < -30:
                p_success = 0.0
            else:
                p_success = 1.0 / (1.0 + exp(-x))
            if random() < p_success:
                schedule(duration + distance / propagation_speed,
                         receiver.deliver, msg)
                delivered += 1
            elif interference_mw > jam_floor_mw:
                jammed += 1
            else:
                lost_noise += 1
        stats = self.stats
        stats.out_of_range += out_of_range
        stats.delivery_attempts += attempts
        stats.delivered += delivered
        stats.lost_interference += jammed
        stats.lost_noise += lost_noise
        if delivered:
            obs.inc("frames.delivered", delivered)
        if jammed:
            obs.inc("frames.jammed", jammed)
        if lost_noise:
            obs.inc("frames.lost_noise", lost_noise)

    def _broadcast_pairwise(self, sender: "Radio", msg: Message,
                            duration: float, power: float) -> None:
        """Per-receiver reception loop drawing from per-pair streams.

        This is the scalar-kernel pairwise path.  Every float transform
        goes through the shared numpy helpers in :mod:`repro.net.fading`
        (called with length-1 arrays) so the vector kernel's batched
        implementation produces bit-identical results.
        """
        import numpy as np

        from repro.net.fading import path_loss_db_array, success_probability_array

        cfg = self.config
        assert self.pair_fading is not None
        in_flight = self._in_flight(sender)
        sender_pos = sender.position()
        noise_mw = self._noise_mw
        for receiver in self.receivers_in_order():
            if receiver is sender or not receiver.enabled:
                continue
            receiver_pos = receiver.position()
            distance = abs(receiver_pos - sender_pos)
            if distance > cfg.max_range_m:
                self.stats.out_of_range += 1
                continue
            self.stats.delivery_attempts += 1
            fading_db, success_u = self.pair_fading.draw(sender.node_id,
                                                         receiver.node_id)
            loss = path_loss_db_array(np.array([distance]),
                                      cfg.reference_loss_db,
                                      cfg.path_loss_exponent,
                                      cfg.min_distance_m)
            rx_power_dbm = power - loss + fading_db   # length-1 array
            interference_mw = (0.0 if in_flight is None
                               else self._interference_mw(receiver_pos, in_flight))
            if interference_mw == 0.0:
                sinr_db = rx_power_dbm - self._noise_only_dbm
            else:
                sinr_db = rx_power_dbm - mw_to_dbm(noise_mw + interference_mw)
            p_success = success_probability_array(sinr_db,
                                                  cfg.sinr_threshold_db,
                                                  cfg.per_steepness)
            if success_u < float(p_success[0]):
                delay = duration + distance / cfg.propagation_speed
                self.sim.schedule(delay, receiver.deliver, msg)
                self.stats.delivered += 1
                obs.inc("frames.delivered")
            else:
                if interference_mw > noise_mw * 0.1:
                    self.stats.lost_interference += 1
                    obs.inc("frames.jammed")
                else:
                    self.stats.lost_noise += 1
                    obs.inc("frames.lost_noise")

    def _reception_success(self, sinr_db: float) -> bool:
        """Logistic packet-success probability around the SINR threshold."""
        cfg = self.config
        x = cfg.per_steepness * (sinr_db - cfg.sinr_threshold_db)
        # guard against overflow for extreme SINRs
        if x > 30:
            p_success = 1.0
        elif x < -30:
            p_success = 0.0
        else:
            p_success = 1.0 / (1.0 + math.exp(-x))
        return self.sim.rng.random() < p_success

    # --------------------------------------------------------------- utilities

    def expected_pdr(self, distance: float, interference_dbm: float = float("-inf"),
                     samples: int = 200) -> float:
        """Monte-Carlo estimate of delivery probability at a given distance.

        Useful for calibration tests; does not touch channel statistics.
        """
        cfg = self.config
        noise_mw = dbm_to_mw(cfg.noise_floor_dbm) + dbm_to_mw(interference_dbm) \
            if interference_dbm > float("-inf") else dbm_to_mw(cfg.noise_floor_dbm)
        success = 0
        for _ in range(samples):
            rx = self.received_power_dbm(cfg.tx_power_dbm, distance)
            sinr = rx - mw_to_dbm(noise_mw)
            if self._reception_success(sinr):
                success += 1
        return success / samples
