"""Batched radio-channel reception for the vector kernel.

:class:`VectorRadioChannel` subclasses the scalar
:class:`~repro.net.channel.RadioChannel` and overrides only the
stochastic reception path:

* In ``fading_streams="shared"`` mode it inherits the scalar reception
  pass unchanged -- those draws come from the single simulator RNG in
  receiver order, so the pass *is* the random stream and cannot be
  reordered.  Shared-mode episodes are therefore trivially bit-identical
  across kernels.
* In ``fading_streams="pairwise"`` mode each ordered pair owns a
  counter-based stream (:mod:`repro.net.fading`), so one broadcast's
  fading, SINR and success decisions for all receivers are computed as
  single array expressions.  The scalar kernel evaluates the *same*
  numpy expressions one receiver at a time (length-1 arrays); numpy
  ufuncs are shape-consistent, so the two are bit-identical
  record-for-record (enforced by ``tests/kernel/``).  Interference is
  the scalar channel's own per-receiver sum over one per-frame snapshot
  of the frames on the air.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.net.channel import Message, RadioChannel, mw_to_dbm
from repro.net.fading import path_loss_db_array, success_probability_array
from repro.obs import registry as obs

if TYPE_CHECKING:
    from repro.net.radio import Radio


class VectorRadioChannel(RadioChannel):
    """Radio channel with batched (array-op) pairwise reception."""

    def _receiver_positions(self, receivers: list["Radio"]) -> np.ndarray:
        """Positions of ``receivers`` -- one array gather when all pooled.

        Pooled radios advertise their ``(pool, slot)``; when every
        receiver lives in the same pool the positions come from one
        fancy-index over the pool's position array (identical values to
        calling each ``position_fn``, which reads the same slot).  Any
        non-pooled radio (attacker platforms, RSUs) drops the batch to
        the per-receiver calls.
        """
        slots = [r.pool_slot for r in receivers]
        first = slots[0]
        if first is not None and all(
                s is not None and s[0] is first[0] for s in slots):
            return first[0].position[[s[1] for s in slots]]
        return np.array([r.position() for r in receivers])

    def _broadcast_pairwise(self, sender: "Radio", msg: Message,
                            duration: float, power: float) -> None:
        cfg = self.config
        pair_fading = self.pair_fading
        assert pair_fading is not None
        sender_pos = sender.position()
        receivers = [r for r in self.receivers_in_order()
                     if r is not sender and r.enabled]
        if not receivers:
            return
        positions = self._receiver_positions(receivers)
        distances = np.abs(positions - sender_pos)
        out_of_range = distances > cfg.max_range_m
        n_out = int(np.count_nonzero(out_of_range))
        self.stats.out_of_range += n_out
        if n_out:
            idx = np.nonzero(~out_of_range)[0]
            in_receivers = [receivers[i] for i in idx]
            in_distances = distances[idx]
            in_positions = positions[idx]
        else:
            in_receivers = receivers
            in_distances = distances
            in_positions = positions
        attempts = len(in_receivers)
        if attempts == 0:
            return
        self.stats.delivery_attempts += attempts

        fading_db, success_u = pair_fading.draw_batch(
            sender.node_id, [r.node_id for r in in_receivers])
        loss = path_loss_db_array(in_distances, cfg.reference_loss_db,
                                  cfg.path_loss_exponent, cfg.min_distance_m)
        rx_power_dbm = power - loss + fading_db

        noise_mw = self._noise_mw
        interference_mw = None
        in_flight = self._in_flight(sender)
        if in_flight is None:
            sinr_db = rx_power_dbm - self._noise_only_dbm
        else:
            interference_mw = np.empty(attempts)
            denominator_dbm = np.empty(attempts)
            for j in range(attempts):
                mw = self._interference_mw(float(in_positions[j]), in_flight)
                interference_mw[j] = mw
                denominator_dbm[j] = (self._noise_only_dbm if mw == 0.0
                                      else mw_to_dbm(noise_mw + mw))
            sinr_db = rx_power_dbm - denominator_dbm

        p_success = success_probability_array(sinr_db, cfg.sinr_threshold_db,
                                              cfg.per_steepness)
        success = success_u < p_success
        n_success = int(np.count_nonzero(success))

        if n_success:
            delays = duration + in_distances / cfg.propagation_speed
            schedule = self.sim.schedule
            for j in np.nonzero(success)[0]:
                schedule(float(delays[j]), in_receivers[j].deliver, msg)
            self.stats.delivered += n_success
            obs.inc("frames.delivered", n_success)
        n_lost = attempts - n_success
        if n_lost:
            if interference_mw is None:
                n_jammed = 0
            else:
                n_jammed = int(np.count_nonzero(
                    ~success & (interference_mw > noise_mw * 0.1)))
            if n_jammed:
                self.stats.lost_interference += n_jammed
                obs.inc("frames.jammed", n_jammed)
            if n_lost - n_jammed:
                self.stats.lost_noise += n_lost - n_jammed
                obs.inc("frames.lost_noise", n_lost - n_jammed)
