"""The channel's one-pass reception replays the per-receiver specification.

``RadioChannel._broadcast_shared`` evaluates a frame's receivers in one
pass: constants, the in-flight frames and the counters are taken or
applied once per frame.  ``ReferenceRadioChannel`` below keeps the
per-receiver loop that pass replaced, built only from the methods that
remain the specification -- ``received_power_dbm``,
``interference_mw_at`` and ``_reception_success`` -- and the pairwise
loops likewise ask ``interference_mw_at`` once per receiver.

A dense two-lane highway episode with a chasing jammer (concurrent
frames *and* an interferer) and a quiet platoon run through both.  Every
delivery, every channel counter, every ``frames.*`` registry counter and
the simulator RNG state afterwards must be identical.  A property test
then pins one attempt's success probability to the last bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attacks import JammingAttack
from repro.core.scenario import Scenario, ScenarioConfig
from repro.net.channel import (
    ChannelConfig,
    RadioChannel,
    _ActiveTransmission,
    mw_to_dbm,
)
from repro.net.messages import Message
from repro.net.fading import path_loss_db_array, success_probability_array
from repro.net.radio import Radio
from repro.net.simulator import Simulator
from repro.obs import registry as obs

from ..highway.conftest import highway_episode_config


def spec_sinr_db(channel: RadioChannel, rx_power_dbm, interference_mw: float):
    if interference_mw == 0.0:
        return rx_power_dbm - channel._noise_only_dbm
    return rx_power_dbm - mw_to_dbm(channel._noise_mw + interference_mw)


class ReferenceRadioChannel(RadioChannel):
    """Per-receiver reception: one ``interference_mw_at`` per attempt."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.concurrent_frames = 0

    def _count_concurrency(self, sender: Radio) -> None:
        if any(tx.sender is not sender for tx in self._active):
            self.concurrent_frames += 1

    def _outcome(self, success: bool, receiver: Radio, msg, duration: float,
                 distance: float, interference_mw: float) -> None:
        if success:
            delay = duration + distance / self.config.propagation_speed
            self.sim.schedule(delay, receiver.deliver, msg)
            self.stats.delivered += 1
            obs.inc("frames.delivered")
        elif interference_mw > self._noise_mw * 0.1:
            self.stats.lost_interference += 1
            obs.inc("frames.jammed")
        else:
            self.stats.lost_noise += 1
            obs.inc("frames.lost_noise")

    def _broadcast_shared(self, sender, msg, duration, power) -> None:
        self._count_concurrency(sender)
        sender_pos = sender.position()
        for receiver in self.receivers_in_order():
            if receiver is sender or not receiver.enabled:
                continue
            distance = abs(receiver.position() - sender_pos)
            if distance > self.config.max_range_m:
                self.stats.out_of_range += 1
                continue
            self.stats.delivery_attempts += 1
            rx_power_dbm = self.received_power_dbm(power, distance)
            interference_mw = self.interference_mw_at(receiver.position(),
                                                      exclude=sender)
            success = self._reception_success(
                spec_sinr_db(self, rx_power_dbm, interference_mw))
            self._outcome(success, receiver, msg, duration, distance,
                          interference_mw)

    def _broadcast_pairwise(self, sender, msg, duration, power) -> None:
        self._count_concurrency(sender)
        cfg = self.config
        sender_pos = sender.position()
        for receiver in self.receivers_in_order():
            if receiver is sender or not receiver.enabled:
                continue
            distance = abs(receiver.position() - sender_pos)
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
            interference_mw = self.interference_mw_at(receiver.position(),
                                                      exclude=sender)
            p_success = success_probability_array(
                spec_sinr_db(self, power - loss + fading_db, interference_mw),
                cfg.sinr_threshold_db, cfg.per_steepness)
            self._outcome(success_u < float(p_success[0]), receiver, msg,
                          duration, distance, interference_mw)


def _jammed_highway(kernel: str, fading: str) -> Scenario:
    # A short radio range so some receivers are out of range.
    config = highway_episode_config(kernel, fading, duration=20.0)
    scenario = Scenario(config.with_overrides(channel=ChannelConfig(
        fading_streams=fading, max_range_m=300.0)))
    scenario.add_attack(JammingAttack(start_time=4.0, power_dbm=10.0,
                                      chase=True))
    return scenario


def _quiet_platoon(kernel: str, fading: str) -> Scenario:
    return Scenario(ScenarioConfig(
        n_vehicles=4, duration=15.0, seed=3, kernel=kernel,
        channel=ChannelConfig(fading_streams=fading)))


def _run(build, kernel: str, fading: str, channel_cls, monkeypatch) -> dict:
    """One episode; everything reception decided."""
    deliveries: list = []
    original_deliver = Radio.deliver

    def recording_deliver(radio, msg):
        deliveries.append((radio.node_id, radio.sim.now, msg.seq))
        original_deliver(radio, msg)

    with monkeypatch.context() as patch:
        patch.setattr(Radio, "deliver", recording_deliver)
        if channel_cls is not None:
            if kernel == "vector":
                import repro.kernel

                patch.setattr(repro.kernel, "VectorRadioChannel", channel_cls)
            else:
                import repro.core.scenario

                patch.setattr(repro.core.scenario, "RadioChannel", channel_cls)
        with obs.isolated_registry() as registry:
            scenario = build(kernel, fading)
            scenario.run()
    counters = registry.snapshot()["counters"]
    return {
        "channel": scenario.channel,
        "deliveries": deliveries,
        "stats": scenario.channel.stats,
        "frames": {k: v for k, v in counters.items()
                   if k.startswith("frames.")},
        "rng": scenario.sim.rng.getstate(),
    }


KERNEL_FADINGS = pytest.mark.parametrize("kernel,fading", [
    ("scalar", "shared"),
    ("scalar", "pairwise"),
    ("vector", "pairwise"),
])


def _assert_same(reference: dict, fast: dict) -> None:
    assert type(fast["channel"]) is not ReferenceRadioChannel
    assert fast["deliveries"] == reference["deliveries"]
    assert fast["stats"] == reference["stats"]
    assert fast["frames"] == reference["frames"]
    assert fast["rng"] == reference["rng"]


@KERNEL_FADINGS
def test_jammed_highway_matches_per_receiver_reference(kernel, fading,
                                                       monkeypatch):
    reference = _run(_jammed_highway, kernel, fading, ReferenceRadioChannel,
                     monkeypatch)
    fast = _run(_jammed_highway, kernel, fading, None, monkeypatch)
    # The episode exercises every branch the pass folds together.
    assert reference["channel"].concurrent_frames > 0
    stats = reference["stats"]
    assert stats.delivered and stats.lost_interference and stats.lost_noise
    assert stats.out_of_range
    _assert_same(reference, fast)


@KERNEL_FADINGS
def test_quiet_platoon_matches_per_receiver_reference(kernel, fading,
                                                      monkeypatch):
    """Without a jammer no frame is lost to interference, so
    ``frames.jammed`` must stay absent, not appear as a zero."""
    reference = _run(_quiet_platoon, kernel, fading, ReferenceRadioChannel,
                     monkeypatch)
    fast = _run(_quiet_platoon, kernel, fading, None, monkeypatch)
    assert "frames.jammed" not in reference["frames"]
    _assert_same(reference, fast)


class ScriptedRng:
    """Stands in for the simulator RNG: scripted values, every call logged."""

    def __init__(self, gauss_value: float, uniforms: list) -> None:
        self.gauss_value = gauss_value
        self.uniforms = list(uniforms)
        self.calls: list = []

    def gauss(self, mu: float, sigma: float) -> float:
        self.calls.append("gauss")
        return self.gauss_value

    def random(self) -> float:
        self.calls.append("random")
        return self.uniforms.pop(0)


class FixedJammer:
    def __init__(self, dbm: float) -> None:
        self.dbm = dbm

    def interference_dbm_at(self, position: float, now: float) -> float:
        return self.dbm


@given(distance=st.floats(0.0, 400.0),
       sigma=st.sampled_from([0.0, 2.0]), shadow_db=st.floats(-6.0, 6.0),
       rayleigh=st.booleans(),
       rayleigh_u=st.floats(0.0, 1.0, exclude_max=True),
       jammer_dbm=st.none() | st.floats(-120.0, -60.0),
       other_at=st.none() | st.floats(-400.0, 400.0))
@settings(max_examples=300, deadline=None)
def test_one_attempt_is_bit_identical_to_the_specification(
        distance, sigma, shadow_db, rayleigh, rayleigh_u, jammer_dbm,
        other_at):
    """Probe the pass with success draws on either side of the
    specification's exact success probability: it must deliver just
    below it and not at it, so the two probabilities are equal to the
    last bit, and it must make the same draws in the same order."""
    config = ChannelConfig(shadowing_sigma_db=sigma, rayleigh_fading=rayleigh)

    def build(uniforms):
        sim = Simulator(seed=0)
        channel = RadioChannel(sim, config)
        sender = Radio(sim, channel, "tx", lambda: 0.0)
        Radio(sim, channel, "rx", lambda: distance)
        if other_at is not None:
            other = Radio(sim, channel, "other", lambda: other_at)
            other.enabled = False            # on the air, not listening
            channel._active.append(_ActiveTransmission(other, 20.0, 0.0, 1.0))
        if jammer_dbm is not None:
            channel.add_interferer(FixedJammer(jammer_dbm))
        sim.rng = ScriptedRng(shadow_db, uniforms)
        return sim, channel, sender

    fading_draws = [rayleigh_u] if rayleigh else []
    sim, channel, sender = build(fading_draws)
    rx_power_dbm = channel.received_power_dbm(20.0, distance)
    interference_mw = channel.interference_mw_at(distance, exclude=sender)
    sinr_db = spec_sinr_db(channel, rx_power_dbm, interference_mw)
    # _reception_success's probability, which it only compares to a draw.
    x = config.per_steepness * (sinr_db - config.sinr_threshold_db)
    p_success = (1.0 if x > 30 else 0.0 if x < -30
                 else 1.0 / (1.0 + math.exp(-x)))
    spec_calls = sim.rng.calls + ["random"]

    for u, delivered in ((p_success, 0),
                         (math.nextafter(p_success, -math.inf), 1)):
        sim, channel, sender = build(fading_draws + [u])
        channel.broadcast(sender, Message("tx", 0.0, seq=1), duration=1e-3)
        assert channel.stats.delivered == delivered
        assert sim.rng.calls == spec_calls
