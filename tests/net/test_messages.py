"""Unit tests for message types and the canonical signing encoding."""

import dataclasses
import enum
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.messages import (
    Beacon,
    KeyDistributionMessage,
    ManeuverMessage,
    ManeuverType,
    Message,
    MessageType,
    is_beacon,
    is_maneuver,
)


class TestSigningBytes:
    def test_identical_messages_encode_identically(self):
        a = Beacon(sender_id="v1", timestamp=1.0, seq=5, position=10.0)
        b = Beacon(sender_id="v1", timestamp=1.0, seq=5, position=10.0)
        assert a.signing_bytes() == b.signing_bytes()

    @pytest.mark.parametrize("field,value", [
        ("sender_id", "v2"),
        ("timestamp", 2.0),
        ("position", 11.0),
        ("speed", 3.0),
        ("acceleration", -1.0),
        ("platoon_id", "p9"),
    ])
    def test_tampering_any_covered_field_changes_bytes(self, field, value):
        msg = Beacon(sender_id="v1", timestamp=1.0, seq=5)
        baseline = msg.signing_bytes()
        setattr(msg, field, value)
        assert msg.signing_bytes() != baseline

    def test_envelope_fields_not_covered(self):
        msg = Beacon(sender_id="v1", timestamp=1.0, seq=5)
        baseline = msg.signing_bytes()
        msg.auth_tag = b"tag"
        msg.signature = b"sig"
        msg.cert = object()
        msg.vlc_copy = True
        assert msg.signing_bytes() == baseline

    def test_nonce_is_covered_when_present(self):
        msg = Beacon(sender_id="v1", timestamp=1.0, seq=5)
        baseline = msg.signing_bytes()
        msg.nonce = 7
        assert msg.signing_bytes() != baseline

    def test_payload_is_covered(self):
        msg = Message(sender_id="v1", timestamp=1.0, seq=5)
        baseline = msg.signing_bytes()
        msg.payload["k"] = "v"
        assert msg.signing_bytes() != baseline


def composed_signing_bytes(msg: Message) -> bytes:
    """The signing encoding composed from scratch on every call: a fresh
    field walk and ``json.dumps``.  ``Message.signing_bytes`` must match it
    byte for byte."""
    body = {}
    for f in dataclasses.fields(msg):
        if f.name in Message._ENVELOPE_FIELDS:
            continue
        value = getattr(msg, f.name)
        if isinstance(value, enum.Enum):
            value = value.value
        body[f.name] = value
    if msg.nonce is not None:
        body["nonce"] = msg.nonce
    return json.dumps(body, sort_keys=True, default=str).encode()


_text = st.text(max_size=8)
_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | _text | st.binary(max_size=8)
            | st.sampled_from(ManeuverType) | st.sampled_from(MessageType))
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_text, inner, max_size=3)),
    max_leaves=8)
_envelope = dict(payload=st.dictionaries(_text, _values, max_size=4),
                 nonce=st.none() | st.integers(min_value=0),
                 auth_tag=st.none() | st.binary(max_size=8),
                 vlc_copy=st.booleans())
_optional_text = st.none() | _text

_messages = (
    st.builds(Beacon, sender_id=_text, timestamp=st.floats(),
              seq=st.integers(), position=st.floats(), speed=st.floats(),
              lane=st.integers(), platoon_id=_optional_text,
              platoon_index=st.none() | st.integers(),
              is_leader=st.booleans(), **_envelope)
    | st.builds(ManeuverMessage, sender_id=_text, timestamp=st.floats(),
                seq=st.integers(), maneuver=st.sampled_from(ManeuverType),
                platoon_id=_optional_text, target_id=_optional_text,
                gap_size=st.floats(), split_index=st.none() | st.integers(),
                speed=st.none() | st.floats(), **_envelope)
    | st.builds(KeyDistributionMessage, sender_id=_text,
                timestamp=st.floats(), seq=st.integers(),
                key_id=_optional_text,
                encrypted_key=st.none() | st.binary(max_size=16),
                revoked_ids=st.lists(_text, max_size=3).map(tuple),
                recipient_id=_optional_text, **_envelope)
    | st.builds(Message, sender_id=_text, timestamp=st.floats(),
                seq=st.integers(), msg_type=st.sampled_from(MessageType),
                **_envelope))


class TestSigningBytesEncoding:
    @given(msg=_messages)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_composed_encoding(self, msg):
        assert msg.signing_bytes() == composed_signing_bytes(msg)

    @given(msg=_messages, key=_text, value=_values)
    @settings(max_examples=100, deadline=None)
    def test_in_place_payload_mutation_is_seen(self, msg, key, value):
        """Attacks mutate copies in place; nothing may be memoised."""
        msg.signing_bytes()
        msg.payload[key] = value
        msg.nonce = 7 if msg.nonce is None else None
        assert msg.signing_bytes() == composed_signing_bytes(msg)


class TestCopy:
    def test_copy_is_independent(self):
        msg = ManeuverMessage(sender_id="v1", timestamp=1.0,
                              maneuver=ManeuverType.GAP_OPEN)
        msg.payload["roster"] = ["a", "b"]
        dup = msg.copy()
        dup.payload["roster"].append("c")
        dup.gap_size = 9.0
        assert msg.payload["roster"] == ["a", "b"]
        assert msg.gap_size != 9.0

    def test_copy_preserves_envelope(self):
        msg = Beacon(sender_id="v1", timestamp=1.0)
        msg.auth_tag = b"t"
        assert msg.copy().auth_tag == b"t"


class TestTypes:
    def test_beacon_type_set_by_post_init(self):
        assert Beacon(sender_id="v", timestamp=0.0).msg_type is MessageType.BEACON

    def test_maneuver_type_set_by_post_init(self):
        msg = ManeuverMessage(sender_id="v", timestamp=0.0)
        assert msg.msg_type is MessageType.MANEUVER

    def test_key_distribution_type(self):
        msg = KeyDistributionMessage(sender_id="rsu", timestamp=0.0)
        assert msg.msg_type is MessageType.KEY_DISTRIBUTION

    def test_is_beacon_helper(self):
        assert is_beacon(Beacon(sender_id="v", timestamp=0.0))
        assert not is_beacon(ManeuverMessage(sender_id="v", timestamp=0.0))

    def test_is_maneuver_with_kind(self):
        msg = ManeuverMessage(sender_id="v", timestamp=0.0,
                              maneuver=ManeuverType.SPLIT_COMMAND)
        assert is_maneuver(msg)
        assert is_maneuver(msg, ManeuverType.SPLIT_COMMAND)
        assert not is_maneuver(msg, ManeuverType.JOIN_REQUEST)

    def test_seq_is_unique_and_monotone(self):
        a = Beacon(sender_id="v", timestamp=0.0)
        b = Beacon(sender_id="v", timestamp=0.0)
        assert b.seq > a.seq

    def test_size_bits_positive_and_grows_with_payload(self):
        small = Message(sender_id="v", timestamp=0.0)
        big = Message(sender_id="v", timestamp=0.0,
                      payload={"blob": "x" * 500})
        assert small.size_bits() > 0
        assert big.size_bits() > small.size_bits()

    def test_describe_mentions_sender(self):
        msg = Beacon(sender_id="veh3", timestamp=1.5)
        assert "veh3" in msg.describe()
