"""Shared fixtures for the result-store tests."""

import pytest

from repro.store import SqliteStore


@pytest.fixture
def store(tmp_path):
    """A fresh store, closed after the test."""
    fresh = SqliteStore(tmp_path / "store.db")
    yield fresh
    fresh.close()


RECORD = {
    "spec_key": None,               # tests overwrite with the real key
    "threat_key": "jamming",
    "variant": "barrage-30dBm",
    "role": "attacked",
    "mechanism_key": None,
    "seed": 123,
    "metrics": {"pdr": 0.42, "degraded_fraction": 0.72},
    "attack_observables": [{"attack": "JammingAttack",
                            "observables": {"airtime": 1.5}}],
    "defense_observables": {},
    "wall_time": 0.07,
    "observability": {"counters": {"sim.ticks": 900}},
}


def make_record(key: str, **overrides) -> dict:
    record = dict(RECORD)
    record["spec_key"] = key
    record.update(overrides)
    return record


KEY = "a" * 64
OTHER = "b" * 64
