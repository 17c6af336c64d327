"""Predecessor-geometry regression tests, under both kernels.

Inside a ``World.frozen()`` scope -- a control tick's sense phase, a
metrics or trace sample -- every predecessor query shares one
lane-partitioned map.  A lane change or a ``World.remove`` inside the
scope must rebuild it (``Vehicle.change_lane`` bumps the membership
version via ``World.notify_lane_change``), otherwise sensor reads serve
a stale predecessor from the old lane.  Outside a scope a query is the
linear scan, so a direct position write between events is always seen.
The tests prime the map first, so they fail against a map that outlives
those changes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.scenario import Scenario, ScenarioConfig
from repro.platoon.world import World

from .conftest import highway_episode_config, three_platoon_highway

KERNELS = ("scalar", "vector")


def brute_force_predecessor(world, vehicle):
    """The linear-scan definition: nearest vehicle ahead, same lane."""
    best = None
    for other in world.vehicles():
        if other is vehicle or other.lane != vehicle.lane:
            continue
        if other.position > vehicle.position:
            if best is None or other.position < best.position:
                best = other
    return best


def brute_force_collisions(world):
    out = []
    for vehicle in world.vehicles():
        pred = brute_force_predecessor(world, vehicle)
        if pred is not None and world.gap_between(vehicle, pred) <= 0.0:
            out.append((vehicle.vehicle_id, pred.vehicle_id))
    return out


def assert_matches_bruteforce(world):
    for vehicle in world.vehicles():
        assert world.predecessor_of(vehicle) is \
            brute_force_predecessor(world, vehicle), vehicle.vehicle_id


class TestPredecessorCacheInvalidation:
    """Changes inside a ``World.frozen()`` scope rebuild its map."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_remove_inside_scope_rebuilds_map(self, kernel):
        scenario = Scenario(ScenarioConfig(n_vehicles=4, kernel=kernel,
                                           seed=5))
        world = scenario.world
        tail = scenario.platoon_vehicles[-1]
        ahead = scenario.platoon_vehicles[-2]
        with world.frozen():
            assert world.predecessor_of(tail) is ahead
            world.remove(ahead.vehicle_id)
            assert world.predecessor_of(tail) is scenario.platoon_vehicles[-3]
            assert_matches_bruteforce(world)

    def test_lane_change_invalidates_cached_map(self):
        for kernel in KERNELS:
            scenario = Scenario(ScenarioConfig(n_vehicles=4, kernel=kernel,
                                               seed=5))
            world = scenario.world
            tail = scenario.platoon_vehicles[-1]
            ahead = scenario.platoon_vehicles[-2]
            with world.frozen():
                # Prime the map while everyone shares lane 0.
                assert world.predecessor_of(tail) is ahead
                tail.change_lane(1)
                # Lane 1 is empty: a stale map would still return `ahead`.
                assert world.predecessor_of(tail) is None
                tail.change_lane(0)
                assert world.predecessor_of(tail) is ahead

    def test_lane_change_is_recorded(self):
        scenario = Scenario(ScenarioConfig(n_vehicles=3, kernel="vector",
                                           seed=5))
        vehicle = scenario.platoon_vehicles[-1]
        vehicle.change_lane(1, reason="test")
        assert scenario.events.count("lane_change") == 1
        (event,) = scenario.events.of_kind("lane_change")
        assert event.data["from_lane"] == 0
        assert event.data["to_lane"] == 1
        assert event.data["reason"] == "test"
        # Changing to the current lane is a no-op, not an event.
        vehicle.change_lane(1, reason="test")
        assert scenario.events.count("lane_change") == 1

    def test_cached_map_matches_bruteforce_across_lane_moves(self):
        """Cross-check the bisect map against the scan on a two-lane
        highway, through a shuffle of moves inside one scope."""
        for kernel in KERNELS:
            scenario = Scenario(highway_episode_config(kernel, "pairwise"))
            world = scenario.world
            movers = [v for handle in scenario.highway_platoons
                      for v in handle.vehicles[1:]]
            with world.frozen():
                assert_matches_bruteforce(world)     # primes the map
                for i, vehicle in enumerate(movers):
                    vehicle.change_lane((vehicle.lane + 1) % 2)
                    assert_matches_bruteforce(world)
                    if i % 2 == 0:           # move some of them back
                        vehicle.change_lane((vehicle.lane + 1) % 2)
                        assert_matches_bruteforce(world)


@pytest.mark.parametrize("kernel", KERNELS)
class TestPredecessorOutsideScope:
    def test_teleport_between_events_is_seen(self, kernel):
        """A direct position write outside any scope (as the collision
        tests do) is seen by the next query, however recently a control
        tick, a sample or a query primed a map."""
        scenario = Scenario(ScenarioConfig(n_vehicles=4, kernel=kernel,
                                           seed=5))
        world = scenario.world
        scenario.sim.run_until(2.0)          # control ticks and samples ran
        leader, follower = scenario.platoon_vehicles[:2]
        assert world.predecessor_of(follower) is leader
        assert world.collisions() == []
        follower.dynamics.state.position = leader.position + 1.0
        assert world.predecessor_of(follower) is None
        assert_matches_bruteforce(world)
        assert world.collisions() == brute_force_collisions(world) != []

    def test_scope_ends_with_its_map(self, kernel):
        scenario = Scenario(ScenarioConfig(n_vehicles=3, kernel=kernel,
                                           seed=5))
        world = scenario.world
        leader, follower = scenario.platoon_vehicles[:2]
        with world.frozen():
            assert world.predecessor_of(follower) is leader
        follower.dynamics.state.position = leader.position + 5.0
        with world.frozen():
            assert world.predecessor_of(follower) is None
            assert_matches_bruteforce(world)

    def test_every_scoped_answer_through_an_episode(self, kernel,
                                                    monkeypatch):
        """Every predecessor answer given inside a scope -- control ticks,
        metrics and trace samples -- through a highway episode whose
        scripted driver keeps changing lanes."""
        original = World.predecessor_of
        checked = []

        def checking_predecessor_of(world, vehicle):
            answer = original(world, vehicle)
            if world._frozen:
                assert answer is brute_force_predecessor(world, vehicle)
                checked.append(vehicle.vehicle_id)
            return answer

        monkeypatch.setattr(World, "predecessor_of", checking_predecessor_of)
        # A third lane and a faster driver: on the two-lane layout the
        # driver never finds a safe gap within the episode.
        highway = replace(three_platoon_highway(), lanes=3,
                          lane_change_interval=1.0)
        scenario = Scenario(highway_episode_config(
            kernel, "pairwise", duration=20.0, highway=highway))
        scenario.run()
        assert scenario.events.count("lane_change") >= 3
        assert len(checked) > 1000
