"""End-to-end metrics: each unit's fastest compute time, and whole-command
times rebuilt from those with the median ratio to the compute time."""

import pytest

import run
from workloads import Command, Pass, Workload, check_falsify, check_matrix

SERIAL = Workload(name="w", why="", workers=1,
                  commands=(Command(args=(), check=check_matrix),))
STORE = Workload(name="s", why="", workers=2, store=True,
                 commands=(Command(args=(), check=check_falsify),))


def campaign(wall, unit_times, cpu, rss, setup=0.25, computed=True):
    events = [{"kind": "run_started", "ts": 0.0}]
    for unit, wall_time in unit_times.items():
        events.append({"kind": "unit_started", "unit": unit, "ts": 0.0})
        events.append({"kind": "unit_finished", "unit": unit, "ts": wall,
                       "wall_time": wall_time,
                       "source": "computed" if computed else "disk"})
    return Pass(rc=0, stdout="", events=events, bench={}, artifacts=b"",
                host_wall=wall + 0.5, started_at=-setup, cpu_s=cpu,
                rss_mb=rss)


def test_times_rest_on_each_units_fastest_time():
    # Summed compute 1.7, 1.7 and 1.9 s; fastest per unit a 0.3, b 0.6,
    # c 0.5, so the best work is 1.4 s.
    slow = campaign(2.0, {"a": 0.3, "b": 0.9, "c": 0.5}, cpu=3.4, rss=30.0,
                    setup=0.3)
    fast = campaign(1.7, {"a": 0.4, "b": 0.6, "c": 0.7}, cpu=1.7, rss=31.0,
                    setup=0.2)
    third = campaign(1.9, {"a": 0.5, "b": 0.8, "c": 0.6}, cpu=2.85,
                     rss=32.0, setup=0.1)
    metrics, units = run.end_to_end(
        SERIAL, [[(slow, [])], [(fast, [])], [(third, [])]])
    assert units == 3
    # Compute ÷ wall: 0.85, 1.0, 1.0; CPU ÷ compute: 2.0, 1.0, 1.5.
    assert metrics["parallel_efficiency"] == 1.0
    assert metrics["wall_s"] == pytest.approx(1.4)
    assert metrics["cpu_s"] == pytest.approx(1.4 * 1.5)
    assert metrics["warm_wall_s"] == metrics["wall_s"]  # store-less rerun
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["episode_p50_s"] == 0.5
    assert metrics["peak_rss_mb"] == 31.0


def test_units_of_different_commands_are_kept_apart():
    first = [(campaign(1.0, {"u": 0.4}, cpu=1.0, rss=1.0), []),
             (campaign(1.0, {"u": 0.9}, cpu=1.0, rss=1.0), [])]
    metrics, units = run.end_to_end(SERIAL, [first])
    assert units == 2
    assert metrics["episode_p50_s"] == pytest.approx(0.65)


def test_store_workloads_take_the_fastest_warm_rerun():
    def warm(wall):
        return campaign(wall, {"a": 0.0, "b": 0.0}, cpu=0.1, rss=20.0,
                        computed=False)

    iterations = [
        [(campaign(1.0, {"a": 0.8, "b": 0.8}, cpu=2.0, rss=30.0),
          [warm(0.2), warm(0.3)])],
        [(campaign(1.0, {"a": 0.9, "b": 0.7}, cpu=2.0, rss=30.0),
          [warm(0.4), warm(0.1)])],
    ]
    metrics, units = run.end_to_end(STORE, iterations)
    assert units == 2
    assert metrics["warm_wall_s"] == pytest.approx(0.1)   # any rerun
    # Two workers over 1.6 s of compute in 1.0 s: efficiency 0.8, so the
    # best work of 1.5 s takes 1.5 / (2 × 0.8) s.
    assert metrics["parallel_efficiency"] == pytest.approx(0.8)
    assert metrics["wall_s"] == pytest.approx(1.5 / 1.6)
