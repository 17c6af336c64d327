"""Output checks: a flipped verdict or a raise fails the units it feeds."""

from workloads import Pass, Verdict, check_falsify, check_matrix, check_sweep


def make_pass(rc=0, stdout="", bench=None, units=2, computed=True, **kw):
    events = [{"kind": "run_started", "ts": 1.0}]
    for i in range(units):
        events.append({"kind": "unit_started", "unit": f"u{i}", "ts": 1.0})
        events.append({"kind": "unit_finished", "unit": f"u{i}", "ts": 2.0,
                       "wall_time": 0.5, "cache_hit": not computed,
                       "source": "computed" if computed else "disk"})
    return Pass(rc=rc, stdout=stdout, events=events, bench=bench or {},
                artifacts=b"", host_wall=1.5, started_at=0.5, **kw)


MITIGATED = {"secret_public_keys/replay.defended": 20.0,
             "secret_public_keys/replay.mitigation": 1.0}


def test_raising_sweep_fails_every_unit():
    verdict = Verdict(attempted=10)
    check_sweep(make_pass(rc=1, bench={}, units=3), [], verdict)
    assert verdict.failed == 10


def test_positive_mitigations_pass():
    verdict = Verdict(attempted=3)
    check_matrix(make_pass(bench=MITIGATED, units=3), [], verdict)
    assert (verdict.failed, verdict.problems) == (0, [])


def test_non_positive_mitigation_fails_the_cell():
    bench = {"secret_public_keys/replay.defended": 20.0,
             "secret_public_keys/replay.mitigation": 1.0,
             "secret_public_keys/eavesdropping.defended": 0.8,
             "secret_public_keys/eavesdropping.mitigation": -0.2,
             "secret_public_keys/fake_maneuver.defended": 0.0}
    verdict = Verdict(attempted=9)
    check_matrix(make_pass(bench=bench, units=9), [], verdict)
    assert verdict.failed == 6
    assert len(verdict.problems) == 2


def test_every_warm_falsify_rerun_must_be_all_hits():
    found = "violation found: brake-envelope breach\n"
    cold = make_pass(stdout=found, units=3)
    hits = make_pass(stdout=found, units=3, computed=False)
    verdict = Verdict(attempted=9)
    check_falsify(cold, [hits, hits], verdict)
    assert verdict.failed == 0
    verdict = Verdict(attempted=9)
    check_falsify(cold, [hits, make_pass(stdout=found, units=3)], verdict)
    assert verdict.failed == 3
    verdict = Verdict(attempted=3)
    check_falsify(cold, [], verdict)
    assert verdict.failed == 3


def test_falsify_miss_is_not_a_violation():
    miss = "no safety violation found within the episode budget\n"
    verdict = Verdict(attempted=6)
    check_falsify(make_pass(stdout=miss, units=3),
                  [make_pass(stdout=miss, units=3, computed=False)], verdict)
    assert verdict.failed == 6


def test_digest_follows_results_not_timings():
    a = make_pass(stdout="row\ncampaign: 3 units in 1.0s wall", bench=MITIGATED)
    b = make_pass(stdout="row\ncampaign: 3 units in 9.9s wall", bench=MITIGATED)
    flipped = make_pass(stdout="row", bench=dict(
        MITIGATED, **{"secret_public_keys/replay.mitigation": -1.0}))
    assert a.digest == b.digest != flipped.digest
