"""Golden regression tests: Table II / Table III at the default seed.

These pin the campaign outputs at ``seed=42`` so that refactors of the
engine, the channel stack, or the attack/defence implementations cannot
silently change the reproduced results.  The values below were generated
by running the campaigns once after the deterministic-seeding work
landed; they are exact (the engine is bit-deterministic for a given root
seed), but compared through ``pytest.approx`` to tolerate cross-platform
floating-point variation.

If a change legitimately alters these numbers (new physics, retuned
attack variants, a different seed-derivation scheme), regenerate the
tables with the snippet in this file's docstrings and update the pins in
the same commit, explaining why.
"""

import pytest

from repro.core.campaign import run_defense_matrix, run_threat_catalogue
from repro.core.scenario import ScenarioConfig

GOLDEN_CONFIG = ScenarioConfig(n_vehicles=5, duration=45.0, warmup=8.0,
                               seed=42)

# (threat_key, effect_present, metric_name, baseline, attacked) -- the
# Table II verdict vector in catalogue order.
TABLE2_GOLDEN = [
    ("sybil", True, "roster_inflation", 0.0, 5.0),
    ("fake_maneuver", True, "platoon_fragments", 1.0, 3.0),
    ("replay", True, "gap_open_time_s", 14.9, 38.7),
    ("jamming", True, "degraded_fraction", 0.0, 0.791328),
    ("eavesdropping", True, "route_coverage", 0.0, 0.837),
    ("dos", True, "joins_completed", 1.0, 0.0),
    ("impersonation", True, "victim_expelled", 0.0, 1.0),
    ("sensor_spoofing", True, "tpms_warnings", 0.0, 36.0),
    ("malware", True, "infected_at_end", 0.0, 1.0),
    ("falsification", True, "mean_abs_spacing_error", 0.222156, 0.499585),
]

# (mechanism_key, threat_key) -> (metric_name, mitigation) -- the
# Table III matrix shape.  ``None`` mitigation = attack had no effect on
# that metric in this cell.
TABLE3_GOLDEN = {
    ("secret_public_keys", "eavesdropping"): ("route_coverage", 1.0),
    ("secret_public_keys", "fake_maneuver"): ("gap_open_time_s", 1.0),
    ("secret_public_keys", "replay"): ("gap_open_time_s", 0.663866),
    ("roadside_units", "impersonation"): ("victim_expelled", 1.0),
    ("roadside_units", "fake_maneuver"): ("gap_open_time_s", 1.0),
    ("control_algorithms", "dos"): ("joins_completed", 0.0),
    ("control_algorithms", "sybil"): ("roster_inflation", 0.0),
    ("control_algorithms", "replay"): ("gap_open_time_s", 0.0),
    ("control_algorithms", "fake_maneuver"): ("gap_open_time_s", 0.675258),
    ("hybrid_communications", "jamming"): ("degraded_fraction", 1.0),
    ("hybrid_communications", "sybil"): ("roster_inflation", 1.0),
    ("hybrid_communications", "replay"): ("gap_open_time_s", 0.663866),
    ("hybrid_communications", "fake_maneuver"): ("gap_open_time_s", 1.0),
    ("onboard_security", "malware"): ("infected_at_end", 0.0),
    ("onboard_security", "sensor_spoofing"): ("mean_beacon_error_m",
                                              0.831618),
    ("trust_management", "sybil"): ("roster_inflation", 0.0),
    ("trust_management", "impersonation"): ("victim_expelled", 0.0),
    ("trust_management", "falsification"): ("mean_abs_spacing_error",
                                            0.467335),
}


@pytest.fixture(scope="module")
def catalogue():
    return run_threat_catalogue(GOLDEN_CONFIG)


@pytest.fixture(scope="module")
def matrix():
    return run_defense_matrix(GOLDEN_CONFIG)


class TestTable2Golden:
    def test_verdict_vector(self, catalogue):
        got = [(o.threat_key, o.effect_present, o.metric_name)
               for o in catalogue]
        want = [(t, e, m) for t, e, m, _, _ in TABLE2_GOLDEN]
        assert got == want

    def test_measured_values(self, catalogue):
        by_threat = {o.threat_key: o for o in catalogue}
        for threat, _, _, baseline, attacked in TABLE2_GOLDEN:
            outcome = by_threat[threat]
            assert outcome.baseline_value == pytest.approx(
                baseline, rel=1e-4, abs=1e-6), threat
            assert outcome.attacked_value == pytest.approx(
                attacked, rel=1e-4, abs=1e-6), threat

    def test_all_effects_confirmed(self, catalogue):
        assert all(o.effect_present for o in catalogue)


# Safety-envelope metrics at GOLDEN_CONFIG, pinned like the tables:
# (min_true_gap, min_brake_margin, collision_count).  Regenerate with
#   run_episode(GOLDEN_CONFIG) and
#   experiment_spec("falsification").build(GOLDEN_CONFIG) + run_episode(...)
# and update in the same commit as any legitimate physics change.
SAFETY_GOLDEN = {
    "baseline": (14.923295691373141, 14.554580085040293, 0),
    "falsification_attacked": (14.083685823630503, 6.624252512985166, 0),
}


class TestSafetyGolden:
    @staticmethod
    def check(metrics, key):
        gap, margin, count = SAFETY_GOLDEN[key]
        assert metrics.min_true_gap == pytest.approx(
            gap, rel=1e-4, abs=1e-6), key
        assert metrics.min_brake_margin == pytest.approx(
            margin, rel=1e-4, abs=1e-6), key
        assert metrics.collision_count == count, key

    def test_baseline_envelope(self):
        from repro.core.scenario import run_episode

        self.check(run_episode(GOLDEN_CONFIG).metrics, "baseline")

    def test_falsification_attacked_envelope(self):
        from repro.core.scenario import run_episode
        from repro.experiments import experiment_spec

        experiment = experiment_spec("falsification").build(GOLDEN_CONFIG)
        result = run_episode(experiment.config,
                             attacks=experiment.make_attacks(),
                             setup_hooks=experiment.hooks)
        self.check(result.metrics, "falsification_attacked")


class TestTable3Golden:
    def test_matrix_shape(self, matrix):
        got = {(c.mechanism_key, c.threat_key): c.metric_name
               for c in matrix}
        want = {pair: metric
                for pair, (metric, _) in TABLE3_GOLDEN.items()}
        assert got == want

    def test_mitigation_values(self, matrix):
        by_pair = {(c.mechanism_key, c.threat_key): c for c in matrix}
        for pair, (_, mitigation) in TABLE3_GOLDEN.items():
            cell = by_pair[pair]
            if mitigation is None:
                assert cell.mitigation is None, pair
            else:
                assert cell.mitigation == pytest.approx(
                    mitigation, rel=1e-4, abs=1e-6), pair
