"""Determinism properties of the campaign engine.

Same root seed => bit-identical ThreatOutcome/MatrixCell values across
serial and parallel runs; different seeds => distinct episode traces.
"""

from hypothesis import given, settings, strategies as st

from repro.core.campaign import (
    plan_threat_experiment,
    run_defense_matrix,
    run_threat_catalogue,
)
from repro.core.runner import CampaignRunner, derive_seed, _execute_spec
from repro.core.scenario import ScenarioConfig

roots = st.integers(min_value=0, max_value=2**31 - 1)

# Small/short episodes keep each property example sub-second.
def _config(seed: int) -> ScenarioConfig:
    return ScenarioConfig(n_vehicles=4, duration=25.0, warmup=6.0, seed=seed)


class TestDeriveSeedProperties:
    @given(root=roots)
    @settings(max_examples=60, deadline=None)
    def test_deterministic_and_in_range(self, root):
        assert derive_seed(root, "jamming", "barrage-30dBm") \
            == derive_seed(root, "jamming", "barrage-30dBm")
        assert 0 <= derive_seed(root, "jamming", "barrage-30dBm") < 2**32

    @given(root=roots)
    @settings(max_examples=60, deadline=None)
    def test_components_decorrelate_streams(self, root):
        per_threat = {derive_seed(root, threat, "v")
                      for threat in ("jamming", "replay", "sybil", "dos")}
        assert len(per_threat) == 4

    @given(root=roots)
    @settings(max_examples=60, deadline=None)
    def test_component_order_matters(self, root):
        assert derive_seed(root, "a", "b") != derive_seed(root, "b", "a")


class TestEpisodeDeterminism:
    def test_same_root_seed_identical_outcomes_serial_and_parallel(self):
        config = _config(seed=31)
        first = run_threat_catalogue(config, threats=["jamming"])
        second = run_threat_catalogue(config, threats=["jamming"])
        parallel = run_threat_catalogue(config, threats=["jamming"],
                                        runner=CampaignRunner(workers=2))
        # Dataclass equality covers every field bit-for-bit, including
        # the attack-observables dict.
        assert first == second == parallel

    def test_same_root_seed_identical_matrix_cells(self):
        config = _config(seed=17)
        serial = run_defense_matrix(config, mechanisms=["onboard_security"])
        again = run_defense_matrix(config, mechanisms=["onboard_security"])
        parallel = run_defense_matrix(config, mechanisms=["onboard_security"],
                                      runner=CampaignRunner(workers=2))
        assert serial == again == parallel

    @given(root=st.sampled_from([3, 91, 404, 8675309]))
    @settings(max_examples=4, deadline=None)
    def test_different_roots_produce_distinct_episode_traces(self, root):
        base = plan_threat_experiment("jamming", _config(seed=root))
        other = plan_threat_experiment("jamming", _config(seed=root + 1))
        assert base.baseline.config.seed != other.baseline.config.seed
        record_a = _execute_spec(base.baseline)
        record_b = _execute_spec(other.baseline)
        # Different derived seeds must drive the stochastic channel into
        # measurably different trajectories.
        assert record_a.metrics != record_b.metrics

    def test_unit_reruns_bit_identically_in_isolation(self):
        # Any single unit rerun from its spec alone reproduces the record
        # obtained inside a full campaign run (modulo timing).
        runner = CampaignRunner()
        plan = plan_threat_experiment("falsification", _config(seed=5))
        campaign_record = runner.run([plan.baseline, plan.attacked])
        isolated = _execute_spec(plan.attacked)
        from_campaign = campaign_record[plan.attacked.key]
        assert isolated.metrics == from_campaign.metrics
        assert isolated.attack_observables == from_campaign.attack_observables
