"""End-to-end integration tests exercising the whole stack together."""

import pytest

from repro.core.attacks import (
    FakeManeuverAttack,
    FalsificationAttack,
    GpsSpoofingAttack,
    ImpersonationAttack,
    JammingAttack,
    ReplayAttack,
    SybilAttack,
)
from repro.core.campaign import run_defense_matrix, run_threat_catalogue
from repro.core.defenses import (
    FreshnessDefense,
    GroupKeyAuthDefense,
    HybridVlcDefense,
    PkiSignatureDefense,
    ResilientControlDefense,
    TrustFilterDefense,
    VpdAdaDefense,
)
from repro.core.scenario import ScenarioConfig, gap_cycle_hook, run_episode
from repro.risk import build_platoon_tara


@pytest.fixture
def cfg():
    return ScenarioConfig(n_vehicles=6, duration=50.0, warmup=8.0, seed=101)


class TestDefenseStacking:
    def test_full_defense_stack_coexists(self, cfg):
        """All channel-compatible defences installed at once on a clean run:
        nothing fights, the platoon stays healthy."""
        result = run_episode(
            cfg.with_overrides(with_vlc=True),
            defenses=[PkiSignatureDefense(), FreshnessDefense(),
                      VpdAdaDefense(), ResilientControlDefense(),
                      HybridVlcDefense(), TrustFilterDefense()])
        metrics = result.metrics
        assert metrics.collisions == 0
        assert metrics.disbands == 0
        assert metrics.members_remaining == cfg.n_vehicles - 1
        assert metrics.mean_abs_spacing_error < 0.6

    def test_full_stack_against_combined_attack(self, cfg):
        """Multiple simultaneous attacks vs the full stack: the platoon
        holds together and detections fire."""
        result = run_episode(
            cfg.with_overrides(with_vlc=True, duration=60.0),
            attacks=[FakeManeuverAttack(start_time=10.0, mode="entrance",
                                        interval=8.0),
                     FalsificationAttack(start_time=15.0, profile="offset",
                                         position_offset=10.0),
                     ImpersonationAttack(start_time=20.0)],
            defenses=[PkiSignatureDefense(), FreshnessDefense(),
                      VpdAdaDefense(), ResilientControlDefense(),
                      HybridVlcDefense()])
        metrics = result.metrics
        assert metrics.collisions == 0
        assert metrics.gap_open_time_s == 0.0          # forgeries blocked
        assert metrics.members_remaining == 5          # impersonation blocked
        assert metrics.detections > 0                  # insider spotted

    def test_undefended_combined_attack_is_much_worse(self, cfg):
        undefended = run_episode(
            cfg.with_overrides(duration=60.0),
            attacks=[FakeManeuverAttack(start_time=10.0, mode="entrance",
                                        interval=8.0),
                     ImpersonationAttack(start_time=20.0)])
        assert undefended.metrics.gap_open_time_s > 20.0
        assert undefended.metrics.members_remaining < 5


class TestJammingVsHybridEndToEnd:
    def test_platoon_survives_jamming_only_with_hybrid(self, cfg):
        vlc_cfg = cfg.with_overrides(with_vlc=True, duration=60.0)
        def jam():
            return JammingAttack(start_time=10.0, power_dbm=30.0)
        undefended = run_episode(vlc_cfg, attacks=[jam()])
        defended = run_episode(vlc_cfg, attacks=[jam()],
                               defenses=[HybridVlcDefense()])
        assert undefended.metrics.disbands >= 3
        assert defended.metrics.disbands == 0
        assert defended.metrics.members_remaining == 5
        # Fuel: disbanding loses the drag benefit ("all savings are lost").
        assert defended.metrics.fuel_proxy < undefended.metrics.fuel_proxy


class TestReplayChain:
    def test_record_replay_freshness_chain(self, cfg):
        """Replay defeats GroupKey auth alone (valid recorded tags) but not
        GroupKey + freshness: the full §VI-A.1 story in one test."""
        hooks = (gap_cycle_hook(member_index=2, period=12.0, open_for=4.0),)
        base = run_episode(cfg, setup_hooks=hooks)
        auth_only = run_episode(
            cfg, attacks=[ReplayAttack(start_time=8.0, target="maneuvers")],
            defenses=[GroupKeyAuthDefense()], setup_hooks=hooks)
        auth_fresh = run_episode(
            cfg, attacks=[ReplayAttack(start_time=8.0, target="maneuvers")],
            defenses=[GroupKeyAuthDefense(), FreshnessDefense()],
            setup_hooks=hooks)
        assert auth_only.metrics.gap_open_time_s > \
            base.metrics.gap_open_time_s * 1.2
        assert auth_fresh.metrics.gap_open_time_s <= \
            base.metrics.gap_open_time_s * 1.2


class TestSybilCredentialLadder:
    def test_sybil_stopped_only_by_per_identity_credentials(self, cfg):
        config = cfg.with_overrides(max_members=12)
        unprotected = SybilAttack(start_time=8.0, n_ghosts=2, insider=True)
        run_episode(config, attacks=[unprotected])
        group_keyed = SybilAttack(start_time=8.0, n_ghosts=2, insider=True)
        run_episode(config, attacks=[group_keyed],
                    defenses=[GroupKeyAuthDefense()])
        pki = SybilAttack(start_time=8.0, n_ghosts=2, insider=True)
        run_episode(config, attacks=[pki], defenses=[PkiSignatureDefense()])
        assert unprotected.observables()["ghosts_admitted"] == 2
        assert group_keyed.observables()["ghosts_admitted"] == 2  # insider wins
        assert pki.observables()["ghosts_admitted"] == 0          # identity binding


class TestDetectResponsePipeline:
    def test_gps_spoof_detected_then_trust_expels(self, cfg):
        attack = GpsSpoofingAttack(start_time=8.0, drift_rate=3.0)
        trust = TrustFilterDefense()
        result = run_episode(cfg.with_overrides(duration=60.0),
                             attacks=[attack],
                             defenses=[VpdAdaDefense(), trust])
        # VPD detections feed trust; trust expels the spoofed vehicle.
        assert result.metrics.detections > 0
        assert attack.victim_id in trust.observables()["expelled"]


class TestCampaignEndToEnd:
    def test_catalogue_subset_all_effects_present(self):
        config = ScenarioConfig(n_vehicles=5, duration=45.0, warmup=8.0,
                                seed=202)
        outcomes = run_threat_catalogue(config,
                                        threats=["jamming", "fake_maneuver",
                                                 "eavesdropping"])
        assert all(o.effect_present for o in outcomes)

    def test_matrix_cell_end_to_end(self):
        config = ScenarioConfig(n_vehicles=5, duration=45.0, warmup=8.0,
                                seed=203)
        (cell,) = [c for c in run_defense_matrix(config, ["secret_public_keys"])
                   if c.threat_key == "fake_maneuver"]
        assert cell.mitigation is not None
        assert cell.mitigation > 0.8

    def test_risk_calibration_from_campaign(self):
        config = ScenarioConfig(n_vehicles=5, duration=45.0, warmup=8.0,
                                seed=204)
        (outcome,) = run_threat_catalogue(config, ["jamming"])
        tara = build_platoon_tara()
        ratio = (outcome.attacked_value / outcome.baseline_value
                 if outcome.baseline_value else 10.0)
        tara.calibrate({"jamming": ratio})
        scenario = tara.scenario_for("jamming")
        assert scenario.measured_impact is not None


class TestInfrastructureEndToEnd:
    def test_rsu_key_lifecycle_with_auth_enforcement(self):
        """Keys flow TA -> RSU -> vehicles; group-key auth then uses the
        TA's key; a revoked vehicle's traffic is dropped."""
        from repro.core.defenses import RsuKeyDistributionDefense

        config = ScenarioConfig(n_vehicles=5, duration=50.0, warmup=8.0,
                                seed=205, with_authority=True,
                                rsu_positions=(1100.0, 2300.0, 3500.0),
                                rsu_coverage=800.0)
        rsu_defense = RsuKeyDistributionDefense()
        auth_defense = GroupKeyAuthDefense()

        def revoke_mid_run(scenario):
            scenario.sim.schedule_at(
                20.0, lambda: scenario.authority.revoke_vehicle(
                    "veh4", rotate=False))

        result = run_episode(config, defenses=[rsu_defense, auth_defense],
                             setup_hooks=[revoke_mid_run])
        assert rsu_defense.vehicles_with_key() == 5
        assert rsu_defense.dropped_revoked > 0
        assert result.metrics.collisions == 0
