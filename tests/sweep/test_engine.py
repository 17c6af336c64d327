"""Tests for the sweep engine: planning, memoisation, determinism.

Execution tests run tiny episodes (4 vehicles, ~20 simulated seconds):
the engine behaviour under test is size-independent.
"""

import pytest

from repro.core.runner import CampaignRunner, derive_replicate_seed
from repro.sweep.artifacts import artifact_bytes, sweep_csv
from repro.sweep.engine import SweepEngine, expand_points, run_sweep
from repro.sweep.spec import PRESETS, SweepAxis, SweepSpec, Threshold

TINY_BASE = {"n_vehicles": 4, "duration": 20.0, "warmup": 5.0}


def tiny_spec(**overrides):
    defaults = dict(
        name="jam-tiny", threat="jamming",
        axes=(SweepAxis("attack.power_dbm", values=(-10.0, 30.0)),),
        seed_replicates=2, root_seed=7, base=dict(TINY_BASE),
        thresholds=(Threshold("attacked_mean", 0.3),))
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestExpansion:
    def test_grid_product_in_axis_order(self):
        spec = SweepSpec(
            name="x", threat="jamming", root_seed=1,
            axes=(SweepAxis("attack.power_dbm", values=(0.0, 10.0)),
                  SweepAxis("attack.duty_cycle", values=(0.5, 1.0))))
        points = expand_points(spec)
        assert [p.values for p in points] == [
            (("attack.power_dbm", 0.0), ("attack.duty_cycle", 0.5)),
            (("attack.power_dbm", 0.0), ("attack.duty_cycle", 1.0)),
            (("attack.power_dbm", 10.0), ("attack.duty_cycle", 0.5)),
            (("attack.power_dbm", 10.0), ("attack.duty_cycle", 1.0)),
        ]
        assert points[0].label == "attack.power_dbm=0,attack.duty_cycle=0.5"

    def test_unresolved_spec_rejected(self):
        with pytest.raises(ValueError, match="resolved"):
            expand_points(tiny_spec(root_seed=None))


class TestPlanning:
    def test_replicate_seeds_follow_canonical_derivation(self):
        engine = SweepEngine()
        planned = engine.plan(tiny_spec())
        for plan in planned:
            seeds = [rep.baseline.config.seed for rep in plan.replicates]
            assert seeds[0] == derive_replicate_seed(7, "jamming",
                                                     "barrage-30dBm", 0)
            assert seeds[1] == derive_replicate_seed(7, "jamming",
                                                     "barrage-30dBm", 1)
            assert len(set(seeds)) == len(seeds)

    def test_attack_axis_lands_on_attacked_spec_only(self):
        planned = SweepEngine().plan(tiny_spec())
        rep = planned[0].replicates[0]
        assert rep.baseline.overrides == ()
        assert rep.attacked.overrides == (("attack.power_dbm", -10.0),)
        assert rep.defended is None

    def test_baselines_shared_across_attack_points(self):
        planned = SweepEngine().plan(tiny_spec())
        keys_a = [rep.baseline.key for rep in planned[0].replicates]
        keys_b = [rep.baseline.key for rep in planned[1].replicates]
        assert keys_a == keys_b

    def test_scenario_axis_changes_the_config(self):
        spec = tiny_spec(axes=(SweepAxis("n_vehicles", values=(4, 5)),),
                         seed_replicates=1)
        planned = SweepEngine().plan(spec)
        assert planned[0].replicates[0].baseline.config.n_vehicles == 4
        assert planned[1].replicates[0].baseline.config.n_vehicles == 5

    def test_channel_axis_changes_the_nested_config(self):
        spec = tiny_spec(
            axes=(SweepAxis("channel.noise_floor_dbm",
                            values=(-95.0, -85.0)),),
            seed_replicates=1)
        planned = SweepEngine().plan(spec)
        cfgs = [p.replicates[0].baseline.config for p in planned]
        assert cfgs[0].channel.noise_floor_dbm == -95.0
        assert cfgs[1].channel.noise_floor_dbm == -85.0
        assert cfgs[0].seed == cfgs[1].seed    # same replicate stream

    #: sha256 over every planned unit's content key (which hashes the
    #: point's canonical config, seed and overrides), per shipped preset
    #: at root seed 42, 2 replicates and the CLI's base defaults.  A
    #: change here means the sweep would stop sharing store entries
    #: with earlier runs.
    PINNED_PLANS = {
        "channel-loss": "ea42d3493555ff835f85a5399d66ed44"
                        "5d82fbbb305b06599e66f8598ee472d8",
        "jamming-intensity": "870dd285bce6dcff44bc49e7c39776c4"
                             "63847eac275da003d9b54f91230365ea",
        "sybil-count": "f64dd353164310966532cc7b2fa293f9"
                       "6c9a4510791d0de527efef05836b6be4",
        "traffic-density": "054bca1faab32af9a602d9cb819131e6"
                           "23666e946a3355e4c814a0b6938e5da9",
    }

    def test_preset_plans_are_pinned(self):
        import hashlib

        base = {"n_vehicles": 8, "duration": 90.0, "warmup": 10.0,
                "trucks": False}
        digests = {}
        for name, preset in PRESETS.items():
            spec = preset.resolved(root_seed=42, seed_replicates=2,
                                   base_defaults=base)
            keys = [unit.key for plan in SweepEngine().plan(spec)
                    for unit in plan.specs()]
            digests[name] = hashlib.sha256(
                "\n".join(keys).encode()).hexdigest()
        assert digests == self.PINNED_PLANS

    def test_defended_sweep_plans_three_roles(self):
        spec = tiny_spec(mechanism="hybrid_communications")
        planned = SweepEngine().plan(spec)
        rep = planned[0].replicates[0]
        assert rep.defended is not None
        assert rep.defended.mechanism_key == "hybrid_communications"
        assert rep.defended.config.with_vlc is True
        assert rep.defended.overrides == (("attack.power_dbm", -10.0),)


class TestExecution:
    def test_memoisation_shares_baselines(self):
        engine = SweepEngine()
        result = engine.run(tiny_spec())
        report = engine.runner.report()
        # 2 points x 2 replicates x (baseline + attacked) requested...
        assert len(report.units) == 8
        # ...but each replicate's baseline is shared across the 2 points.
        assert report.computed == 6
        assert len(result.points) == 2

    def test_dose_response_monotone_for_jamming(self):
        result = run_sweep(tiny_spec())
        curve = result.curve
        assert curve is not None and curve.xs == [-10.0, 30.0]
        attacked = curve.series("attacked_mean")
        assert attacked[0] <= attacked[1]
        assert result.points[0].replicates == 2

    def test_multi_axis_sweep_has_no_curve(self):
        spec = tiny_spec(
            axes=(SweepAxis("attack.power_dbm", values=(30.0,)),
                  SweepAxis("attack.duty_cycle", values=(0.3, 1.0))),
            seed_replicates=1, thresholds=())
        result = run_sweep(spec)
        assert result.curve is None
        assert result.thresholds == []
        assert len(result.points) == 2

    def test_serial_parallel_cache_byte_identity(self, tmp_path):
        spec = tiny_spec()
        store = f"sqlite:{tmp_path / 'store.db'}"
        cold = run_sweep(spec, runner=CampaignRunner(workers=2, store=store))
        warm = run_sweep(spec, runner=CampaignRunner(store=store))
        plain = run_sweep(spec)
        assert artifact_bytes(cold) == artifact_bytes(warm)
        assert artifact_bytes(cold) == artifact_bytes(plain)
        assert sweep_csv(cold) == sweep_csv(warm) == sweep_csv(plain)

    def test_typoed_attack_axis_fails_loudly(self):
        # Registry-backed schema validation rejects the bogus attribute
        # at spec construction, before anything runs.
        with pytest.raises(ValueError, match="jam_power"):
            tiny_spec(axes=(SweepAxis("attack.jam_power",
                                      values=(10.0,)),),
                      seed_replicates=1, thresholds=())

    def test_sybil_count_axis_reaches_the_attack(self):
        spec = SweepSpec(
            name="sybil-tiny", threat="sybil",
            axes=(SweepAxis("attack.n_ghosts", values=(1, 6)),),
            seed_replicates=1, root_seed=7,
            base={"n_vehicles": 4, "duration": 40.0, "warmup": 5.0})
        result = run_sweep(spec)
        inflation = result.curve.series("attacked_mean")
        assert inflation[0] <= inflation[1]


class TestPresetShapes:
    def test_jamming_preset_expands_to_five_points(self):
        spec = PRESETS["jamming-intensity"].resolved(
            base_defaults=dict(TINY_BASE))
        points = expand_points(spec)
        assert len(points) == 5
        assert [v for (_, v) in (p.values[0] for p in points)] == [
            -10.0, 0.0, 10.0, 20.0, 30.0]
