"""Tests for the campaign execution engine (`repro.core.runner`).

Covers cache hit/miss accounting, worker-pool vs serial equivalence,
seed-derivation stability, result-store persistence, and corrupt,
stale or misfiled store rows (recompute, never crash).
"""

import json
import os

import pytest

from repro.core import taxonomy
from repro.core.campaign import (
    plan_threat_experiment,
    run_defense_matrix,
    run_threat_catalogue,
)
from repro.core.runner import (
    CampaignRunner,
    EpisodeSpec,
    apply_parameter_overrides,
    derive_replicate_seed,
    derive_seed,
)
from repro.core.scenario import ScenarioConfig
from repro.experiments import experiment_spec
from repro.store import SqliteStore

# Small episodes: the engine behaviour under test is identical at any size.
TINY = ScenarioConfig(n_vehicles=4, duration=30.0, warmup=6.0, seed=7)


class TestDeriveSeed:
    def test_stable_pinned_values(self):
        # Pinned forever: changing the derivation silently reshuffles every
        # campaign's random streams.
        assert derive_seed(42, "jamming", "barrage-30dBm") == 1413091112
        assert derive_seed(42, "replay", "gap-command-replay") == 3032503620
        assert derive_seed(0, "jamming", "barrage-30dBm") == 3610327037

    def test_deterministic_and_in_range(self):
        for root in (0, 1, 42, 2**31):
            a = derive_seed(root, "threat", "variant")
            b = derive_seed(root, "threat", "variant")
            assert a == b
            assert 0 <= a < 2**32

    def test_sensitive_to_every_component(self):
        base = derive_seed(42, "jamming", "barrage-30dBm")
        assert derive_seed(43, "jamming", "barrage-30dBm") != base
        assert derive_seed(42, "replay", "barrage-30dBm") != base
        assert derive_seed(42, "jamming", "other") != base


class TestEpisodeSpec:
    def test_key_stable_and_config_sensitive(self):
        spec = EpisodeSpec("jamming", "barrage-30dBm", "baseline", TINY)
        assert spec.key == EpisodeSpec("jamming", "barrage-30dBm",
                                       "baseline", TINY).key
        reseeded = EpisodeSpec("jamming", "barrage-30dBm", "baseline",
                               TINY.with_overrides(seed=8))
        assert reseeded.key != spec.key
        attacked = EpisodeSpec("jamming", "barrage-30dBm", "attacked", TINY)
        assert attacked.key != spec.key

    def test_defended_requires_mechanism(self):
        with pytest.raises(ValueError):
            EpisodeSpec("jamming", "v", "defended", TINY)
        with pytest.raises(ValueError):
            EpisodeSpec("jamming", "v", "baseline", TINY,
                        mechanism_key="secret_public_keys")
        with pytest.raises(ValueError):
            EpisodeSpec("jamming", "v", "bogus", TINY)

    def test_override_paths_validated(self):
        with pytest.raises(ValueError, match="bad override path"):
            EpisodeSpec("jamming", "v", "attacked", TINY,
                        overrides=(("power_dbm", 10.0),))
        with pytest.raises(ValueError, match="baseline"):
            EpisodeSpec("jamming", "v", "baseline", TINY,
                        overrides=(("attack.power_dbm", 10.0),))
        with pytest.raises(ValueError, match="defended"):
            EpisodeSpec("jamming", "v", "attacked", TINY,
                        overrides=(("defense.expel", True),))

    def test_overrides_canonicalised_and_hashed(self):
        spec = EpisodeSpec("jamming", "v", "attacked", TINY,
                           overrides=(("attack.power_dbm", 10.0),
                                      ("attack.duty_cycle", 0.5)))
        swapped = EpisodeSpec("jamming", "v", "attacked", TINY,
                              overrides=(("attack.duty_cycle", 0.5),
                                         ("attack.power_dbm", 10.0)))
        assert spec.overrides == swapped.overrides        # sorted
        assert spec.key == swapped.key
        plain = EpisodeSpec("jamming", "v", "attacked", TINY)
        assert spec.key != plain.key
        other = EpisodeSpec("jamming", "v", "attacked", TINY,
                            overrides=(("attack.power_dbm", 20.0),
                                       ("attack.duty_cycle", 0.5)))
        assert spec.key != other.key

    def test_empty_overrides_preserve_pre_sweep_hashes(self):
        # Adding the overrides field must not invalidate existing caches:
        # an override-free spec hashes exactly as it did before.
        spec = EpisodeSpec("jamming", "barrage-30dBm", "baseline", TINY,
                           overrides=())
        assert spec.key == EpisodeSpec("jamming", "barrage-30dBm",
                                       "baseline", TINY).key

    def test_worker_reconstruction_is_idempotent(self):
        # Workers rebuild the experiment from the spec's resolved config;
        # for every catalogued threat that rebuild must be a fixed point,
        # otherwise the content hash would alias distinct episodes.
        for key in taxonomy.THREATS:
            plan = plan_threat_experiment(key, TINY)
            rebuilt = experiment_spec(key, plan.baseline.variant).build(
                plan.baseline.config)
            assert rebuilt.config == plan.baseline.config, key


class TestEpisodeSpecPayload:
    """EpisodeSpec with an inline experiment payload (the falsifier's
    execution path)."""

    @staticmethod
    def payload(**kwargs):
        from repro.core.experiment import (
            ComponentSpec,
            ExperimentSpec,
            MetricSpec,
        )

        defaults = dict(
            name="payload",
            threat="falsification", variant="payload",
            attacks=(ComponentSpec("falsification",
                                   {"profile": "oscillate", "amplitude": 3.0,
                                    "period": 8.0, "insider_index": 1,
                                    "start_time": 6.0, "stop_time": 20.0}),),
            metric=MetricSpec("min_true_gap"))
        defaults.update(kwargs)
        return ExperimentSpec(**defaults).to_dict()

    def test_payload_changes_key(self):
        plain = EpisodeSpec("falsification", "payload", "attacked", TINY)
        carried = EpisodeSpec("falsification", "payload", "attacked", TINY,
                              experiment=self.payload())
        assert carried.key != plain.key
        from repro.core.experiment import ComponentSpec

        other = EpisodeSpec(
            "falsification", "payload", "attacked", TINY,
            experiment=self.payload(attacks=(ComponentSpec(
                "falsification",
                {"profile": "oscillate", "amplitude": 5.0, "period": 8.0,
                 "insider_index": 1, "start_time": 6.0,
                 "stop_time": 20.0}),)))
        assert other.key != carried.key

    def test_absent_payload_preserves_old_hashes(self):
        spec = EpisodeSpec("jamming", "barrage-30dBm", "baseline", TINY,
                           experiment=None)
        assert spec.key == EpisodeSpec("jamming", "barrage-30dBm",
                                       "baseline", TINY).key

    def test_payload_is_json_normalised(self):
        payload = self.payload()
        spec = EpisodeSpec("falsification", "payload", "attacked", TINY,
                           experiment=payload)
        assert spec.experiment == json.loads(json.dumps(payload))

    def test_defended_payload_defences_stand_in_for_mechanism(self):
        from repro.core.experiment import ComponentSpec

        defended = self.payload(defenses=(ComponentSpec("freshness"),))
        spec = EpisodeSpec("falsification", "payload", "defended", TINY,
                           experiment=defended)
        assert spec.mechanism_key is None
        # ...but a defence-free payload still needs a mechanism.
        with pytest.raises(ValueError, match="mechanism_key"):
            EpisodeSpec("falsification", "payload", "defended", TINY,
                        experiment=self.payload())
        with pytest.raises(ValueError, match="mechanism_key"):
            EpisodeSpec("falsification", "payload", "attacked", TINY,
                        experiment=defended,
                        mechanism_key="secret_public_keys")

    def test_payload_execution_matches_direct_run(self):
        from repro.core.experiment import ExperimentSpec
        from repro.core.scenario import run_episode
        import dataclasses

        payload = self.payload()
        espec = ExperimentSpec.from_dict(payload)
        experiment = espec.build(TINY)
        direct = run_episode(experiment.config,
                             attacks=experiment.make_attacks(),
                             setup_hooks=experiment.hooks)
        spec = EpisodeSpec("falsification", "payload", "attacked",
                           experiment.config, experiment=payload)
        record = CampaignRunner().run([spec])[spec.key]
        assert record.metrics == json.loads(json.dumps(
            dataclasses.asdict(direct.metrics)))

    def test_payload_baseline_ignores_attacks(self):
        from repro.core.experiment import ExperimentSpec
        from repro.core.scenario import run_episode
        import dataclasses

        payload = self.payload()
        config = ExperimentSpec.from_dict(payload).build(TINY).config
        spec = EpisodeSpec("falsification", "payload", "baseline", config,
                           experiment=payload)
        record = CampaignRunner().run([spec])[spec.key]
        clean = run_episode(config)
        assert record.metrics == json.loads(json.dumps(
            dataclasses.asdict(clean.metrics)))


class TestApplyParameterOverrides:
    def test_sets_attack_attribute(self):
        from repro.core.attacks import JammingAttack

        attack = JammingAttack(power_dbm=30.0)
        apply_parameter_overrides([attack], [],
                                  [("attack.power_dbm", -5.0)])
        assert attack.power_dbm == -5.0

    def test_missing_attribute_fails_loudly(self):
        from repro.core.attacks import JammingAttack

        with pytest.raises(ValueError, match="jam_power"):
            apply_parameter_overrides([JammingAttack()], [],
                                      [("attack.jam_power", 10.0)])

    def test_defense_overrides_target_defenses(self):
        from repro.core.defenses import TrustFilterDefense

        defense = TrustFilterDefense(expel=True)
        apply_parameter_overrides([], [defense], [("defense.expel", False)])
        assert defense.expel is False


class TestReplicateSeeds:
    def test_replicate_zero_is_canonical(self):
        assert derive_replicate_seed(42, "jamming", "barrage-30dBm", 0) == \
            derive_seed(42, "jamming", "barrage-30dBm")

    def test_replicates_decorrelated(self):
        seeds = {derive_replicate_seed(42, "jamming", "barrage-30dBm", r)
                 for r in range(8)}
        assert len(seeds) == 8

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError):
            derive_replicate_seed(42, "jamming", "v", -1)


class TestPlanning:
    def test_seed_derived_from_root(self):
        plan = plan_threat_experiment("jamming", TINY)
        expected = derive_seed(TINY.seed, "jamming", plan.experiment.variant)
        assert plan.baseline.config.seed == expected
        assert plan.attacked.config.seed == expected

    def test_mechanism_requirements_applied(self):
        plan = plan_threat_experiment("jamming", TINY,
                                      mechanism_key="hybrid_communications")
        assert plan.baseline.config.with_vlc is True
        assert plan.defended is not None
        assert plan.defended.mechanism_key == "hybrid_communications"

    def test_shared_config_across_roles(self):
        plan = plan_threat_experiment("falsification", TINY,
                                      mechanism_key="trust_management")
        assert plan.baseline.config == plan.attacked.config
        assert plan.attacked.config == plan.defended.config


class TestCacheAccounting:
    def test_first_run_all_misses_rerun_all_hits(self):
        runner = CampaignRunner()
        first = run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
        report = runner.report()
        assert len(report.units) == 2
        assert report.computed == 2 and report.cache_hits == 0
        second = run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
        report = runner.report()
        assert len(report.units) == 4
        assert report.computed == 2 and report.cache_hits == 2
        assert first == second

    def test_no_key_computed_twice(self):
        runner = CampaignRunner()
        run_defense_matrix(TINY, mechanisms=["secret_public_keys",
                                             "control_algorithms"],
                           runner=runner)
        computed = [u.key for u in runner.report().units if not u.cache_hit]
        assert len(computed) == len(set(computed))

    def test_matrix_baselines_shared_across_mechanisms(self):
        # secret_public_keys and control_algorithms have no config
        # requirements, so their shared threats (replay, fake_maneuver)
        # reuse one baseline + one attacked episode each.
        runner = CampaignRunner()
        cells = run_defense_matrix(TINY, mechanisms=["secret_public_keys",
                                                     "control_algorithms"],
                                   runner=runner)
        assert len(cells) == 7          # 3 + 4 targets
        report = runner.report()
        assert len(report.units) == 21  # 3 roles per cell
        baseline_units = [u for u in report.units if u.role == "baseline"]
        distinct = {u.key for u in baseline_units}
        computed = [u for u in baseline_units if not u.cache_hit]
        assert len(computed) == len(distinct) == 5
        assert report.cache_hits == 4   # replay + fake_maneuver, both roles

    def test_wall_time_recorded_for_computed_units(self):
        runner = CampaignRunner()
        run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
        for unit in runner.report().units:
            assert unit.wall_time > 0.0


class TestSerialParallelEquivalence:
    def test_catalogue_identical_across_worker_counts(self):
        serial = run_threat_catalogue(TINY, threats=["jamming",
                                                     "falsification"])
        parallel = run_threat_catalogue(TINY, threats=["jamming",
                                                       "falsification"],
                                        runner=CampaignRunner(workers=2))
        assert serial == parallel

    def test_matrix_identical_across_worker_counts(self):
        serial = run_defense_matrix(TINY, mechanisms=["onboard_security"])
        parallel = run_defense_matrix(TINY, mechanisms=["onboard_security"],
                                      runner=CampaignRunner(workers=2))
        assert serial == parallel


class TestDiskCache:
    @staticmethod
    def url(tmp_path):
        return f"sqlite:{tmp_path / 'store.db'}"

    @staticmethod
    def execute(tmp_path, sql, params=()):
        """Edit the store's rows behind the runner's back."""
        with SqliteStore(tmp_path / "store.db") as store:
            store._connect().execute(sql, params)

    def test_persists_across_runner_instances(self, tmp_path):
        url = self.url(tmp_path)
        first = run_threat_catalogue(TINY, threats=["jamming"],
                                     runner=CampaignRunner(store=url))
        assert SqliteStore(tmp_path / "store.db").keys()
        fresh = CampaignRunner(store=url)
        second = run_threat_catalogue(TINY, threats=["jamming"], runner=fresh)
        report = fresh.report()
        assert report.computed == 0 and report.cache_hits == 2
        assert {u.source for u in report.units} == {"disk"}
        assert first == second

    def test_corrupt_cache_file_recomputes(self, tmp_path):
        url = self.url(tmp_path)
        reference = run_threat_catalogue(TINY, threats=["jamming"],
                                         runner=CampaignRunner(store=url))
        self.execute(tmp_path, "UPDATE records SET record = '{ this is not json'")
        fresh = CampaignRunner(store=url)
        recovered = run_threat_catalogue(TINY, threats=["jamming"],
                                         runner=fresh)
        assert fresh.report().computed == 2
        assert recovered == reference
        # The corrupt rows were overwritten with good records.
        again = CampaignRunner(store=url)
        run_threat_catalogue(TINY, threats=["jamming"], runner=again)
        assert again.report().cache_hits == 2

    def test_stale_format_recomputes(self, tmp_path):
        url = self.url(tmp_path)
        run_threat_catalogue(TINY, threats=["jamming"],
                             runner=CampaignRunner(store=url))
        self.execute(tmp_path, "UPDATE records SET format = ?",
                     ("platoonsec-episode-cache/0",))
        fresh = CampaignRunner(store=url)
        run_threat_catalogue(TINY, threats=["jamming"], runner=fresh)
        assert fresh.report().computed == 2

    def test_key_mismatch_recomputes(self, tmp_path):
        url = self.url(tmp_path)
        run_threat_catalogue(TINY, threats=["jamming"],
                             runner=CampaignRunner(store=url))
        first, second = SqliteStore(tmp_path / "store.db").keys()
        # Copy one row's record (and its valid checksum) under another
        # row's key: the embedded spec_key no longer matches, so the
        # entry must be treated as a miss.
        self.execute(tmp_path,
                     "UPDATE records SET (record, sha256) = "
                     "(SELECT record, sha256 FROM records WHERE key = ?) "
                     "WHERE key = ?", (first, second))
        fresh = CampaignRunner(store=url)
        run_threat_catalogue(TINY, threats=["jamming"], runner=fresh)
        assert fresh.report().computed == 1

    def test_cached_records_equal_computed_records(self, tmp_path):
        runner = CampaignRunner(store=self.url(tmp_path))
        plan = plan_threat_experiment("jamming", TINY)
        computed = runner.run([plan.baseline])[plan.baseline.key]
        fresh = CampaignRunner(store=self.url(tmp_path))
        loaded = fresh.run([plan.baseline])[plan.baseline.key]
        assert loaded == computed


class TestRunReport:
    def test_summary_and_format(self):
        runner = CampaignRunner(workers=1)
        run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
        report = runner.report()
        assert "2 units" in report.summary()
        assert "2 computed" in report.summary()
        table = report.format()
        assert "jamming" in table and "baseline" in table

    @staticmethod
    def fabricated_report():
        from repro.core.runner import RunReport, UnitReport

        units = [
            UnitReport(key="k1", threat_key="jamming", variant="v",
                       role="baseline", mechanism_key=None,
                       cache_hit=False, source="computed", wall_time=0.42),
            UnitReport(key="k2", threat_key="jamming", variant="v",
                       role="defended", mechanism_key="mac",
                       cache_hit=True, source="disk", wall_time=0.0),
        ]
        return RunReport(workers=3, units=units, wall_time=1.5,
                         counters={"frames.sent": 10.0},
                         timers={"episode": {"count": 1, "total": 0.42,
                                             "max": 0.42}},
                         phases={"resolve": 0.01, "compute": 1.4})

    def test_summary_states_every_aggregate(self):
        summary = self.fabricated_report().summary()
        assert "2 units" in summary
        assert "1 computed" in summary
        assert "1 cache hits" in summary
        assert "1.5s wall" in summary
        assert "workers=3" in summary
        assert "resolve 0.01s" in summary and "compute 1.40s" in summary

    def test_format_lists_units_with_provenance(self):
        table = self.fabricated_report().format()
        for token in ("baseline", "defended", "mac", "hit", "miss",
                      "computed", "disk", "0.42"):
            assert token in table
        # One header row + one row per unit.
        assert table.count("jamming") == 2

    def test_format_observability_aggregates(self):
        text = self.fabricated_report().format_observability()
        assert "campaign observability" in text
        assert "frames.sent" in text
        assert "episode" in text
        assert "runner phases" in text
        assert "resolve" in text and "compute" in text

    def test_format_observability_without_phases(self):
        from repro.core.runner import RunReport

        text = RunReport(workers=1).format_observability()
        assert "campaign observability" in text
        assert "runner phases" not in text


@pytest.mark.slow
class TestDefaultMatrixParallel:
    """The ISSUE acceptance check: the full default matrix, workers=4 vs
    serial -- identical cells, every distinct baseline computed once, and
    a parallel wall-time win."""

    CONFIG = ScenarioConfig(n_vehicles=5, duration=40.0, warmup=8.0, seed=11)

    def test_parallel_matrix_identical_and_faster(self):
        serial_runner = CampaignRunner(workers=1)
        serial_cells = run_defense_matrix(self.CONFIG, runner=serial_runner)
        parallel_runner = CampaignRunner(workers=4)
        parallel_cells = run_defense_matrix(self.CONFIG,
                                            runner=parallel_runner)
        assert serial_cells == parallel_cells

        for report in (serial_runner.report(), parallel_runner.report()):
            baseline_units = [u for u in report.units if u.role == "baseline"]
            computed = [u for u in baseline_units if not u.cache_hit]
            assert len(computed) == len({u.key for u in baseline_units})
            computed_keys = [u.key for u in report.units if not u.cache_hit]
            assert len(computed_keys) == len(set(computed_keys))
            assert report.cache_hits > 0

        # The wall-time win needs actual parallel hardware; on a
        # single-core machine the pool can only add overhead.
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:
            cores = os.cpu_count() or 1
        if cores >= 2:
            assert parallel_runner.report().wall_time \
                < serial_runner.report().wall_time
