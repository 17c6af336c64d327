"""CampaignRunner integration with the result store.

Covers the ``store=`` kwarg wiring, store-backed results equal to
store-less ones, a broken database degrading to recomputation, and the
lease hand-off paths a single process can exercise (waiting on another
party's result, taking over a crashed lease).
"""

import threading
import time

import pytest

from repro.core.campaign import run_threat_catalogue
from repro.core.runner import CampaignRunner
from repro.core.scenario import ScenarioConfig
from repro.store import SqliteStore, StoreError
from tests.store.conftest import KEY, OTHER, make_record

TINY = ScenarioConfig(n_vehicles=4, duration=30.0, warmup=6.0, seed=7)


class TestRunnerStoreWiring:
    def test_store_url_string_resolved(self, tmp_path):
        runner = CampaignRunner(store=f"sqlite:{tmp_path / 'store.db'}")
        assert runner.store.backend == "sqlite"

    def test_store_instance_passed_through(self, tmp_path):
        store = SqliteStore(tmp_path / "store.db")
        assert CampaignRunner(store=store).store is store

    def test_sqlite_persists_across_runner_instances(self, tmp_path):
        url = f"sqlite:{tmp_path / 'store.db'}"
        first = run_threat_catalogue(TINY, threats=["jamming"],
                                     runner=CampaignRunner(store=url))
        fresh = CampaignRunner(store=url)
        second = run_threat_catalogue(TINY, threats=["jamming"],
                                      runner=fresh)
        report = fresh.report()
        assert report.computed == 0 and report.cache_hits == 2
        assert {u.source for u in report.units} == {"disk"}
        assert first == second

    def test_store_run_equals_store_less_run(self, tmp_path):
        via_store = run_threat_catalogue(
            TINY, threats=["jamming"],
            runner=CampaignRunner(store=f"sqlite:{tmp_path / 'store.db'}"))
        assert via_store == run_threat_catalogue(TINY, threats=["jamming"])


class TestClobberedStore:
    """A database file overwritten with garbage after the store opened."""

    @pytest.fixture
    def clobbered(self, tmp_path):
        store = SqliteStore(tmp_path / "store.db")
        store.store(KEY, make_record(KEY))
        store.close()
        store.path.write_bytes(b"not a database " * 512)
        yield store
        store.close()

    def test_every_method_misses_or_raises_store_error(self, clobbered):
        calls = {
            "load": lambda: clobbered.load(KEY),
            "store": lambda: clobbered.store(OTHER, make_record(OTHER)),
            "delete": lambda: clobbered.delete(KEY),
            "keys": clobbered.keys,
            "acquire": lambda: clobbered.acquire(OTHER, "me"),
            "release": lambda: clobbered.release(OTHER, "me"),
            "lease_holder": lambda: clobbered.lease_holder(OTHER),
            "purge_leases": clobbered.purge_leases,
            "stats": clobbered.stats,
            "verify": clobbered.verify,
            "gc": lambda: clobbered.gc(older_than=0.0),
        }
        for name, call in calls.items():
            try:
                result = call()
            except StoreError:
                continue
            assert name == "load" and result is None, name

    def test_runner_computes_every_unit(self, clobbered):
        # The store failing on every call must neither abort the
        # campaign nor replace an episode's result: every unit computes.
        runner = CampaignRunner(store=clobbered)
        results = run_threat_catalogue(TINY, threats=["jamming"],
                                       runner=runner)
        report = runner.report()
        assert report.computed == 2 and report.cache_hits == 0
        assert results == run_threat_catalogue(TINY, threats=["jamming"])

    def test_episode_exception_is_not_replaced(self, clobbered,
                                               monkeypatch):
        # Releasing the failed unit's lease hits the broken database;
        # the caller must still see the episode's own exception.
        from repro.core import runner as runner_mod
        from repro.core.campaign import plan_threat_experiment

        def explode(*args):
            raise RuntimeError("episode failed")

        monkeypatch.setattr(runner_mod, "_execute_spec", explode)
        spec = plan_threat_experiment("jamming", TINY).baseline
        with pytest.raises(RuntimeError, match="episode failed"):
            CampaignRunner(store=clobbered).run([spec])


class TestLeaseHandOff:
    def _warm_store(self, tmp_path):
        """A store holding the jamming catalogue, plus its unit keys."""
        warm = SqliteStore(tmp_path / "warm.db")
        runner = CampaignRunner(store=warm)
        run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
        return warm, [u.key for u in runner.report().units]

    def test_waiting_runner_adopts_anothers_result(self, tmp_path):
        # Another "process" holds the leases and finishes while we wait:
        # the waiting runner must adopt the stored results as disk hits
        # instead of recomputing.
        warm, keys = self._warm_store(tmp_path)
        cold = SqliteStore(tmp_path / "cold.db")
        for key in keys:
            assert cold.acquire(key, "other-process", ttl=60) == "acquired"

        def finish_elsewhere():
            time.sleep(0.1)
            for key in keys:
                cold.store(key, warm.load(key))

        thread = threading.Thread(target=finish_elsewhere)
        thread.start()
        try:
            runner = CampaignRunner(store=cold)
            results = run_threat_catalogue(TINY, threats=["jamming"],
                                           runner=runner)
        finally:
            thread.join()
        report = runner.report()
        assert report.computed == 0 and report.cache_hits == 2
        assert {u.source for u in report.units} == {"disk"}
        assert results == run_threat_catalogue(
            TINY, threats=["jamming"], runner=CampaignRunner(store=warm))

    def test_crashed_lease_expires_and_unit_is_taken_over(self, tmp_path):
        # The holder died without storing a result or releasing: after
        # the TTL the waiting runner claims the lease and computes.
        _, keys = self._warm_store(tmp_path)
        cold = SqliteStore(tmp_path / "cold.db")
        for key in keys:
            cold.acquire(key, "crashed-worker", ttl=0.2)
        runner = CampaignRunner(store=cold)
        run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
        report = runner.report()
        assert report.computed == 2 and report.cache_hits == 0
        assert cold.keys() == sorted(keys)
        assert cold.stats().leases == 0
