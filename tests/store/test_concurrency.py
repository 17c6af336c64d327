"""Two concurrent campaign runners sharing one sqlite store.

The lease protocol's whole point: two ``CampaignRunner``s with disjoint
worker pools racing over the same spec list must execute every unique
unit exactly once between them -- the loser of each lease race waits
and adopts the winner's result from the shared store.
"""

import multiprocessing

from repro.core.campaign import run_threat_catalogue
from repro.core.runner import CampaignRunner
from repro.core.scenario import ScenarioConfig

TINY = ScenarioConfig(n_vehicles=4, duration=30.0, warmup=6.0, seed=7)
THREATS = ["jamming", "falsification"]


def _race_campaign(url, queue):
    """Child-process entry point (module-level for picklability)."""
    runner = CampaignRunner(workers=2, store=url)
    outcomes = run_threat_catalogue(TINY, threats=THREATS, runner=runner)
    report = runner.report()
    queue.put({
        "computed": [u.key for u in report.units if not u.cache_hit],
        "all": [u.key for u in report.units],
        "outcomes": outcomes,
    })


class TestConcurrentRunners:
    def test_shared_sqlite_store_computes_each_unit_once(self, tmp_path):
        url = f"sqlite:{tmp_path / 'store.db'}"
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        procs = [ctx.Process(target=_race_campaign, args=(url, queue))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        reports = [queue.get(timeout=300) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0

        unique = set(reports[0]["all"])
        assert unique == set(reports[1]["all"])
        computed = reports[0]["computed"] + reports[1]["computed"]
        # No unit executed twice anywhere, and between them the two
        # racing campaigns covered every unique unit exactly once.
        assert len(computed) == len(set(computed)) == len(unique)
        assert reports[0]["outcomes"] == reports[1]["outcomes"]

        # The shared store now satisfies a third runner entirely from disk.
        fresh = CampaignRunner(store=url)
        run_threat_catalogue(TINY, threats=THREATS, runner=fresh)
        report = fresh.report()
        assert report.computed == 0
        assert {u.source for u in report.units} == {"disk"}
