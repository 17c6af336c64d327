"""Contract tests for the sqlite result store.

``TestStoreContract`` pins the record API (round trip, upsert, stale,
corrupt and misfiled rows as misses, stats/verify/gc); the integrity
class pins the sqlite checksum column and WAL mode.
"""

import json
from pathlib import Path

import pytest

from repro.store import SqliteStore, open_store, parse_store_url
from tests.store.conftest import KEY, OTHER, make_record


class TestStoreContract:
    def test_round_trip(self, store):
        record = make_record(KEY)
        store.store(KEY, record)
        loaded = store.load(KEY)
        assert loaded == json.loads(json.dumps(record))

    def test_missing_key_is_none(self, store):
        assert store.load(KEY) is None

    def test_upsert_overwrites(self, store):
        store.store(KEY, make_record(KEY, seed=1))
        store.store(KEY, make_record(KEY, seed=2))
        assert store.load(KEY)["seed"] == 2
        assert store.keys() == [KEY]

    def test_keys_sorted(self, store):
        store.store(OTHER, make_record(OTHER))
        store.store(KEY, make_record(KEY))
        assert store.keys() == [KEY, OTHER]

    def test_delete(self, store):
        store.store(KEY, make_record(KEY))
        assert store.delete(KEY) is True
        assert store.load(KEY) is None
        assert store.delete(KEY) is False

    def test_stale_format_is_a_miss(self, store):
        store.store(KEY, make_record(KEY))
        store.format = "platoonsec-episode-cache/999"
        assert store.load(KEY) is None

    def test_misfiled_record_is_a_miss(self, store):
        # A record whose spec_key names another unit must never be
        # served under this key.
        store.store(KEY, make_record(OTHER))
        assert store.load(KEY) is None

    def test_stats(self, store):
        assert store.stats().entries == 0
        store.store(KEY, make_record(KEY))
        store.store(OTHER, make_record(OTHER))
        stats = store.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.backend == store.backend
        assert stats.oldest is not None and stats.newest is not None

    def test_stats_lease_table_splits_active_and_expired(self, store):
        import time

        store.acquire(KEY, "alice", ttl=60)
        store.acquire(OTHER, "crashed", ttl=0.05)
        time.sleep(0.1)                       # the second lease expires
        stats = store.stats()
        assert stats.leases == 1              # active only
        assert stats.expired_leases == 1
        by_key = {lease.key: lease for lease in stats.lease_table}
        assert by_key[KEY].owner == "alice" and by_key[KEY].active
        assert by_key[OTHER].owner == "crashed" and not by_key[OTHER].active
        # CLI projections: summary rows name both counts, lease rows
        # carry one line per in-flight lease with its state.
        assert ["active leases", 1] in stats.rows()
        assert ["expired leases", 1] in stats.rows()
        states = {row[0]: row[2] for row in stats.lease_rows()}
        assert states == {KEY[:16]: "active", OTHER[:16]: "expired"}

    def test_stats_lease_table_empty_without_leases(self, store):
        stats = store.stats()
        assert stats.lease_table == ()
        assert stats.leases == 0 and stats.expired_leases == 0
        assert stats.lease_rows() == []

    def test_verify_clean_store(self, store):
        store.store(KEY, make_record(KEY))
        report = store.verify()
        assert report.ok and report.checked == 1

    def test_verify_flags_spec_key_mismatch(self, store):
        # A record whose embedded spec hash disagrees with its storage
        # key no longer re-hashes to its address.
        store.store(KEY, make_record(OTHER))
        report = store.verify()
        assert not report.ok
        assert report.problems[0][0] == KEY
        assert "spec_key" in report.problems[0][1]

    def test_gc_older_than(self, store):
        store.store(KEY, make_record(KEY))
        store.store(OTHER, make_record(OTHER))
        now = store.stats().newest
        assert store.gc(older_than=3600.0, now=now + 10) == []
        deleted = store.gc(older_than=5.0, now=now + 3600)
        assert sorted(deleted) == [KEY, OTHER]
        assert store.keys() == []

    def test_url_reopens_same_store(self, store):
        store.store(KEY, make_record(KEY))
        reopened = open_store(store.url())
        try:
            assert reopened.load(KEY) == store.load(KEY)
        finally:
            reopened.close()

    def test_default_run_log_is_a_sibling_path(self, store):
        path = store.default_run_log_path()
        assert path.name == "run-log.jsonl"
        assert path.parent == store.path.parent


class TestStoreUrls:
    def test_parse(self):
        assert parse_store_url("sqlite:/x/store.db") == "/x/store.db"

    @pytest.mark.parametrize("bad", ["", "/plain/path", "ftp:/x",
                                     "json:", "sqlite:", "json:/x",
                                     Path("/x")])
    def test_bad_urls_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_store_url(bad)

    def test_open_store_create_false_requires_existing(self, tmp_path):
        with pytest.raises(ValueError):
            open_store(f"sqlite:{tmp_path / 'nope.db'}", create=False)

    def test_open_store_passes_instances_through(self, tmp_path):
        store = SqliteStore(tmp_path / "store.db")
        assert open_store(store) is store

    def test_store_path_under_a_file_rejected(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(ValueError):
            SqliteStore(blocker / "sub" / "store.db")


class TestSqliteIntegrity:
    def test_checksum_detects_row_tampering(self, tmp_path):
        store = SqliteStore(tmp_path / "store.db")
        store.store(KEY, make_record(KEY))
        tampered = json.dumps(make_record(KEY, seed=999), sort_keys=True,
                              separators=(",", ":"))
        store._connect().execute(
            "UPDATE records SET record = ? WHERE key = ?", (tampered, KEY))
        report = store.verify()
        assert not report.ok
        assert "sha256" in report.problems[0][1]

    def test_wal_mode_enabled(self, tmp_path):
        store = SqliteStore(tmp_path / "store.db")
        mode = store._connect().execute(
            "PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_corrupt_record_text_is_a_miss(self, tmp_path):
        store = SqliteStore(tmp_path / "store.db")
        store.store(KEY, make_record(KEY))
        store._connect().execute(
            "UPDATE records SET record = '{oops' WHERE key = ?", (KEY,))
        assert store.load(KEY) is None
        # Storing again repairs the row in place.
        store.store(KEY, make_record(KEY))
        assert store.load(KEY)["seed"] == 123
