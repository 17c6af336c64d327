"""Lease-protocol contract tests.

The protocol under test is the one the campaign runner drives:
``acquire`` answers ``hit`` / ``acquired`` / ``held`` atomically,
storing a result releases the lease, and a crashed holder's lease
expires after its TTL so waiters can take the unit over.
"""

import time

from tests.store.conftest import KEY, OTHER, make_record


class TestLeases:
    def test_acquire_when_free(self, store):
        assert store.acquire(KEY, "alice", ttl=60) == "acquired"
        assert store.lease_holder(KEY)[0] == "alice"

    def test_second_owner_is_held(self, store):
        store.acquire(KEY, "alice", ttl=60)
        assert store.acquire(KEY, "bob", ttl=60) == "held"

    def test_own_lease_refreshes(self, store):
        store.acquire(KEY, "alice", ttl=60)
        assert store.acquire(KEY, "alice", ttl=60) == "acquired"

    def test_existing_record_is_a_hit(self, store):
        store.store(KEY, make_record(KEY))
        assert store.acquire(KEY, "alice", ttl=60) == "hit"

    def test_store_releases_the_lease(self, store):
        store.acquire(KEY, "alice", ttl=60)
        store.store(KEY, make_record(KEY))
        assert store.lease_holder(KEY) is None
        assert store.acquire(KEY, "bob", ttl=60) == "hit"

    def test_release_is_owner_scoped(self, store):
        store.acquire(KEY, "alice", ttl=60)
        store.release(KEY, "bob")                 # not bob's to drop
        assert store.lease_holder(KEY)[0] == "alice"
        store.release(KEY, "alice")
        assert store.lease_holder(KEY) is None

    def test_expired_lease_is_claimable(self, store):
        # The crashed-worker path: the holder never stores a result and
        # never releases; after the TTL a waiter's acquire succeeds.
        store.acquire(KEY, "crashed", ttl=0.25)
        assert store.acquire(KEY, "bob", ttl=60) == "held"
        time.sleep(0.3)
        assert store.acquire(KEY, "bob", ttl=60) == "acquired"
        assert store.lease_holder(KEY)[0] == "bob"

    def test_lease_holder_hides_expired_leases(self, store):
        store.acquire(KEY, "alice", ttl=0.05)
        time.sleep(0.06)
        assert store.lease_holder(KEY) is None

    def test_purge_leases(self, store):
        store.acquire(KEY, "alice", ttl=0.05)
        store.acquire(OTHER, "bob", ttl=60)
        time.sleep(0.06)
        assert store.purge_leases() == 1
        assert store.stats().leases == 1

    def test_delete_drops_the_lease(self, store):
        store.store(KEY, make_record(KEY))
        # Simulate a lease left behind by a crash mid-store.
        store._connect().execute("INSERT INTO leases VALUES (?, ?, ?)",
                                 (KEY, "ghost", time.time() + 60.0))
        store.delete(KEY)
        assert store.lease_holder(KEY) is None

    def test_leases_never_masquerade_as_entries(self, store):
        store.acquire(KEY, "alice", ttl=60)
        assert store.keys() == []
        assert store.load(KEY) is None
        assert store.stats().entries == 0
        assert store.stats().leases == 1
