"""Content-addressed result store for campaign episodes.

``open_store("sqlite:/path/store.db")`` opens a :class:`SqliteStore`:
one WAL-mode database holding every episode record plus the in-flight
unit leases, with ``stats``/``gc``/``verify`` maintenance.  See
:mod:`repro.store.sqlite` for the lease protocol.
"""

from repro.store.sqlite import (
    CACHE_FORMAT,
    DEFAULT_LEASE_TTL,
    LeaseInfo,
    SqliteStore,
    StoreError,
    StoreStats,
    VerifyReport,
    open_store,
    parse_store_url,
)

__all__ = [
    "CACHE_FORMAT",
    "DEFAULT_LEASE_TTL",
    "LeaseInfo",
    "SqliteStore",
    "StoreError",
    "StoreStats",
    "VerifyReport",
    "open_store",
    "parse_store_url",
]
