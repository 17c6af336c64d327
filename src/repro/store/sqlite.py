"""Content-addressed episode result store: one WAL-mode sqlite database.

A :class:`SqliteStore` persists campaign episode records keyed by their
spec content hash (see :meth:`repro.core.runner.EpisodeSpec.key`).  It
owns every persistence concern the campaign runner would otherwise
carry inline: the record format stamp, corrupt, stale-format and
misfiled rows (always a miss, never an exception), atomic upserts, and
an in-flight *lease* protocol so several runner processes sharing one
store never compute the same unit twice.

All records live in one database file: the ``records`` table keys rows
by spec content hash and carries the JSON record text plus a sha256
checksum of it (:meth:`SqliteStore.verify` re-hashes every row), and
the ``leases`` table holds the in-flight unit leases.  Every
multi-statement mutation runs under ``BEGIN IMMEDIATE``, so runner
processes sharing the database serialise their upserts and lease
transitions.  Every sqlite failure -- a locked, unreadable or clobbered
database -- surfaces as :class:`StoreError`.

Lease protocol
--------------
Before computing a missing unit, a runner calls
:meth:`SqliteStore.acquire`; the atomic answer is one of

``"hit"``
    the record appeared since the caller last looked -- load and reuse;
``"acquired"``
    the caller now holds the in-flight lease -- compute, then
    :meth:`SqliteStore.store` (storing a result releases the lease);
``"held"``
    another live process holds the lease -- poll :meth:`SqliteStore.load`
    and retry :meth:`~SqliteStore.acquire`; when the holder crashes, its
    lease expires after the TTL and the retry returns ``"acquired"``.

Leases are advisory and TTL-bounded: a holder that outlives its TTL
(e.g. an episode slower than the TTL) can be raced by a waiting runner,
so choose a TTL comfortably above the slowest expected unit.

Connections are opened lazily per thread and per process (sqlite3
objects are bound to the thread that created them, and sharing one
across ``fork`` corrupts its file handle): each thread of each process
gets its own connection to the same database file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple, Union

#: Format stamp for stored episode records.  /5 added the detection
#: ledger summary (record.detection + detection-quality metrics); /4
#: added the highway merge counter (merges_completed) to the cached
#: metrics dict; /3 added the safety metrics; /2 added the per-episode
#: observability snapshot.  Rows in any other format are stale and
#: load as misses.
CACHE_FORMAT = "platoonsec-episode-cache/5"

#: Default in-flight lease time-to-live (seconds).  Generous on purpose:
#: a waiting runner may legitimately take over after this long, so it
#: must exceed the slowest expected episode by a wide margin.
DEFAULT_LEASE_TTL = 600.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    key       TEXT PRIMARY KEY,
    format    TEXT NOT NULL,
    record    TEXT NOT NULL,
    sha256    TEXT NOT NULL,
    stored_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS leases (
    key     TEXT PRIMARY KEY,
    owner   TEXT NOT NULL,
    expires REAL NOT NULL
);
"""


class StoreError(Exception):
    """A storage failure: the database is locked, unreadable or corrupt."""


@dataclass(frozen=True)
class LeaseInfo:
    """One in-flight unit lease, as seen at stats time."""

    key: str
    owner: str
    expires: float          # epoch seconds
    active: bool            # unexpired at the stats() snapshot instant


@dataclass(frozen=True)
class StoreStats:
    """Aggregate view of a store's contents."""

    backend: str
    location: str
    entries: int
    total_bytes: int
    oldest: Optional[float] = None      # epoch seconds, stored_at
    newest: Optional[float] = None
    leases: int = 0                     # active (unexpired) leases
    expired_leases: int = 0             # expired but not yet purged
    lease_table: Tuple[LeaseInfo, ...] = ()

    def rows(self) -> list:
        """Table rows for the CLI (label, value)."""
        def age(stamp: Optional[float]) -> str:
            if stamp is None:
                return "-"
            return f"{max(time.time() - stamp, 0.0):.0f}s ago"
        return [["backend", self.backend],
                ["location", self.location],
                ["entries", self.entries],
                ["bytes", self.total_bytes],
                ["oldest entry", age(self.oldest)],
                ["newest entry", age(self.newest)],
                ["active leases", self.leases],
                ["expired leases", self.expired_leases]]

    def lease_rows(self) -> list:
        """Table rows for the in-flight lease table (one per lease)."""
        now = time.time()
        rows = []
        for lease in self.lease_table:
            remaining = lease.expires - now
            state = "active" if lease.active else "expired"
            rows.append([lease.key[:16], lease.owner, state,
                         f"{remaining:+.0f}s"])
        return rows


@dataclass
class VerifyReport:
    """Outcome of :meth:`SqliteStore.verify`."""

    checked: int = 0
    problems: list = field(default_factory=list)    # (key, reason)

    @property
    def ok(self) -> bool:
        return not self.problems


def parse_store_url(url: str) -> str:
    """The database path a ``sqlite:<path>`` store URL names.

    Anything else -- another scheme, a bare path string or a
    :class:`~pathlib.Path` -- is rejected, so a typo'd path can never
    silently create a store somewhere unexpected.
    """
    if not isinstance(url, str) or not url.startswith("sqlite:"):
        raise ValueError(f"bad store URL {url!r}; expected 'sqlite:<path>'")
    path = url[len("sqlite:"):]
    if not path:
        raise ValueError(f"store URL {url!r} has an empty path")
    return path


def open_store(url: Union[str, SqliteStore],
               create: bool = True) -> SqliteStore:
    """Open the store a ``sqlite:<path>`` URL names (instances pass
    through).

    ``create=False`` refuses a database that does not exist yet (the CLI
    inspection commands use it so ``store stats`` on a typo'd path errors
    instead of creating an empty store).
    """
    if isinstance(url, SqliteStore):
        return url
    return SqliteStore(parse_store_url(url), create=create)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SqliteStore:
    """Episode records and in-flight leases in one sqlite database.

    ``fmt`` is the record format stamp; rows in any other format are
    stale and load as ``None``.
    """

    backend = "sqlite"

    def __init__(self, path: Union[str, Path], fmt: str = CACHE_FORMAT,
                 create: bool = True, timeout: float = 30.0) -> None:
        self.path = Path(path)
        self.format = fmt
        self.timeout = float(timeout)
        self._local = threading.local()
        if not create and not self.path.exists():
            raise ValueError(f"store database {self.path} does not exist")
        if create:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError):
                raise ValueError(
                    f"store path {self.path} is not reachable (parent is "
                    "not a directory)") from None
        try:
            self._connect()
        except sqlite3.Error as exc:
            raise ValueError(
                f"store database {self.path} cannot be opened: "
                f"{exc}") from None

    # ---------------------------------------------------------- connection

    def _connect(self) -> sqlite3.Connection:
        # One connection per (process, thread): a connection inherited
        # across fork shares the parent's file handle and must be
        # discarded, never used.
        if getattr(self._local, "pid", None) != os.getpid():
            self._local.conn = None
            self._local.pid = os.getpid()
        if self._local.conn is None:
            conn = sqlite3.connect(str(self.path), timeout=self.timeout,
                                   isolation_level=None)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            self._local.conn = conn
        return self._local.conn

    @contextmanager
    def _db(self, write: bool = False):
        """This thread's connection -- inside one ``BEGIN IMMEDIATE``
        transaction when ``write`` -- with every sqlite failure raised
        as :class:`StoreError`."""
        try:
            conn = self._connect()
            if not write:
                yield conn
                return
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")
        except sqlite3.Error as exc:
            raise StoreError(f"sqlite store {self.path}: {exc}") from exc

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", None) == os.getpid():
            conn.close()
        self._local.conn = None

    def __enter__(self) -> SqliteStore:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SqliteStore({str(self.path)!r})"

    def url(self) -> str:
        """The ``sqlite:<path>`` URL that reopens this store."""
        return f"sqlite:{self.path}"

    def default_run_log_path(self) -> Path:
        """Where the CLI writes ``run-log.jsonl``: next to the database."""
        return self.path.parent / "run-log.jsonl"

    # ------------------------------------------------------------- records

    def _decode(self, key: str, fmt: str,
                text: str) -> Tuple[Optional[dict], str]:
        """``(record, "")`` for a sound row, ``(None, reason)`` for a
        stale, corrupt or misfiled one."""
        if fmt != self.format:
            return None, f"stale format {fmt!r} (expected {self.format!r})"
        try:
            record = json.loads(text)
        except ValueError:
            return None, "record text is not JSON"
        if not isinstance(record, dict):
            return None, "record is not an object"
        if record.get("spec_key") != key:
            return None, (f"record spec_key {record.get('spec_key')!r} "
                          "does not match the storage key")
        return record, ""

    def load(self, key: str) -> Optional[dict]:
        """The record stored under ``key``; ``None`` on a miss and on a
        stale, corrupt or misfiled row (one whose ``spec_key`` names
        another key)."""
        with self._db() as conn:
            row = conn.execute(
                "SELECT format, record FROM records WHERE key = ?",
                (key,)).fetchone()
        return self._decode(key, *row)[0] if row is not None else None

    def store(self, key: str, record: dict) -> None:
        """Upsert ``record`` under ``key``, dropping any lease on it in
        the same transaction."""
        text = json.dumps(record, separators=(",", ":"))
        with self._db(write=True) as conn:
            conn.execute(
                "INSERT INTO records "
                "(key, format, record, sha256, stored_at) "
                "VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET "
                "format = excluded.format, record = excluded.record, "
                "sha256 = excluded.sha256, "
                "stored_at = excluded.stored_at",
                (key, self.format, text, _sha256(text), time.time()))
            conn.execute("DELETE FROM leases WHERE key = ?", (key,))

    def delete(self, key: str) -> bool:
        """Remove the row (and any lease) for ``key``; True if it
        existed."""
        with self._db(write=True) as conn:
            conn.execute("DELETE FROM leases WHERE key = ?", (key,))
            return conn.execute("DELETE FROM records WHERE key = ?",
                                (key,)).rowcount > 0

    def keys(self) -> list:
        """Every stored key, sorted (unsound rows included)."""
        with self._db() as conn:
            return [row[0] for row in conn.execute(
                "SELECT key FROM records ORDER BY key")]

    # -------------------------------------------------------------- leases

    def acquire(self, key: str, owner: str,
                ttl: float = DEFAULT_LEASE_TTL) -> str:
        """Try to claim the in-flight lease for ``key``.

        Returns ``"hit"`` when a record for ``key`` already exists,
        ``"acquired"`` when the caller now holds (or refreshed) the
        lease, ``"held"`` when another unexpired owner does.
        """
        now = time.time()
        with self._db(write=True) as conn:
            if conn.execute("SELECT 1 FROM records WHERE key = ?",
                            (key,)).fetchone() is not None:
                return "hit"
            row = conn.execute(
                "SELECT owner, expires FROM leases WHERE key = ?",
                (key,)).fetchone()
            if row is not None and row[1] > now and row[0] != owner:
                return "held"
            conn.execute(
                "INSERT INTO leases (key, owner, expires) VALUES (?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET "
                "owner = excluded.owner, expires = excluded.expires",
                (key, owner, now + float(ttl)))
            return "acquired"

    def release(self, key: str, owner: str) -> None:
        """Drop ``owner``'s lease on ``key`` (no-op for other owners)."""
        with self._db() as conn:
            conn.execute("DELETE FROM leases WHERE key = ? AND owner = ?",
                         (key, owner))

    def lease_holder(self, key: str) -> Optional[Tuple[str, float]]:
        """The active ``(owner, expires)`` lease on ``key``, if any."""
        with self._db() as conn:
            row = conn.execute(
                "SELECT owner, expires FROM leases "
                "WHERE key = ? AND expires > ?", (key, time.time())).fetchone()
        return (str(row[0]), float(row[1])) if row is not None else None

    def purge_leases(self) -> int:
        """Drop expired leases; returns how many were removed."""
        with self._db() as conn:
            return conn.execute("DELETE FROM leases WHERE expires <= ?",
                                (time.time(),)).rowcount

    # ---------------------------------------------------------- aggregate

    def stats(self) -> StoreStats:
        with self._db() as conn:
            entries, total, oldest, newest = conn.execute(
                "SELECT count(*), coalesce(sum(length(record)), 0), "
                "min(stored_at), max(stored_at) FROM records").fetchone()
            leases = conn.execute(
                "SELECT key, owner, expires FROM leases ORDER BY key"
            ).fetchall()
        # One clock read for the whole lease snapshot so a lease cannot
        # straddle the active/expired split.
        now = time.time()
        lease_table = tuple(
            LeaseInfo(key=key, owner=str(owner), expires=float(expires),
                      active=expires > now)
            for key, owner, expires in leases)
        active = sum(1 for lease in lease_table if lease.active)
        return StoreStats(backend=self.backend, location=str(self.path),
                          entries=entries, total_bytes=total,
                          oldest=oldest, newest=newest, leases=active,
                          expired_leases=len(lease_table) - active,
                          lease_table=lease_table)

    def verify(self) -> VerifyReport:
        """Re-check every row: format stamp, JSON object, ``spec_key``
        equal to the storage key, and the stored sha256 checksum.

        Problems are reported, never repaired.
        """
        with self._db() as conn:
            rows = conn.execute(
                "SELECT key, format, record, sha256 FROM records "
                "ORDER BY key").fetchall()
        report = VerifyReport(checked=len(rows))
        for key, fmt, text, digest in rows:
            _, problem = self._decode(key, fmt, text)
            if not problem and _sha256(text) != digest:
                problem = "stored sha256 checksum does not match the record text"
            if problem:
                report.problems.append((key, problem))
        return report

    def gc(self, older_than: Optional[float] = None,
           now: Optional[float] = None) -> list:
        """Drop rows stored more than ``older_than`` seconds before
        ``now`` (and every expired lease); returns the deleted keys."""
        deleted: list = []
        if older_than is not None:
            cutoff = (time.time() if now is None else now) - older_than
            with self._db(write=True) as conn:
                deleted = [row[0] for row in conn.execute(
                    "SELECT key FROM records WHERE stored_at < ? "
                    "ORDER BY key", (cutoff,))]
                conn.execute("DELETE FROM records WHERE stored_at < ?",
                             (cutoff,))
        self.purge_leases()
        return deleted
