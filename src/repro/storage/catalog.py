"""Transactional metadata catalog backed by SQLite (``sqlite://PATH``).

Every piece of metadata that prices and swaps storage plans used to live in
ad-hoc JSON files and process memory: the version graph and branch heads in
``repro_state.json``, the workload log in ``workload.log``, the repack
epoch and the adaptive controller's learned baseline nowhere at all.  That
story caps a store at exactly one writer process and forgets its epoch on
every restart.  This module replaces it with one SQLite database in WAL
mode, following the ``GraphStorage`` snapshot contract (SNIPPETS.md 2–3):

* :class:`MetadataCatalog` — the version graph, branch heads, the epoch
  pointer, workload counters and controller state in one transactional
  schema.  Readers run inside snapshot-isolated transactions (WAL lets
  them proceed while a writer commits); writers serialize on SQLite's
  database lock, so any number of processes can share one store safely.
* **Snapshot lifecycle** — a repack epoch is a row in the ``snapshots``
  table: :meth:`~MetadataCatalog.create_snapshot` stages it,
  :meth:`~MetadataCatalog.activate_snapshot` performs the swap as one
  transaction (exactly one activation can win per epoch — a peer that
  repacked first invalidates this staging),
  :meth:`~MetadataCatalog.fail_snapshot` records an aborted staging and
  :meth:`~MetadataCatalog.prune_snapshot` garbage-collects dead epochs.
  Dead epochs keep their version→object mapping until pruned, so any
  retained epoch supports point-in-time reads
  (:meth:`~MetadataCatalog.snapshot_manifest`).
* :class:`SQLiteBackend` — a :class:`~repro.storage.backends.StorageBackend`
  storing object bytes in the same database file, so ``repro init
  --backend sqlite://PATH`` puts payloads *and* metadata behind one
  crash-atomic commit domain.
* :class:`CatalogWorkloadLog` — a :class:`~repro.storage.workload_log.WorkloadLog`
  whose counters live in the catalog: several serving processes fold their
  observed traffic into one shared workload record.

Commit transactions validate their delta base against the active
snapshot's mapping (:class:`~repro.exceptions.StaleEpochError` when a peer
repacked underneath), which is what makes the swap's garbage collection
safe across processes: no commit can slip a delta onto an object another
process is about to collect.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import threading
import time
from typing import Any, Iterator, Mapping, Sequence

from ..core.version import VersionID
from ..exceptions import (
    DuplicateVersionError,
    LeaseFencedError,
    RepositoryError,
    SnapshotConflictError,
    StaleEpochError,
)
from .backends import BackendSpecError, StorageBackend, register_backend
from .workload_log import DEFAULT_HALF_LIFE, WorkloadLog, _decay

__all__ = [
    "MetadataCatalog",
    "SQLiteBackend",
    "CatalogWorkloadLog",
]

_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT
);
CREATE TABLE IF NOT EXISTS versions (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    version_id TEXT UNIQUE NOT NULL,
    size       REAL NOT NULL,
    name       TEXT NOT NULL DEFAULT '',
    parents    TEXT NOT NULL DEFAULT '[]',
    created_at INTEGER NOT NULL DEFAULT 0,
    metadata   TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS branches (
    name TEXT PRIMARY KEY,
    head TEXT
);
CREATE TABLE IF NOT EXISTS snapshots (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    epoch         INTEGER NOT NULL,
    status        TEXT NOT NULL,
    based_on_epoch INTEGER,
    created_seq   INTEGER NOT NULL DEFAULT 0,
    activated_seq INTEGER,
    stats         TEXT,
    error         TEXT
);
CREATE TABLE IF NOT EXISTS version_objects (
    snapshot_id INTEGER NOT NULL,
    version_id  TEXT NOT NULL,
    object_id   TEXT NOT NULL,
    PRIMARY KEY (snapshot_id, version_id)
);
CREATE TABLE IF NOT EXISTS workload (
    version_id TEXT PRIMARY KEY,
    count      INTEGER NOT NULL,
    weight     REAL NOT NULL,
    last_tick  INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS objects (
    key   TEXT PRIMARY KEY,
    value BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS repack_decisions (
    id     INTEGER PRIMARY KEY AUTOINCREMENT,
    record TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS leases (
    role       TEXT PRIMARY KEY,
    holder     TEXT,
    expires_at REAL NOT NULL DEFAULT 0,
    token      INTEGER NOT NULL DEFAULT 0
);
"""

#: Rows kept in ``repack_decisions`` before the oldest are trimmed.
_DECISION_RETENTION = 4096

#: Seeded ``meta`` rows (INSERT OR IGNORE — only the first opener wins).
_META_DEFAULTS = {
    "schema_version": str(_SCHEMA_VERSION),
    "change_seq": "0",
    "counter": "0",
    "current_branch": "main",
    "epoch": "0",
    "workload_total": "0",
    "controller_state": "",
}


class MetadataCatalog:
    """Transactional metadata for one repository, shared across processes.

    One instance serves one database file.  Connections are opened per
    thread (sqlite3 connections are not thread-portable) with WAL
    journaling and a generous busy timeout, so concurrent writers from
    other threads *and other processes* queue instead of failing.  Every
    write transaction bumps ``change_seq``, the cheap poll a serving
    process uses to notice a peer's commits and swaps.
    """

    def __init__(self, path: str, *, timeout: float = 30.0) -> None:
        if path.startswith("sqlite://"):
            # Accept the spec form directly — otherwise the scheme prefix
            # silently becomes a literal `sqlite:` directory on disk.
            path = path[len("sqlite://"):]
        if not path:
            raise BackendSpecError("sqlite:// catalog requires a database path")
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self.path = path
        self.timeout = float(timeout)
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        self._init_schema()

    # ------------------------------------------------------------------ #
    # connections and transactions
    # ------------------------------------------------------------------ #
    def _connection(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = sqlite3.connect(
                self.path, timeout=self.timeout, isolation_level=None
            )
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        return connection

    class _WriteTransaction:
        """``with catalog._write() as conn:`` — one serialized write txn.

        ``BEGIN IMMEDIATE`` takes the database write lock up front, so the
        reads inside the transaction already see the state the commit will
        extend — the validation reads (parent mappings, active epoch) can
        never be invalidated between read and write.  ``change_seq`` is
        bumped on the way out of every successful transaction.
        """

        __slots__ = ("connection",)

        def __init__(self, connection: sqlite3.Connection) -> None:
            self.connection = connection

        def __enter__(self) -> sqlite3.Connection:
            self.connection.execute("BEGIN IMMEDIATE")
            return self.connection

        def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
            if exc_type is None:
                self.connection.execute(
                    "UPDATE meta SET value = CAST(value AS INTEGER) + 1 "
                    "WHERE key = 'change_seq'"
                )
                self.connection.execute("COMMIT")
            else:
                self.connection.execute("ROLLBACK")

    def _write(self) -> "MetadataCatalog._WriteTransaction":
        return self._WriteTransaction(self._connection())

    class _ReadTransaction:
        """A snapshot-isolated read: every query sees one WAL snapshot."""

        __slots__ = ("connection",)

        def __init__(self, connection: sqlite3.Connection) -> None:
            self.connection = connection

        def __enter__(self) -> sqlite3.Connection:
            self.connection.execute("BEGIN")
            return self.connection

        def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
            # Reads mutate nothing; COMMIT merely releases the snapshot.
            self.connection.execute("COMMIT" if exc_type is None else "ROLLBACK")

    def _read(self) -> "MetadataCatalog._ReadTransaction":
        return self._ReadTransaction(self._connection())

    def _init_schema(self) -> None:
        connection = self._connection()
        connection.execute("BEGIN IMMEDIATE")
        try:
            for statement in _SCHEMA.strip().split(";\n"):
                if statement.strip():
                    connection.execute(statement)
            for key, value in _META_DEFAULTS.items():
                connection.execute(
                    "INSERT OR IGNORE INTO meta(key, value) VALUES (?, ?)",
                    (key, value),
                )
            connection.execute(
                "INSERT OR IGNORE INTO branches(name, head) VALUES ('main', NULL)"
            )
            # Epoch 0 is a real snapshot row from the start, so commits have
            # an active mapping to write into and the lifecycle is uniform.
            row = connection.execute(
                "SELECT 1 FROM snapshots WHERE status = 'active'"
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO snapshots(epoch, status, based_on_epoch) "
                    "VALUES (0, 'active', NULL)"
                )
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise

    def release_thread_connection(self) -> None:
        """Close the calling thread's connection, if it opened one.

        Long-lived servers that run each client connection on a fresh
        thread call this when the thread's work ends; the next call from
        the same thread simply opens a new connection.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            return
        self._local.connection = None
        with self._connections_lock:
            try:
                self._connections.remove(connection)
            except ValueError:
                pass  # close() already took it
        connection.close()

    def close(self) -> None:
        """Close every connection this catalog opened (best effort)."""
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.close()
            except Exception:  # pragma: no cover - interpreter shutdown
                pass
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # meta helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _meta(connection: sqlite3.Connection, key: str) -> str:
        row = connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row is not None and row[0] is not None else ""

    @staticmethod
    def _set_meta(connection: sqlite3.Connection, key: str, value: str) -> None:
        connection.execute(
            "INSERT OR REPLACE INTO meta(key, value) VALUES (?, ?)", (key, value)
        )

    def change_seq(self) -> int:
        """Monotonic counter bumped by every write transaction (any process)."""
        return int(self._meta(self._connection(), "change_seq") or 0)

    def epoch(self) -> int:
        """The active epoch number — survives restarts, monotonic for life."""
        return int(self._meta(self._connection(), "epoch") or 0)

    # ------------------------------------------------------------------ #
    # repository state
    # ------------------------------------------------------------------ #
    def state(self) -> dict[str, Any]:
        """One consistent snapshot of everything a repository loads.

        Versions arrive in insertion (``seq``) order, so replaying them
        into a :class:`~repro.core.version_graph.VersionGraph` never sees a
        child before its parent.
        """
        with self._read() as connection:
            versions = [
                {
                    "id": row[0],
                    "size": row[1],
                    "name": row[2],
                    "parents": json.loads(row[3]),
                    "created_at": row[4],
                    "metadata": json.loads(row[5]),
                }
                for row in connection.execute(
                    "SELECT version_id, size, name, parents, created_at, metadata "
                    "FROM versions ORDER BY seq"
                )
            ]
            branches = {
                row[0]: row[1]
                for row in connection.execute("SELECT name, head FROM branches")
            }
            active = connection.execute(
                "SELECT id, epoch FROM snapshots WHERE status = 'active'"
            ).fetchone()
            mapping: dict[VersionID, str] = {}
            if active is not None:
                mapping = {
                    row[0]: row[1]
                    for row in connection.execute(
                        "SELECT version_id, object_id FROM version_objects "
                        "WHERE snapshot_id = ?",
                        (active[0],),
                    )
                }
            return {
                "counter": int(self._meta(connection, "counter") or 0),
                "current_branch": self._meta(connection, "current_branch") or "main",
                "epoch": int(self._meta(connection, "epoch") or 0),
                "change_seq": int(self._meta(connection, "change_seq") or 0),
                "versions": versions,
                "branches": branches,
                "objects": mapping,
            }

    def record_commit(
        self,
        *,
        version_id: VersionID | None,
        size: float,
        name: str,
        parents: Sequence[VersionID],
        metadata: Mapping[str, Any],
        object_id: str,
        branch: str,
        base_version: VersionID | None = None,
        base_object_id: str | None = None,
    ) -> tuple[VersionID, int]:
        """Register one committed version in a single transaction.

        Allocates the version id from the shared counter when ``version_id``
        is ``None`` (two processes can never mint the same id), inserts the
        version row and its object mapping into the *active* snapshot, and
        advances the branch head.  When the version was encoded as a delta,
        ``base_version``/``base_object_id`` name the parent object the delta
        was diffed against: the transaction validates that the active
        mapping still points the parent at that exact object and raises
        :class:`~repro.exceptions.StaleEpochError` otherwise — a peer
        repacked between encoding and this transaction, and committing the
        delta anyway would chain it onto an object headed for garbage
        collection.  Returns ``(version_id, created_at)``.
        """
        with self._write() as connection:
            active = connection.execute(
                "SELECT id FROM snapshots WHERE status = 'active'"
            ).fetchone()
            if active is None:  # pragma: no cover - schema seeds one
                raise RepositoryError("catalog has no active snapshot")
            active_id = active[0]
            if base_version is not None:
                row = connection.execute(
                    "SELECT object_id FROM version_objects "
                    "WHERE snapshot_id = ? AND version_id = ?",
                    (active_id, base_version),
                ).fetchone()
                if row is None or row[0] != base_object_id:
                    raise StaleEpochError(
                        f"delta base for {base_version!r} moved from "
                        f"{base_object_id!r} to "
                        f"{row[0] if row else None!r}: the active epoch "
                        "changed since the delta was encoded"
                    )
            counter = int(self._meta(connection, "counter") or 0)
            if version_id is None:
                vid: VersionID = f"v{counter}"
                created_at = counter
                self._set_meta(connection, "counter", str(counter + 1))
            else:
                vid = version_id
                created_at = counter
            if not name:
                name = str(vid)
            try:
                connection.execute(
                    "INSERT INTO versions"
                    "(version_id, size, name, parents, created_at, metadata) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        vid,
                        float(size),
                        name,
                        json.dumps(list(parents)),
                        created_at,
                        json.dumps(dict(metadata)),
                    ),
                )
            except sqlite3.IntegrityError:
                raise DuplicateVersionError(vid) from None
            connection.execute(
                "INSERT OR REPLACE INTO version_objects"
                "(snapshot_id, version_id, object_id) VALUES (?, ?, ?)",
                (active_id, vid, object_id),
            )
            connection.execute(
                "INSERT OR REPLACE INTO branches(name, head) VALUES (?, ?)",
                (branch, vid),
            )
        return vid, created_at

    def save_branch(self, name: str, head: VersionID | None) -> None:
        """Create or repoint a branch head."""
        with self._write() as connection:
            connection.execute(
                "INSERT OR REPLACE INTO branches(name, head) VALUES (?, ?)",
                (name, head),
            )

    def save_current_branch(self, name: str) -> None:
        """Remember the branch new commits default to (advisory)."""
        with self._write() as connection:
            self._set_meta(connection, "current_branch", name)

    # ------------------------------------------------------------------ #
    # the snapshot lifecycle (GraphStorage contract)
    # ------------------------------------------------------------------ #
    def create_snapshot(self) -> tuple[int, int]:
        """Stage a new epoch; returns ``(snapshot_id, proposed_epoch)``.

        The staged snapshot remembers the epoch it was planned against
        (``based_on_epoch``); activation later refuses if that epoch is no
        longer the active one — which is exactly how two processes racing
        to repack one store resolve to a single activation.
        """
        with self._write() as connection:
            active = connection.execute(
                "SELECT epoch FROM snapshots WHERE status = 'active'"
            ).fetchone()
            based_on = int(active[0]) if active is not None else 0
            seq = int(self._meta(connection, "change_seq") or 0)
            cursor = connection.execute(
                "INSERT INTO snapshots(epoch, status, based_on_epoch, created_seq) "
                "VALUES (?, 'staged', ?, ?)",
                (based_on + 1, based_on, seq),
            )
            return int(cursor.lastrowid), based_on + 1

    def stage_mapping(
        self, snapshot_id: int, mapping: Mapping[VersionID, str]
    ) -> None:
        """Record the staged snapshot's version→object mapping."""
        with self._write() as connection:
            row = connection.execute(
                "SELECT status FROM snapshots WHERE id = ?", (snapshot_id,)
            ).fetchone()
            if row is None or row[0] != "staged":
                raise SnapshotConflictError(
                    f"snapshot {snapshot_id} is not staged "
                    f"(status {row[0] if row else 'missing'!r})"
                )
            connection.execute(
                "DELETE FROM version_objects WHERE snapshot_id = ?", (snapshot_id,)
            )
            connection.executemany(
                "INSERT INTO version_objects(snapshot_id, version_id, object_id) "
                "VALUES (?, ?, ?)",
                [(snapshot_id, vid, oid) for vid, oid in mapping.items()],
            )

    def activate_snapshot(
        self,
        snapshot_id: int,
        stats: Mapping[str, Any] | None = None,
        *,
        fence: tuple[str, int] | None = None,
    ) -> int | None:
        """The swap, as one transaction.  Returns the new epoch, or ``None``.

        Exactly one activation can win per epoch: the transaction verifies
        the staged snapshot's ``based_on_epoch`` is still the active epoch
        and returns ``None`` without changing anything when it is not (a
        peer activated first — fail and prune this staging instead).  On
        success, versions committed *after* the staging (by any process)
        carry their current mapping forward into the new snapshot, the old
        snapshot is marked dead (its mapping is retained for point-in-time
        reads until pruned) and the epoch pointer advances — atomically, so
        a crash leaves either the old epoch fully serving or the new one.

        ``fence=(role, token)`` additionally validates, inside the same
        transaction, that the lease table's current fencing token for
        ``role`` still equals the token the planner captured when staging
        began.  A mismatch raises :class:`~repro.exceptions.LeaseFencedError`
        (nothing is changed): the planner was paused past its lease TTL and
        a peer stole the lease, so this activation belongs to a zombie —
        the ``based_on_epoch`` check alone cannot catch that when no epoch
        swap happened in between.
        """
        with self._write() as connection:
            if fence is not None:
                role, expected_token = fence
                lease_row = connection.execute(
                    "SELECT token FROM leases WHERE role = ?", (role,)
                ).fetchone()
                current_token = int(lease_row[0]) if lease_row is not None else 0
                if current_token != int(expected_token):
                    raise LeaseFencedError(
                        f"snapshot {snapshot_id} was staged under "
                        f"{role!r} lease token {int(expected_token)}, but the "
                        f"current token is {current_token}: the lease was "
                        "stolen mid-repack (the planner was paused past its "
                        "TTL); refusing the zombie activation"
                    )
            row = connection.execute(
                "SELECT epoch, status, based_on_epoch FROM snapshots WHERE id = ?",
                (snapshot_id,),
            ).fetchone()
            if row is None or row[1] != "staged":
                return None
            new_epoch, _, based_on = int(row[0]), row[1], row[2]
            active = connection.execute(
                "SELECT id, epoch FROM snapshots WHERE status = 'active'"
            ).fetchone()
            if active is None or int(active[1]) != int(based_on):
                return None
            active_id = int(active[0])
            seq = int(self._meta(connection, "change_seq") or 0)
            # Carry forward versions the staging never saw: they keep the
            # objects they are encoded against (their chains stay live
            # because commit transactions validated those bases).
            connection.execute(
                "INSERT INTO version_objects(snapshot_id, version_id, object_id) "
                "SELECT ?, version_id, object_id FROM version_objects "
                "WHERE snapshot_id = ? AND version_id NOT IN "
                "(SELECT version_id FROM version_objects WHERE snapshot_id = ?)",
                (snapshot_id, active_id, snapshot_id),
            )
            connection.execute(
                "UPDATE snapshots SET status = 'dead' WHERE id = ?", (active_id,)
            )
            connection.execute(
                "UPDATE snapshots SET status = 'active', activated_seq = ?, "
                "stats = ? WHERE id = ?",
                (seq, json.dumps(dict(stats)) if stats else None, snapshot_id),
            )
            self._set_meta(connection, "epoch", str(new_epoch))
            return new_epoch

    def fail_snapshot(self, snapshot_id: int, error: str) -> None:
        """Record an aborted staging (crash cleanup keeps the row for GC)."""
        with self._write() as connection:
            connection.execute(
                "UPDATE snapshots SET status = 'failed', error = ? "
                "WHERE id = ? AND status = 'staged'",
                (error, snapshot_id),
            )

    def prune_snapshot(self, snapshot_id: int) -> list[str]:
        """Drop a dead/failed/staged-and-abandoned snapshot's metadata.

        The active snapshot is never prunable.  Returns the object ids that
        were mapped *only* by the pruned snapshot — the garbage-collection
        candidates whose chains the caller sweeps against the store (the
        catalog knows mappings, not delta chains).
        """
        with self._write() as connection:
            row = connection.execute(
                "SELECT status FROM snapshots WHERE id = ?", (snapshot_id,)
            ).fetchone()
            if row is None:
                return []
            if row[0] == "active":
                raise SnapshotConflictError(
                    f"snapshot {snapshot_id} is active and cannot be pruned"
                )
            candidates = [
                r[0]
                for r in connection.execute(
                    "SELECT DISTINCT object_id FROM version_objects "
                    "WHERE snapshot_id = ? AND object_id NOT IN "
                    "(SELECT object_id FROM version_objects WHERE snapshot_id != ?)",
                    (snapshot_id, snapshot_id),
                )
            ]
            connection.execute(
                "DELETE FROM version_objects WHERE snapshot_id = ?", (snapshot_id,)
            )
            connection.execute(
                "DELETE FROM snapshots WHERE id = ?", (snapshot_id,)
            )
            return candidates

    def snapshots(self) -> list[dict[str, Any]]:
        """Epoch history, oldest first (every retained snapshot row)."""
        with self._read() as connection:
            return [
                {
                    "id": row[0],
                    "epoch": row[1],
                    "status": row[2],
                    "based_on_epoch": row[3],
                    "versions": row[4],
                    "stats": json.loads(row[5]) if row[5] else None,
                    "error": row[6],
                }
                for row in connection.execute(
                    "SELECT s.id, s.epoch, s.status, s.based_on_epoch, "
                    "(SELECT COUNT(*) FROM version_objects vo "
                    " WHERE vo.snapshot_id = s.id), s.stats, s.error "
                    "FROM snapshots s ORDER BY s.id"
                )
            ]

    def prunable_snapshots(self) -> list[int]:
        """Ids of every non-active snapshot (dead, failed or abandoned)."""
        with self._read() as connection:
            return [
                row[0]
                for row in connection.execute(
                    "SELECT id FROM snapshots WHERE status != 'active' ORDER BY id"
                )
            ]

    def snapshot_manifest(self, snapshot_id: int) -> dict[str, Any]:
        """Point-in-time read: one retained epoch's status and full mapping."""
        with self._read() as connection:
            row = connection.execute(
                "SELECT epoch, status, based_on_epoch, stats, error "
                "FROM snapshots WHERE id = ?",
                (snapshot_id,),
            ).fetchone()
            if row is None:
                raise SnapshotConflictError(f"no snapshot {snapshot_id} (pruned?)")
            mapping = {
                r[0]: r[1]
                for r in connection.execute(
                    "SELECT version_id, object_id FROM version_objects "
                    "WHERE snapshot_id = ?",
                    (snapshot_id,),
                )
            }
            return {
                "id": snapshot_id,
                "epoch": row[0],
                "status": row[1],
                "based_on_epoch": row[2],
                "stats": json.loads(row[3]) if row[3] else None,
                "error": row[4],
                "objects": mapping,
            }

    def active_snapshot_id(self) -> int:
        """Id of the snapshot currently serving."""
        with self._read() as connection:
            row = connection.execute(
                "SELECT id FROM snapshots WHERE status = 'active'"
            ).fetchone()
            if row is None:  # pragma: no cover - schema seeds one
                raise RepositoryError("catalog has no active snapshot")
            return int(row[0])

    def live_object_ids(self) -> set[str]:
        """Every object id any retained snapshot's mapping references."""
        with self._read() as connection:
            return {
                row[0]
                for row in connection.execute(
                    "SELECT DISTINCT object_id FROM version_objects"
                )
            }

    # ------------------------------------------------------------------ #
    # workload counters
    # ------------------------------------------------------------------ #
    def workload_record(
        self, entries: Sequence[tuple[VersionID, int]], half_life: float
    ) -> None:
        """Fold accesses into the shared counters, one transaction.

        The decay clock is the catalog-wide total access count, so several
        serving processes folding concurrently still maintain one coherent
        decaying view — the same lazy-decay model as the file-backed log.
        """
        with self._write() as connection:
            total = int(self._meta(connection, "workload_total") or 0)
            for vid, count in entries:
                total += count
                row = connection.execute(
                    "SELECT count, weight, last_tick FROM workload "
                    "WHERE version_id = ?",
                    (vid,),
                ).fetchone()
                if row is None:
                    connection.execute(
                        "INSERT INTO workload(version_id, count, weight, last_tick) "
                        "VALUES (?, ?, ?, ?)",
                        (vid, count, float(count), total),
                    )
                else:
                    weight = _decay(row[1], total - row[2], half_life) + count
                    connection.execute(
                        "UPDATE workload SET count = ?, weight = ?, last_tick = ? "
                        "WHERE version_id = ?",
                        (row[0] + count, weight, total, vid),
                    )
            self._set_meta(connection, "workload_total", str(total))

    def workload_state(
        self,
    ) -> tuple[dict[VersionID, int], dict[VersionID, tuple[float, int]], int]:
        """``(counts, decayed {vid: (weight, last_tick)}, total)`` snapshot."""
        with self._read() as connection:
            counts: dict[VersionID, int] = {}
            decayed: dict[VersionID, tuple[float, int]] = {}
            for vid, count, weight, last in connection.execute(
                "SELECT version_id, count, weight, last_tick FROM workload"
            ):
                counts[vid] = count
                decayed[vid] = (weight, last)
            total = int(self._meta(connection, "workload_total") or 0)
            return counts, decayed, total

    def workload_clear(self) -> None:
        """Forget every recorded access."""
        with self._write() as connection:
            connection.execute("DELETE FROM workload")
            self._set_meta(connection, "workload_total", "0")

    # ------------------------------------------------------------------ #
    # adaptive-controller state
    # ------------------------------------------------------------------ #
    def save_controller_state(self, state: Mapping[str, Any]) -> None:
        """Persist the adaptive controller's learned state."""
        with self._write() as connection:
            self._set_meta(connection, "controller_state", json.dumps(dict(state)))

    def load_controller_state(self) -> dict[str, Any] | None:
        """The persisted controller state, or ``None`` when never saved."""
        raw = self._meta(self._connection(), "controller_state")
        if not raw:
            return None
        try:
            state = json.loads(raw)
        except ValueError:  # pragma: no cover - a torn row is a fresh start
            return None
        return state if isinstance(state, dict) else None

    def save_staging_calibration(self, state: Mapping[str, Any]) -> None:
        """Persist the staging-cost calibration's fitted state."""
        with self._write() as connection:
            self._set_meta(connection, "staging_calibration", json.dumps(dict(state)))

    def load_staging_calibration(self) -> dict[str, Any] | None:
        """The persisted calibration state, or ``None`` when never saved."""
        raw = self._meta(self._connection(), "staging_calibration")
        if not raw:
            return None
        try:
            state = json.loads(raw)
        except ValueError:  # pragma: no cover - a torn row is a fresh start
            return None
        return state if isinstance(state, dict) else None

    # ------------------------------------------------------------------ #
    # repack decision log
    # ------------------------------------------------------------------ #
    def append_repack_decision(self, record: Mapping[str, Any]) -> None:
        """Persist one structured repack decision record.

        Retention is bounded: once the table exceeds ``_DECISION_RETENTION``
        rows the oldest are trimmed, so a long-lived store cannot grow the
        catalog without bound from evaluate cycles alone.
        """
        payload = json.dumps(dict(record), default=str, sort_keys=True)
        with self._write() as connection:
            connection.execute(
                "INSERT INTO repack_decisions (record) VALUES (?)", (payload,)
            )
            connection.execute(
                "DELETE FROM repack_decisions WHERE id <= ("
                "SELECT MAX(id) FROM repack_decisions) - ?",
                (_DECISION_RETENTION,),
            )

    def repack_decisions(self, limit: int = 256) -> list[dict[str, Any]]:
        """The most recent persisted decision records, oldest first."""
        with self._read() as connection:
            rows = connection.execute(
                "SELECT record FROM repack_decisions ORDER BY id DESC LIMIT ?",
                (int(limit),),
            ).fetchall()
        records: list[dict[str, Any]] = []
        for (raw,) in reversed(rows):
            try:
                record = json.loads(raw)
            except ValueError:  # pragma: no cover - a torn row is skipped
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    # ------------------------------------------------------------------ #
    # replica-group leases
    # ------------------------------------------------------------------ #
    class _LeaseTransaction:
        """A ``BEGIN IMMEDIATE`` transaction that does *not* bump change_seq.

        Lease renewals fire every second or so from every replica; bumping
        the change counter for each would make every peer re-read the full
        catalog state on its next sync even though no repository state
        moved.  Lease state is polled through :meth:`lease_state` instead.
        """

        __slots__ = ("connection",)

        def __init__(self, connection: sqlite3.Connection) -> None:
            self.connection = connection

        def __enter__(self) -> sqlite3.Connection:
            self.connection.execute("BEGIN IMMEDIATE")
            return self.connection

        def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
            self.connection.execute("COMMIT" if exc_type is None else "ROLLBACK")

    def acquire_lease(
        self, role: str, holder: str, ttl: float, *, now: float | None = None
    ) -> dict[str, Any]:
        """Acquire, renew or steal the ``role`` lease in one transaction.

        The single ``BEGIN IMMEDIATE`` transaction makes the state machine
        race-free across any number of processes:

        * no row (or a released one) → **acquired**: the holder is
          recorded, the fencing token increments;
        * row held by ``holder`` → **renewed**: the expiry extends, the
          token is unchanged (renewal never invalidates in-flight work);
        * row held by a peer whose lease expired → **stolen**: the holder
          changes and the token increments, permanently fencing anything
          the previous holder staged under the old token;
        * row held by a live peer → **rejected**: nothing changes.

        ``now`` defaults to wall-clock time (comparable across processes
        on one host); tests inject skewed or manual clocks.  Returns the
        post-transaction lease state plus the transition that happened
        (``acquired`` / ``renewed`` / ``stolen`` / ``rejected``).
        """
        if ttl <= 0:
            raise ValueError("lease ttl must be positive (seconds)")
        timestamp = float(now) if now is not None else time.time()
        with self._LeaseTransaction(self._connection()) as connection:
            row = connection.execute(
                "SELECT holder, expires_at, token FROM leases WHERE role = ?",
                (role,),
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO leases(role, holder, expires_at, token) "
                    "VALUES (?, ?, ?, 1)",
                    (role, holder, timestamp + ttl),
                )
                return {
                    "event": "acquired",
                    "role": role,
                    "holder": holder,
                    "token": 1,
                    "expires_at": timestamp + ttl,
                }
            current_holder, expires_at, token = row[0], float(row[1]), int(row[2])
            if current_holder == holder:
                connection.execute(
                    "UPDATE leases SET expires_at = ? WHERE role = ?",
                    (timestamp + ttl, role),
                )
                return {
                    "event": "renewed",
                    "role": role,
                    "holder": holder,
                    "token": token,
                    "expires_at": timestamp + ttl,
                }
            if current_holder is None or expires_at <= timestamp:
                # Released, or expired under a peer: take over.  The token
                # increments on every holder change — never on renewal, and
                # never backwards — which is what makes it a fencing token.
                connection.execute(
                    "UPDATE leases SET holder = ?, expires_at = ?, "
                    "token = token + 1 WHERE role = ?",
                    (holder, timestamp + ttl, role),
                )
                result = {
                    "event": "stolen" if current_holder is not None else "acquired",
                    "role": role,
                    "holder": holder,
                    "token": token + 1,
                    "expires_at": timestamp + ttl,
                }
                if current_holder is not None:
                    result["stolen_from"] = current_holder
                return result
            return {
                "event": "rejected",
                "role": role,
                "holder": current_holder,
                "token": token,
                "expires_at": expires_at,
            }

    def release_lease(self, role: str, holder: str) -> bool:
        """Voluntarily give the ``role`` lease up (clean shutdown path).

        The row is kept with its token — deleting it would reset the token
        to 1 on the next acquire, and a fencing token must never regress —
        but the holder is cleared and the expiry zeroed, so the next
        acquire takes over immediately (with a fresh token).  Only the
        current holder can release; returns whether it did.
        """
        with self._LeaseTransaction(self._connection()) as connection:
            cursor = connection.execute(
                "UPDATE leases SET holder = NULL, expires_at = 0 "
                "WHERE role = ? AND holder = ?",
                (role, holder),
            )
            return cursor.rowcount > 0

    def lease_state(self, role: str) -> dict[str, Any] | None:
        """The ``role`` lease row (holder, expiry, token), or ``None``."""
        row = self._connection().execute(
            "SELECT holder, expires_at, token FROM leases WHERE role = ?",
            (role,),
        ).fetchone()
        if row is None:
            return None
        return {
            "role": role,
            "holder": row[0],
            "expires_at": float(row[1]),
            "token": int(row[2]),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetadataCatalog path={self.path!r} epoch={self.epoch()}>"


class SQLiteBackend(StorageBackend):
    """Object bytes in the catalog's database (``objects`` table).

    One ``sqlite://PATH`` file holds payload objects *and* metadata, so a
    repository on this backend is a single crash-atomic unit any number of
    processes can open.  Values are pickled like the filesystem backends;
    writes are single-statement transactions (atomic — a torn object can
    never be read back, WAL or not).
    """

    scheme = "sqlite"

    def __init__(self, path: str) -> None:
        if not path:
            raise BackendSpecError("sqlite:// backend requires a database path")
        self.catalog = MetadataCatalog(path)
        self.path = self.catalog.path

    def _connection(self) -> sqlite3.Connection:
        return self.catalog._connection()

    def put(self, key: str, value: Any) -> None:
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._connection().execute(
            "INSERT OR REPLACE INTO objects(key, value) VALUES (?, ?)", (key, data)
        )

    def get(self, key: str) -> Any:
        row = self._connection().execute(
            "SELECT value FROM objects WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            raise KeyError(key)
        return pickle.loads(row[0])

    def get_many(self, keys: Sequence[str]) -> dict[str, Any]:
        if not keys:
            return {}
        found: dict[str, Any] = {}
        connection = self._connection()
        # SQLite caps bound parameters; chunk generously below the limit.
        seq = list(keys)
        for start in range(0, len(seq), 500):
            chunk = seq[start : start + 500]
            placeholders = ",".join("?" for _ in chunk)
            for key, data in connection.execute(
                f"SELECT key, value FROM objects WHERE key IN ({placeholders})",
                chunk,
            ):
                found[key] = pickle.loads(data)
        return found

    def delete(self, key: str) -> None:
        self._connection().execute("DELETE FROM objects WHERE key = ?", (key,))

    def keys(self) -> Iterator[str]:
        rows = self._connection().execute("SELECT key FROM objects").fetchall()
        return iter([row[0] for row in rows])

    def __contains__(self, key: str) -> bool:
        row = self._connection().execute(
            "SELECT 1 FROM objects WHERE key = ?", (key,)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        row = self._connection().execute("SELECT COUNT(*) FROM objects").fetchone()
        return int(row[0])

    def spec(self) -> str:
        return f"{self.scheme}://{self.path}"


class CatalogWorkloadLog(WorkloadLog):
    """A :class:`WorkloadLog` whose counters live in the metadata catalog.

    Reads and writes go straight to the database, so several serving
    processes sharing one ``sqlite://`` store fold their traffic into one
    record, and the decaying view's clock is the catalog-wide access total.
    Weights are stored at full float precision (no rounding on compaction —
    there is no compaction; the table *is* the compact form).
    """

    def __init__(
        self, catalog: MetadataCatalog, *, half_life: float = DEFAULT_HALF_LIFE
    ) -> None:
        super().__init__(None, half_life=half_life)
        self.catalog = catalog
        self.path = f"sqlite://{catalog.path}"

    # -- recording ------------------------------------------------------- #
    def record(self, version_id: VersionID, count: int = 1) -> None:
        if count <= 0:
            raise ValueError("access count must be positive")
        with self._lock:
            self.catalog.workload_record([(version_id, count)], self.half_life)

    def record_many(self, version_ids: "Sequence[VersionID] | Any") -> None:
        entries: dict[VersionID, int] = {}
        for vid in version_ids:
            entries[vid] = entries.get(vid, 0) + 1
        if not entries:
            return
        with self._lock:
            self.catalog.workload_record(list(entries.items()), self.half_life)

    # -- reading --------------------------------------------------------- #
    def counts(self) -> dict[VersionID, int]:
        counts, _, _ = self.catalog.workload_state()
        return counts

    def decayed_counts(self) -> dict[VersionID, float]:
        _, decayed, total = self.catalog.workload_state()
        return {
            vid: _decay(weight, total - last, self.half_life)
            for vid, (weight, last) in decayed.items()
        }

    @property
    def total_accesses(self) -> int:
        _, _, total = self.catalog.workload_state()
        return total

    def __len__(self) -> int:
        return len(self.counts())

    def frequencies(
        self,
        version_ids: "Sequence[VersionID] | None" = None,
        *,
        smoothing: float = 0.0,
    ) -> dict[VersionID, float]:
        weights = {vid: float(c) for vid, c in self.counts().items()}
        return self._vector(weights, version_ids, smoothing)

    def decayed_frequencies(
        self,
        version_ids: "Sequence[VersionID] | None" = None,
        *,
        half_life: float | None = None,
        smoothing: float = 0.0,
    ) -> dict[VersionID, float]:
        if half_life is not None and half_life <= 0:
            raise ValueError("half_life must be positive (accesses)")
        if half_life is not None and half_life != self.half_life:
            raise ValueError(
                "a catalog-backed workload log keeps no event order to "
                "replay under a different half-life; construct it with the "
                "one you need"
            )
        return self._vector(self.decayed_counts(), version_ids, smoothing)

    def snapshot(self) -> dict[str, object]:
        counts, decayed, total = self.catalog.workload_state()
        return {
            "path": self.path,
            "total_accesses": total,
            "distinct_versions": len(counts),
            "half_life": self.half_life,
            "decayed_total": float(
                sum(
                    _decay(weight, total - last, self.half_life)
                    for weight, last in decayed.values()
                )
            ),
        }

    # -- maintenance ----------------------------------------------------- #
    def clear(self) -> None:
        with self._lock:
            self.catalog.workload_clear()

    def compact(self) -> None:
        pass  # the table is already one row per version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CatalogWorkloadLog path={self.path!r} "
            f"half_life={self.half_life}>"
        )


register_backend(SQLiteBackend)
