"""sqlite-backed campaign store: one row per experiment configuration.

The paper's results are a *campaign* — calibrate the gamma kernel,
sweep configurations, validate against the fused oracle, report — and
this module gives that campaign the py_experimenter shape: a grid of
experiment rows in a database, workers claiming rows transactionally,
and provenance columns (config hash, seed, git sha, timestamps, worker
id) on every row.  A crashed sweep resumes from the first incomplete
row instead of restarting from zero, and the BENCH trajectory becomes
a query instead of a re-run.

Concurrency model
-----------------
Every mutating method opens its own connection (so one
:class:`CampaignStore` instance is safe to share across threads and
cheap to reconstruct in forked workers) and runs its critical section
under ``BEGIN IMMEDIATE``, which takes the sqlite write lock up front.
:meth:`claim` additionally re-checks the row's status in the ``UPDATE
… WHERE status='pending'`` (a compare-and-swap), so even a hypothetical
lock-upgrade anomaly cannot hand one row to two workers:  the second
worker's CAS touches zero rows and it simply claims the next one.

Crash model
-----------
A worker killed mid-row (SIGKILL, OOM) leaves its row ``claimed``.
sqlite's journal rolls back any half-written transaction on the next
open, so the database itself is never corrupted; :meth:`release_claims`
(the resume path) flips orphaned ``claimed`` rows back to ``pending``
— and because results are only written by :meth:`finish`, a ``done``
row is never re-executed.  ``attempts`` counts how many times a row
was claimed, so a row that needed two claims after a crash is visible
in the provenance.

Status lifecycle::

    pending --claim--> claimed --finish--> done
                           |------fail---> failed --retry_failed--> pending
                           '--release_claims (resume)--> pending
"""

from __future__ import annotations

import json
import sqlite3
import subprocess
import time
from contextlib import closing
from dataclasses import dataclass
from hashlib import blake2b

__all__ = ["CampaignRow", "CampaignStore", "config_hash", "current_git_sha"]

STATUSES = ("pending", "claimed", "done", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS experiments (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign    TEXT NOT NULL,
    payload     TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    seed        INTEGER,
    status      TEXT NOT NULL DEFAULT 'pending'
                CHECK (status IN ('pending','claimed','done','failed')),
    attempts    INTEGER NOT NULL DEFAULT 0,
    worker_id   TEXT,
    git_sha     TEXT,
    created_at  REAL NOT NULL,
    claimed_at  REAL,
    finished_at REAL,
    result      TEXT,
    error       TEXT
);
CREATE UNIQUE INDEX IF NOT EXISTS idx_experiments_identity
    ON experiments (campaign, config_hash);
CREATE INDEX IF NOT EXISTS idx_experiments_status
    ON experiments (campaign, status);
CREATE TABLE IF NOT EXISTS steps (
    campaign    TEXT NOT NULL,
    name        TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending'
                CHECK (status IN ('pending','running','done','failed')),
    state       TEXT,
    started_at  REAL,
    finished_at REAL,
    PRIMARY KEY (campaign, name)
);
CREATE TABLE IF NOT EXISTS meta (
    campaign TEXT NOT NULL,
    key      TEXT NOT NULL,
    value    TEXT,
    PRIMARY KEY (campaign, key)
);
"""


def config_hash(payload: dict, seed: int | None = None) -> str:
    """Stable identity of one grid row: canonical payload JSON + seed.

    Timestamps, git sha and worker id are provenance, not identity —
    re-seeding the same grid into an existing database is a no-op.
    """
    canonical = json.dumps(
        {"payload": payload, "seed": seed},
        sort_keys=True,
        separators=(",", ":"),
    )
    return blake2b(canonical.encode(), digest_size=8).hexdigest()


_GIT_SHA_CACHE: dict[str, str | None] = {}


def current_git_sha(cwd: str | None = None) -> str | None:
    """Best-effort ``git rev-parse HEAD`` (None outside a checkout)."""
    key = cwd or "."
    if key not in _GIT_SHA_CACHE:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=5,
            )
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
        _GIT_SHA_CACHE[key] = sha or None
    return _GIT_SHA_CACHE[key]


@dataclass(frozen=True)
class CampaignRow:
    """One experiment row, payload and result decoded from JSON."""

    id: int
    campaign: str
    payload: dict
    config_hash: str
    seed: int | None
    status: str
    attempts: int
    worker_id: str | None
    git_sha: str | None
    created_at: float
    claimed_at: float | None
    finished_at: float | None
    result: dict | None
    error: str | None

    @classmethod
    def _from_db(cls, row: sqlite3.Row) -> "CampaignRow":
        return cls(
            id=row["id"],
            campaign=row["campaign"],
            payload=json.loads(row["payload"]),
            config_hash=row["config_hash"],
            seed=row["seed"],
            status=row["status"],
            attempts=row["attempts"],
            worker_id=row["worker_id"],
            git_sha=row["git_sha"],
            created_at=row["created_at"],
            claimed_at=row["claimed_at"],
            finished_at=row["finished_at"],
            result=json.loads(row["result"]) if row["result"] else None,
            error=row["error"],
        )


class CampaignStore:
    """Row store + step state for one named campaign in one sqlite file.

    Several campaigns can share a file (the ``campaign`` column scopes
    every query); several processes can share a campaign (claims are
    transactional).
    """

    def __init__(
        self,
        path: str,
        campaign: str = "default",
        busy_timeout_s: float = 30.0,
    ):
        self.path = str(path)
        self.campaign = campaign
        self._busy_ms = int(busy_timeout_s * 1000)
        with closing(self._connect()) as con:
            con.executescript(_SCHEMA)

    def _connect(self) -> sqlite3.Connection:
        con = sqlite3.connect(self.path, timeout=self._busy_ms / 1000.0)
        con.row_factory = sqlite3.Row
        # autocommit mode: transactions are explicit (BEGIN IMMEDIATE)
        con.isolation_level = None
        con.execute(f"PRAGMA busy_timeout={self._busy_ms}")
        return con

    # -- seeding -----------------------------------------------------------------

    def add_row(self, payload: dict, seed: int | None = None) -> int:
        """Insert one pending row; idempotent on (payload, seed) identity.

        Returns the row id (existing id when the row was already
        seeded — re-seeding a grid never duplicates or resets rows).
        """
        chash = config_hash(payload, seed)
        with closing(self._connect()) as con:
            con.execute("BEGIN IMMEDIATE")
            try:
                con.execute(
                    "INSERT OR IGNORE INTO experiments "
                    "(campaign, payload, config_hash, seed, git_sha,"
                    " created_at) VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        self.campaign,
                        json.dumps(payload, sort_keys=True),
                        chash,
                        seed,
                        current_git_sha(),
                        time.time(),
                    ),
                )
                row = con.execute(
                    "SELECT id FROM experiments "
                    "WHERE campaign=? AND config_hash=?",
                    (self.campaign, chash),
                ).fetchone()
                con.execute("COMMIT")
            except BaseException:
                con.execute("ROLLBACK")
                raise
        return row["id"]

    def add_rows(
        self, payloads: list[dict], seed: int | None = None
    ) -> list[int]:
        return [self.add_row(p, seed=seed) for p in payloads]

    # -- the claim protocol ------------------------------------------------------

    def claim(self, worker_id: str) -> CampaignRow | None:
        """Atomically claim the lowest-id pending row (None when drained).

        ``BEGIN IMMEDIATE`` serializes claimers; the ``status='pending'``
        predicate in the UPDATE is the CAS that makes double-claims
        impossible even if the select raced.
        """
        with closing(self._connect()) as con:
            con.execute("BEGIN IMMEDIATE")
            try:
                row = con.execute(
                    "SELECT * FROM experiments "
                    "WHERE campaign=? AND status='pending' "
                    "ORDER BY id LIMIT 1",
                    (self.campaign,),
                ).fetchone()
                if row is None:
                    con.execute("COMMIT")
                    return None
                cur = con.execute(
                    "UPDATE experiments SET status='claimed', worker_id=?,"
                    " claimed_at=?, attempts=attempts+1 "
                    "WHERE id=? AND status='pending'",
                    (worker_id, time.time(), row["id"]),
                )
                if cur.rowcount != 1:  # CAS lost: someone beat us to it
                    con.execute("ROLLBACK")
                    return self.claim(worker_id)
                con.execute("COMMIT")
            except BaseException:
                con.execute("ROLLBACK")
                raise
        return self.get(row["id"])

    def finish(self, row_id: int, result: dict) -> None:
        """claimed → done with the result JSON (CAS on status)."""
        self._resolve(row_id, "done", result=result)

    def fail(self, row_id: int, error: str) -> None:
        """claimed → failed with the error text (CAS on status)."""
        self._resolve(row_id, "failed", error=error)

    def _resolve(
        self,
        row_id: int,
        status: str,
        result: dict | None = None,
        error: str | None = None,
    ) -> None:
        with closing(self._connect()) as con:
            cur = con.execute(
                "UPDATE experiments SET status=?, result=?, error=?,"
                " finished_at=? WHERE id=? AND status='claimed'",
                (
                    status,
                    json.dumps(result, sort_keys=True)
                    if result is not None
                    else None,
                    error,
                    time.time(),
                    row_id,
                ),
            )
            if cur.rowcount != 1:
                current = self.get(row_id)
                raise RuntimeError(
                    f"row {row_id} is {current.status!r}, not 'claimed' — "
                    "it was resolved by someone else or released by a "
                    "resume; refusing to overwrite"
                )

    def release_claims(self, worker_id: str | None = None) -> int:
        """claimed → pending (the resume path for orphaned claims).

        Only call while no worker is mid-row (a live worker's
        :meth:`finish` would then raise rather than overwrite).  Returns
        the number of rows released; ``worker_id`` narrows the release
        to one worker's orphans.
        """
        query = (
            "UPDATE experiments SET status='pending', worker_id=NULL,"
            " claimed_at=NULL WHERE campaign=? AND status='claimed'"
        )
        params: tuple = (self.campaign,)
        if worker_id is not None:
            query += " AND worker_id=?"
            params += (worker_id,)
        with closing(self._connect()) as con:
            return con.execute(query, params).rowcount

    def retry_failed(self) -> int:
        """failed → pending (keeps error text until the next resolve)."""
        with closing(self._connect()) as con:
            return con.execute(
                "UPDATE experiments SET status='pending', worker_id=NULL,"
                " claimed_at=NULL WHERE campaign=? AND status='failed'",
                (self.campaign,),
            ).rowcount

    # -- queries -----------------------------------------------------------------

    def get(self, row_id: int) -> CampaignRow:
        with closing(self._connect()) as con:
            row = con.execute(
                "SELECT * FROM experiments WHERE id=?", (row_id,)
            ).fetchone()
        if row is None:
            raise KeyError(f"no campaign row with id {row_id}")
        return CampaignRow._from_db(row)

    def rows(self, status: str | None = None) -> list[CampaignRow]:
        """Rows in id order, optionally filtered by status."""
        query = "SELECT * FROM experiments WHERE campaign=?"
        params: tuple = (self.campaign,)
        if status is not None:
            query += " AND status=?"
            params += (status,)
        query += " ORDER BY id"
        with closing(self._connect()) as con:
            return [
                CampaignRow._from_db(r)
                for r in con.execute(query, params).fetchall()
            ]

    def counts(self) -> dict[str, int]:
        """status → row count (every status present, zeros included)."""
        with closing(self._connect()) as con:
            found = dict(
                con.execute(
                    "SELECT status, COUNT(*) FROM experiments "
                    "WHERE campaign=? GROUP BY status",
                    (self.campaign,),
                ).fetchall()
            )
        return {status: found.get(status, 0) for status in STATUSES}

    def campaigns(self) -> list[str]:
        """Every campaign name present in this file."""
        with closing(self._connect()) as con:
            return [
                r[0]
                for r in con.execute(
                    "SELECT DISTINCT campaign FROM experiments "
                    "UNION SELECT DISTINCT campaign FROM steps "
                    "ORDER BY 1"
                ).fetchall()
            ]

    # -- step state (the DAG's persistence) --------------------------------------

    def step_record(self, name: str) -> dict | None:
        with closing(self._connect()) as con:
            row = con.execute(
                "SELECT * FROM steps WHERE campaign=? AND name=?",
                (self.campaign, name),
            ).fetchone()
        if row is None:
            return None
        return {
            "name": row["name"],
            "status": row["status"],
            "state": json.loads(row["state"]) if row["state"] else None,
            "started_at": row["started_at"],
            "finished_at": row["finished_at"],
        }

    def start_step(self, name: str) -> None:
        """pending/failed/running → running (stamps started_at)."""
        with closing(self._connect()) as con:
            con.execute(
                "INSERT INTO steps (campaign, name, status, started_at)"
                " VALUES (?, ?, 'running', ?)"
                " ON CONFLICT (campaign, name) DO UPDATE SET"
                " status='running', started_at=excluded.started_at,"
                " finished_at=NULL",
                (self.campaign, name, time.time()),
            )

    def finish_step(self, name: str, state: dict | None = None) -> None:
        with closing(self._connect()) as con:
            con.execute(
                "UPDATE steps SET status='done', state=?, finished_at=?"
                " WHERE campaign=? AND name=?",
                (
                    json.dumps(state, sort_keys=True)
                    if state is not None
                    else None,
                    time.time(),
                    self.campaign,
                    name,
                ),
            )

    def fail_step(self, name: str, error: str) -> None:
        with closing(self._connect()) as con:
            con.execute(
                "UPDATE steps SET status='failed', state=?, finished_at=?"
                " WHERE campaign=? AND name=?",
                (
                    json.dumps({"error": error}),
                    time.time(),
                    self.campaign,
                    name,
                ),
            )

    def step_statuses(self) -> dict[str, str]:
        with closing(self._connect()) as con:
            return dict(
                con.execute(
                    "SELECT name, status FROM steps WHERE campaign=?",
                    (self.campaign,),
                ).fetchall()
            )

    # -- campaign-level metadata -------------------------------------------------

    def set_meta(self, key: str, value) -> None:
        with closing(self._connect()) as con:
            con.execute(
                "INSERT INTO meta (campaign, key, value) VALUES (?, ?, ?)"
                " ON CONFLICT (campaign, key) DO UPDATE SET"
                " value=excluded.value",
                (self.campaign, key, json.dumps(value, sort_keys=True)),
            )

    def get_meta(self, key: str, default=None):
        with closing(self._connect()) as con:
            row = con.execute(
                "SELECT value FROM meta WHERE campaign=? AND key=?",
                (self.campaign, key),
            ).fetchone()
        return default if row is None else json.loads(row["value"])
