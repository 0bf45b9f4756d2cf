"""SQLite-backed campaign result store.

One store file = one campaign's durable state: the planned jobs, every
attempt (with status, detail, wall time), and the result payload of
each completed job.  Because job IDs are content-derived
(:class:`~repro.runner.jobs.JobSpec.job_id`), re-planning the same
campaign against an existing store recognises completed work, which is
what powers ``--resume``: only pending and failed jobs are re-queued.

Only the parent (pool) process writes the store — workers ship their
payloads back over a queue — so there is no cross-process SQLite
contention to manage.

Commit points.  :meth:`ResultStore.register` commits, and
:meth:`~ResultStore.close` commits before closing; the state
transitions (:meth:`~ResultStore.mark_running`,
:meth:`~ResultStore.record_attempt`, :meth:`~ResultStore.record_success`,
:meth:`~ResultStore.record_failure`) only join the connection's open
transaction.  :meth:`~ResultStore.flush` is the one commit point for
them, and it always commits; its callers choose the cadence.  The
runners' books call it once 0.05 s (``repro.runner.pool._COMMIT_INTERVAL``)
has passed since their last commit, checked after every serial job
and before the pool's parent blocks, and at once when a run ends, when
an exception escapes it and before a retry's backoff sleep.  So one
fsynced commit covers every job of an interval.  Every commit is still
a full rollback-journal commit with SQLite's default
``synchronous=FULL``.  A parent killed mid-run loses at most the jobs
that finished within 0.05 s of the last commit, plus the jobs in
flight; those jobs are not ``done``, so ``--resume`` re-runs them and,
jobs being deterministic, reproduces identical results.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.runner.backoff import seeded_backoff
from repro.runner.jobs import JobSpec

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id    TEXT PRIMARY KEY,
    seq       INTEGER NOT NULL,
    kind      TEXT NOT NULL,
    spec      TEXT NOT NULL,
    status    TEXT NOT NULL DEFAULT 'pending',
    attempts  INTEGER NOT NULL DEFAULT 0,
    seed      INTEGER,
    wall_time REAL,
    updated_at REAL
);
CREATE TABLE IF NOT EXISTS results (
    job_id  TEXT PRIMARY KEY,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS attempts (
    id        INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id    TEXT NOT NULL,
    attempt   INTEGER NOT NULL,
    status    TEXT NOT NULL,
    detail    TEXT,
    wall_time REAL,
    at        REAL
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

_PLAN_HASH_KEY = "plan_hash"
_SCHEMA_VERSION_KEY = "schema_version"

#: Version of the on-disk layout *and* of the payload/spec JSON shapes
#: stored inside it.  Bumped when resuming an old store would misread
#: its contents (v1 → v2: job specs grew ``trace_dir`` and campaign
#: payloads an optional ``trace`` summary).
SCHEMA_VERSION = 2


class StoreCorrupt(RuntimeError):
    """The store file is damaged beyond what SQLite can recover.

    Raised instead of leaking a raw :class:`sqlite3.DatabaseError` when
    a store was torn mid-write (truncated file, half-synced page): the
    caller can distinguish "this campaign's durable state is gone —
    start a fresh store" from a programming error.
    """

    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(
            f"result store {path!r} is corrupt ({detail}); the file was "
            "likely torn mid-write — move it aside and start a fresh "
            "--store, or restore it from a known-good copy and --resume"
        )


class StoreBusy(RuntimeError):
    """The store stayed write-locked through every open retry.

    Concurrent readers against a live campaign store (the service's
    result/metrics endpoints, a ``repro metrics`` invocation mid-run)
    can catch the writer inside a transaction; the open path retries
    with :func:`~repro.runner.backoff.seeded_backoff` before giving
    up, so this only fires when the lock is held pathologically long.
    """

    def __init__(self, path: str, attempts: int, detail: str):
        self.path = path
        self.attempts = attempts
        self.detail = detail
        super().__init__(
            f"result store {path!r} is locked by another process "
            f"({detail}); gave up after {attempts} attempt(s) — the "
            "writer is holding a transaction open unusually long"
        )


class StorePlanMismatch(RuntimeError):
    """A store holds jobs from a different campaign plan.

    Raised instead of silently resuming against the wrong store, which
    would report the old campaign's completed jobs as this campaign's
    results.
    """


class StoreSchemaMismatch(RuntimeError):
    """A store was written under a different schema version.

    Raised on open, before any resume logic runs: silently resuming
    would misparse the recorded specs/payloads (newer store) or write
    records an older build cannot read back (older store).  Stores
    from before versions were stamped count as version 1.
    """

    def __init__(self, path: str, found: int, expected: int):
        self.path = path
        self.found = found
        self.expected = expected
        direction = "older" if found < expected else "newer"
        super().__init__(
            f"result store {path!r} uses schema version {found}, but this "
            f"build expects {expected} (the store is from an {direction} "
            "build); pass a fresh --store path to re-run, or open the "
            "store with a matching build"
        )


def _plan_hash(sorted_ids: Iterable[str]) -> str:
    """sha1 of the newline-joined job IDs, which must arrive sorted."""
    digest = hashlib.sha1()
    separator = b""
    for job_id in sorted_ids:
        digest.update(separator + job_id.encode("ascii"))
        separator = b"\n"
    return digest.hexdigest()

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass
class StoreSummary:
    """Counts by status, for progress lines and resume banners."""

    total: int
    done: int
    failed: int
    pending: int

    def render(self) -> str:
        return (
            f"{self.done}/{self.total} done, {self.failed} failed, "
            f"{self.pending} pending"
        )


class ResultStore:
    """Durable job/result persistence for one campaign."""

    #: Open-time lock retries: attempts beyond the first, backoff base
    #: and cap in seconds.  Retrying here is what lets readers open a
    #: store that a live campaign is actively writing.
    OPEN_RETRIES = 5
    OPEN_BACKOFF = 0.05
    OPEN_BACKOFF_CAP = 1.0

    def __init__(
        self,
        path: str = ":memory:",
        clock: Callable[[], float] = time.time,
    ):
        self.path = path
        self._clock = clock
        last_detail = ""
        for attempt in range(self.OPEN_RETRIES + 1):
            if attempt:
                time.sleep(seeded_backoff(
                    self.OPEN_BACKOFF, attempt, path, self.OPEN_BACKOFF_CAP
                ))
            try:
                self._conn = sqlite3.connect(path)
                self._conn.executescript(_SCHEMA)
                self._commit()
                self._verify_integrity()
                self._check_schema_version()
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc):
                    raise StoreCorrupt(path, str(exc)) from exc
                last_detail = str(exc)
                self._close_quietly()
                continue
            except StoreCorrupt as exc:
                # _sql/_commit wrap low-level errors; a wrapped lock
                # conflict is still just a busy writer, not rot.
                if "locked" not in exc.detail:
                    raise
                last_detail = exc.detail
                self._close_quietly()
                continue
            except sqlite3.DatabaseError as exc:
                raise StoreCorrupt(path, str(exc)) from exc
            break
        else:
            raise StoreBusy(path, self.OPEN_RETRIES + 1, last_detail)

    def _close_quietly(self) -> None:
        try:
            self._conn.close()
        except sqlite3.Error:
            pass

    def _verify_integrity(self) -> None:
        """Fail fast on a torn file instead of erroring mid-campaign."""
        rows = self._sql("PRAGMA quick_check").fetchall()
        verdicts = [row[0] for row in rows]
        if verdicts != ["ok"]:
            raise StoreCorrupt(self.path, "; ".join(verdicts) or "empty check")

    def _check_schema_version(self) -> None:
        """Stamp fresh stores; refuse resumes across schema versions."""
        row = self._sql(
            "SELECT value FROM meta WHERE key = ?", (_SCHEMA_VERSION_KEY,)
        ).fetchone()
        if row is not None:
            found = int(row[0])
            if found != SCHEMA_VERSION:
                raise StoreSchemaMismatch(self.path, found, SCHEMA_VERSION)
            return
        jobs = self._sql("SELECT COUNT(*) FROM jobs").fetchone()[0]
        meta = self._sql("SELECT COUNT(*) FROM meta").fetchone()[0]
        if jobs or meta:
            # Populated, but no version stamp: written before stamping
            # existed — that layout is retroactively version 1.
            raise StoreSchemaMismatch(self.path, 1, SCHEMA_VERSION)
        self._sql(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (_SCHEMA_VERSION_KEY, str(SCHEMA_VERSION)),
        )
        self._commit()

    def _sql(self, query: str, params: tuple = ()):
        """Execute one statement, converting low-level corruption errors
        into the typed :class:`StoreCorrupt`."""
        try:
            return self._conn.execute(query, params)
        except sqlite3.DatabaseError as exc:
            raise StoreCorrupt(self.path, str(exc)) from exc

    def _commit(self) -> None:
        try:
            self._conn.commit()
        except sqlite3.DatabaseError as exc:
            raise StoreCorrupt(self.path, str(exc)) from exc

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        """Commit every transition recorded since the last flush."""
        self._commit()

    def close(self) -> None:
        try:
            self._commit()
        finally:
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- registration ---------------------------------------------------

    def register(self, specs: Iterable[JobSpec]) -> None:
        """Record planned jobs; already-known job IDs keep their state.

        Raises :class:`StorePlanMismatch` when the store already holds a
        *different* campaign plan — resuming against the wrong store
        would silently report another campaign's results as completed
        work.  Growing or shrinking the same campaign (the incoming
        plan is a superset or subset of the recorded one) is fine; a
        plan that neither contains nor is contained by the recorded
        jobs is a different campaign.

        A fresh store consumes ``specs`` as a stream: only a store that
        already holds jobs needs the whole plan in memory, to guard it.
        """
        if self._sql("SELECT 1 FROM jobs LIMIT 1").fetchone() is not None:
            specs = list(specs)
            self._guard_plan(specs)
        row = self._sql("SELECT COALESCE(MAX(seq), -1) FROM jobs")
        next_seq = row.fetchone()[0] + 1
        for spec in specs:
            cur = self._sql(
                "INSERT OR IGNORE INTO jobs (job_id, seq, kind, spec, seed,"
                " updated_at) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    spec.job_id,
                    next_seq,
                    spec.kind,
                    spec.to_json(),
                    spec.seed,
                    self._clock(),
                ),
            )
            if cur.rowcount:
                next_seq += 1
        # BINARY collation orders TEXT like Python orders str.
        registered = self._sql("SELECT job_id FROM jobs ORDER BY job_id")
        self._sql(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (_PLAN_HASH_KEY, _plan_hash(row[0] for row in registered)),
        )
        self._commit()

    def _guard_plan(self, specs: List[JobSpec]) -> None:
        existing = {
            r[0] for r in self._sql("SELECT job_id FROM jobs")
        }
        incoming = {spec.job_id for spec in specs}
        if existing <= incoming or incoming <= existing:
            return
        row = self._sql(
            "SELECT value FROM meta WHERE key = ?", (_PLAN_HASH_KEY,)
        ).fetchone()
        recorded = row[0] if row is not None else _plan_hash(sorted(existing))
        raise StorePlanMismatch(
            f"store {self.path!r} was created for a different campaign "
            f"plan (recorded {recorded[:12]}, current "
            f"{_plan_hash(sorted(incoming))[:12]}); pass a fresh --store "
            "path or resume with the original command line"
        )

    # -- state transitions ---------------------------------------------

    def mark_running(self, job_id: str) -> None:
        self._set_status(job_id, RUNNING)

    def record_attempt(
        self,
        job_id: str,
        attempt: int,
        status: str,
        detail: str = "",
        wall_time: Optional[float] = None,
    ) -> None:
        """Log one attempt (success, error, timeout, or crash)."""
        self._sql(
            "INSERT INTO attempts (job_id, attempt, status, detail,"
            " wall_time, at) VALUES (?, ?, ?, ?, ?, ?)",
            (job_id, attempt, status, detail, wall_time, self._clock()),
        )
        self._sql(
            "UPDATE jobs SET attempts = attempts + 1, updated_at = ?"
            " WHERE job_id = ?",
            (self._clock(), job_id),
        )

    def record_success(
        self, job_id: str, payload: dict, wall_time: Optional[float] = None
    ) -> None:
        self._sql(
            "INSERT OR REPLACE INTO results (job_id, payload) VALUES (?, ?)",
            (job_id, json.dumps(payload)),
        )
        self._sql(
            "UPDATE jobs SET status = ?, wall_time = ?, updated_at = ?"
            " WHERE job_id = ?",
            (DONE, wall_time, self._clock(), job_id),
        )

    def record_failure(self, job_id: str) -> None:
        """Mark the job failed; the why is in its attempt rows."""
        self._set_status(job_id, FAILED)

    def _set_status(self, job_id: str, status: str) -> None:
        self._sql(
            "UPDATE jobs SET status = ?, updated_at = ? WHERE job_id = ?",
            (status, self._clock(), job_id),
        )

    # -- queries --------------------------------------------------------

    def completed_ids(self) -> set:
        rows = self._sql(
            "SELECT job_id FROM jobs WHERE status = ?", (DONE,)
        )
        return {row[0] for row in rows}

    def attempts_of(self, job_id: str) -> int:
        row = self._sql(
            "SELECT attempts FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        return row[0] if row else 0

    def payload(self, job_id: str) -> Optional[dict]:
        row = self._sql(
            "SELECT payload FROM results WHERE job_id = ?", (job_id,)
        ).fetchone()
        return json.loads(row[0]) if row else None

    def payloads(self, kind: Optional[str] = None) -> List[Tuple[JobSpec, dict]]:
        """All completed (spec, payload) pairs in plan order."""
        query = (
            "SELECT jobs.spec, results.payload FROM jobs"
            " JOIN results ON jobs.job_id = results.job_id"
        )
        params: tuple = ()
        if kind is not None:
            query += " WHERE jobs.kind = ?"
            params = (kind,)
        query += " ORDER BY jobs.seq"
        return [
            (JobSpec.from_json(spec), json.loads(payload))
            for spec, payload in self._sql(query, params)
        ]

    def specs(self) -> List[JobSpec]:
        """All registered jobs in plan order."""
        rows = self._sql("SELECT spec FROM jobs ORDER BY seq")
        return [JobSpec.from_json(row[0]) for row in rows]

    def statuses(self) -> Dict[str, str]:
        """job_id -> status for every registered job."""
        rows = self._sql("SELECT job_id, status FROM jobs")
        return {job_id: status for job_id, status in rows}

    def summary(self) -> StoreSummary:
        counts: Dict[str, int] = {}
        for status, count in self._sql(
            "SELECT status, COUNT(*) FROM jobs GROUP BY status"
        ):
            counts[status] = count
        total = sum(counts.values())
        done = counts.get(DONE, 0)
        failed = counts.get(FAILED, 0)
        return StoreSummary(
            total=total,
            done=done,
            failed=failed,
            pending=total - done - failed,
        )
