"""Sharded result stores and byte-stable compaction.

Each campaign writes to its own SQLite store under the tenant's
directory::

    <data-dir>/tenants/<tenant>/<campaign-id>/store.sqlite
                                              events.jsonl
                                              traces/

One store per campaign means a hot campaign never holds the writer
lock over another tenant's results, and a torn shard loses one
campaign's progress, not the service's.

:func:`compact` folds shards into a single **byte-stable** aggregate:
building it with a pinned clock, wall times stripped, specs
normalized (trace destinations removed — they are placement, not
identity) and insertion following a canonical order makes the output
file a pure function of the logical results.  That is the property
the kill-and-restart invariant leans on: a chaos-interrupted,
resumed service compacts to the *same sha256* as an uninterrupted
run — and as a plain ``repro campaign`` CLI store of the same plan.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import tempfile
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.runner.jobs import JobSpec
from repro.runner.store import FAILED, ResultStore

STORE_NAME = "store.sqlite"
EVENTS_NAME = "events.jsonl"
TRACES_NAME = "traces"


def tenant_dir(data_dir: str, tenant: str) -> str:
    """Root of one tenant's campaign shards."""
    return os.path.join(data_dir, "tenants", tenant)


def campaign_dir(data_dir: str, tenant: str, campaign_id: str) -> str:
    """Directory holding one campaign's store, events and traces."""
    return os.path.join(tenant_dir(data_dir, tenant), campaign_id)


def shard_store_path(data_dir: str, tenant: str, campaign_id: str) -> str:
    """The campaign's private SQLite result store."""
    return os.path.join(campaign_dir(data_dir, tenant, campaign_id), STORE_NAME)


def event_log_path(data_dir: str, tenant: str, campaign_id: str) -> str:
    """The campaign's seq-numbered JSONL event log."""
    return os.path.join(campaign_dir(data_dir, tenant, campaign_id), EVENTS_NAME)


def trace_dir_path(data_dir: str, tenant: str, campaign_id: str) -> str:
    """Where the campaign's trace artefacts land when tracing is on."""
    return os.path.join(campaign_dir(data_dir, tenant, campaign_id), TRACES_NAME)


def iter_shards(data_dir: str) -> List[Tuple[str, str, str]]:
    """All ``(tenant, campaign_id, store_path)`` triples, sorted.

    The sort order — tenant, then campaign ID — is part of the
    compaction contract: it fixes aggregate insertion order no matter
    in what order campaigns ran or finished.
    """
    shards: List[Tuple[str, str, str]] = []
    root = os.path.join(data_dir, "tenants")
    if not os.path.isdir(root):
        return shards
    for tenant in sorted(os.listdir(root)):
        tenant_path = os.path.join(root, tenant)
        if not os.path.isdir(tenant_path):
            continue
        for campaign_id in sorted(os.listdir(tenant_path)):
            store_path = os.path.join(tenant_path, campaign_id, STORE_NAME)
            if os.path.exists(store_path):
                shards.append((tenant, campaign_id, store_path))
    return shards


def file_sha256(path: str) -> str:
    """The sha256 hex digest of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class CompactReport:
    """What a compaction produced."""

    out_path: str
    sources: int
    jobs: int
    ok: int
    failed: int
    sha256: str

    def render(self) -> str:
        return (
            f"compacted {self.sources} shard(s) -> {self.out_path}\n"
            f"  jobs {self.jobs}, ok {self.ok}, failed {self.failed}\n"
            f"  sha256 {self.sha256}"
        )


def _normalize(spec: JobSpec) -> JobSpec:
    # trace_dir is an absolute artefact path — scrubbing it keeps the
    # aggregate independent of where the data dir happened to live.
    if spec.trace_dir is None:
        return spec
    return replace(spec, trace_dir=None)


def compact(store_paths: Sequence[str], out_path: str) -> CompactReport:
    """Fold result stores into one deterministic aggregate store.

    First occurrence wins when the same job ID appears in several
    shards (identical jobs produce identical payloads, so the choice
    only matters for determinism, not content).  The aggregate is
    built with a pinned clock, no wall times, and specs inserted in
    job-ID order — a content-derived total order, so the output file
    is a pure function of the logical result *set*, independent of
    how any source happened to register its jobs.  A service shard
    and a CLI ``repro campaign`` store of the same plan therefore
    compact to byte-identical files even though their planners walk
    the matrix in different orders.

    The merged rows are staged in a temporary SQLite file beside the
    output and streamed from it in job-ID order, so memory stays flat
    however many shards the data directory holds.  The aggregate is
    built beside them too, fsynced once and renamed over ``out_path``:
    a compaction that fails leaves the previous aggregate in place.
    """
    out_dir = os.path.dirname(out_path) or "."
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        built = os.path.join(scratch, "aggregate.sqlite")
        staged = sqlite3.connect(os.path.join(scratch, "staged.sqlite"))
        try:
            _stage(staged, store_paths)
            jobs, ok, failed = _write_aggregate(staged, built)
        finally:
            staged.close()
        with open(built, "rb") as handle:
            os.fsync(handle.fileno())
        os.replace(built, out_path)
    return CompactReport(
        out_path=out_path,
        sources=len(store_paths),
        jobs=jobs,
        ok=ok,
        failed=failed,
        sha256=file_sha256(out_path),
    )


#: Page-cache budget of the compaction connections, in KiB (SQLite's
#: negative ``cache_size``); the default is 2 MiB each.  The cache only
#: holds clean pages here — every row is written once, in order.
_COMPACT_CACHE_KIB = 256


def _cap_cache(conn: sqlite3.Connection) -> None:
    conn.execute(f"PRAGMA cache_size = -{_COMPACT_CACHE_KIB}")


def _stage(staged: sqlite3.Connection, store_paths: Sequence[str]) -> None:
    """Merge every source's ``(job_id, spec, status, payload)`` rows,
    first occurrence winning, into the staging database."""
    _cap_cache(staged)
    staged.execute("PRAGMA journal_mode = OFF")
    staged.execute("PRAGMA synchronous = OFF")
    staged.execute(
        "CREATE TABLE staged (job_id TEXT PRIMARY KEY, spec TEXT NOT NULL,"
        " status TEXT NOT NULL, payload TEXT)"
    )
    for path in store_paths:
        with ResultStore(path) as source:
            statuses = source.statuses()
            staged.executemany(
                "INSERT OR IGNORE INTO staged (job_id, spec, status)"
                " VALUES (?, ?, ?)",
                (
                    (spec.job_id, _normalize(spec).to_json(),
                     statuses.get(spec.job_id, ""))
                    for spec in source.specs()
                ),
            )
            # A job's first recorded payload wins, even when an earlier
            # shard registered the job without completing it.
            staged.executemany(
                "UPDATE staged SET payload = ?"
                " WHERE job_id = ? AND payload IS NULL",
                (
                    (json.dumps(payload), spec.job_id)
                    for spec, payload in source.payloads()
                ),
            )
        staged.commit()


def _write_aggregate(
    staged: sqlite3.Connection, out_path: str
) -> Tuple[int, int, int]:
    """Build the aggregate from the staged rows; ``(jobs, ok, failed)``.

    The per-job commits stay, but none is made durable: the caller
    fsyncs the finished file once.  Neither pragma reaches the file's
    bytes (a rollback journal's mode is not recorded in the header).
    """
    ok = failed = 0
    with ResultStore(out_path, clock=lambda: 0.0) as out:
        _cap_cache(out._conn)  # noqa: SLF001
        out._conn.execute("PRAGMA journal_mode = MEMORY")  # noqa: SLF001
        out._conn.execute("PRAGMA synchronous = OFF")  # noqa: SLF001
        out.register(
            JobSpec.from_json(spec)
            for (spec,) in staged.execute(
                "SELECT spec FROM staged ORDER BY job_id"
            )
        )
        rows = staged.execute(
            "SELECT job_id, status, payload FROM staged ORDER BY job_id"
        )
        jobs = 0
        for job_id, status, payload in rows:
            jobs += 1
            if payload is not None:
                out.record_success(job_id, json.loads(payload), wall_time=None)
                ok += 1
            elif status == FAILED:
                out.record_failure(job_id)
                failed += 1
            # One commit per recorded job (a no-op for unrecorded ones):
            # SQLite's header counts commits, so this cadence is part of
            # the file's bytes and of every archived sha256.
            out.flush()
    return jobs, ok, failed


def compact_data_dir(
    data_dir: str, out_path: Optional[str] = None
) -> CompactReport:
    """Compact every shard under a service data directory."""
    shards = iter_shards(data_dir)
    if out_path is None:
        out_path = os.path.join(data_dir, "compacted.sqlite")
    return compact([path for _, _, path in shards], out_path)
