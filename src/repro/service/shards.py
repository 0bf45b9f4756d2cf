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
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

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
    """
    ordered_specs: List[JobSpec] = []
    payload_of: Dict[str, dict] = {}
    status_of: Dict[str, str] = {}
    seen: set = set()
    for path in store_paths:
        with ResultStore(path) as source:
            statuses = source.statuses()
            for spec in source.specs():
                job_id = spec.job_id
                if job_id not in seen:
                    seen.add(job_id)
                    ordered_specs.append(_normalize(spec))
                    status_of[job_id] = statuses.get(job_id, "")
                if job_id not in payload_of:
                    payload = source.payload(job_id)
                    if payload is not None:
                        payload_of[job_id] = payload

    ordered_specs.sort(key=lambda spec: spec.job_id)

    if os.path.exists(out_path):
        os.remove(out_path)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    ok = failed = 0
    with ResultStore(out_path, clock=lambda: 0.0) as out:
        out.register(ordered_specs)
        for spec in ordered_specs:
            job_id = spec.job_id
            payload = payload_of.get(job_id)
            if payload is not None:
                out.record_success(job_id, payload, wall_time=None)
                ok += 1
            elif status_of.get(job_id) == FAILED:
                out.record_failure(job_id)
                failed += 1
            # One commit per recorded job (a no-op for unrecorded ones):
            # SQLite's header counts commits, so this cadence is part of
            # the file's bytes and of every archived sha256.
            out.flush()
    return CompactReport(
        out_path=out_path,
        sources=len(store_paths),
        jobs=len(ordered_specs),
        ok=ok,
        failed=failed,
        sha256=file_sha256(out_path),
    )


def compact_data_dir(
    data_dir: str, out_path: Optional[str] = None
) -> CompactReport:
    """Compact every shard under a service data directory."""
    shards = iter_shards(data_dir)
    if out_path is None:
        out_path = os.path.join(data_dir, "compacted.sqlite")
    return compact([path for _, _, path in shards], out_path)
