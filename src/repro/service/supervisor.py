"""The campaign supervisor: admission, execution, durability, drain.

One :class:`Supervisor` owns everything below the HTTP layer:

* **Admission** — quota gates first, then a durable journal append;
  a campaign is only acknowledged once its submission record has
  been fsynced, so an acked campaign survives any crash.
* **Execution** — campaigns run on a small thread pool; each thread
  drives one of the existing runners (serial / spawn pool / fork
  server) against the campaign's own shard store.  Content-derived
  job IDs make every pass resumable: after a SIGKILL the restarted
  supervisor re-runs only what the shard store has not recorded.
* **Events** — every runner event is appended to the campaign's
  per-shard event log with a monotonically increasing sequence
  number; the server streams them as SSE (``id:`` = seq) and
  replays from any acked seq on reconnect.
* **Degradation ladder** — a circuit-open does not fail the
  campaign: the supervisor marks it *degraded* and re-runs the
  unfinished remainder on a fresh fallback pool, a bounded number
  of times.  Only exhausted ladders report failure.
* **Drain** — ``begin_drain()`` flips submissions to 503 and asks
  every active runner to stop cooperatively; batches in flight are
  acked and flushed, and interrupted campaigns resume on next boot.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.runner import events as ev
from repro.runner.pool import make_runner
from repro.runner.store import ResultStore, StoreBusy, StoreCorrupt
from repro.service import journal as jn
from repro.service import shards
from repro.service.journal import CampaignRecord
from repro.service.plans import PlanError, campaign_id_for, canonical_plan, expand_plan
from repro.service.quotas import AdmissionController, QuotaConfig

#: Event kinds that advance the batch-ack counter.
_TERMINAL_JOB_KINDS = frozenset(
    {ev.JOB_FINISHED, ev.JOB_FAILED, ev.JOB_SKIPPED, ev.JOB_QUARANTINED}
)
#: Runner pass-end kinds that are NOT forwarded to event streams: a
#: degraded campaign runs several passes, and only the supervisor
#: knows which end is final.
_PASS_END_KINDS = frozenset({ev.CAMPAIGN_FINISHED, ev.CAMPAIGN_INTERRUPTED})

#: Tenant names become directory components; keep them boring.
_TENANT_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    data_dir: str
    #: Worker processes per campaign runner.
    jobs: int = 1
    fork_server: bool = False
    timeout: Optional[float] = None
    retries: int = 1
    max_backoff: float = 5.0
    #: Heartbeat grace before a worker counts as wedged.
    liveness_grace: Optional[float] = 30.0
    #: Fork-server dispatch batch size.
    batch: int = 8
    #: Journal a batch ack every this many completed jobs.
    ack_every: int = 8
    #: Consecutive worker deaths before the circuit opens.
    circuit_threshold: int = 8
    #: How many fallback passes a degraded campaign gets.
    degrade_limit: int = 2
    quota: QuotaConfig = field(default_factory=QuotaConfig)


class EventStream:
    """One campaign's durable, seq-numbered event log with live fanout.

    Events are advisory (the store is the source of truth), so appends
    flush but do not fsync; a torn tail costs a progress line, never a
    result.  Sequence numbers continue across restarts, which is what
    makes SSE ``Last-Event-ID`` reconnection exact.
    """

    def __init__(self, path: str, loop_ref: Callable[[], Optional[asyncio.AbstractEventLoop]]):
        self._loop_ref = loop_ref
        self._lock = threading.Lock()
        records, good = jn.read_jsonl(path)
        self._records: List[dict] = records
        self._next = max((int(r.get("seq", 0)) for r in records), default=0) + 1
        self._handle = jn.open_append(path, good)
        self._subscribers: List[asyncio.Queue] = []

    def append(self, event: Dict[str, object]) -> int:
        import json

        with self._lock:
            seq = self._next
            self._next += 1
            record = {"seq": seq, "event": event}
            self._records.append(record)
            self._handle.write((json.dumps(record, sort_keys=True) + "\n").encode())
            self._handle.flush()
        loop = self._loop_ref()
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._fanout, record)
            except RuntimeError:
                pass  # loop shut down mid-append; subscribers are gone
        return seq

    def _fanout(self, record: dict) -> None:
        for queue in list(self._subscribers):
            queue.put_nowait(record)

    def read(self, after: int = 0) -> List[dict]:
        with self._lock:
            return [r for r in self._records if int(r.get("seq", 0)) > after]

    def subscribe(self) -> "asyncio.Queue[dict]":
        """Loop-thread only."""
        queue: "asyncio.Queue[dict]" = asyncio.Queue()
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue[dict]") -> None:
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    def close(self) -> None:
        with self._lock:
            try:
                self._handle.close()
            except OSError:
                pass


class Supervisor:
    """Owns campaign state from admission to terminal journal record."""

    def __init__(self, config: ServiceConfig, clock=time.time):
        self.config = config
        self._clock = clock
        os.makedirs(config.data_dir, exist_ok=True)
        state = jn.boot(
            os.path.join(config.data_dir, "journal.jsonl"),
            os.path.join(config.data_dir, "registry.sqlite"),
            clock=clock,
        )
        self.journal = state.journal
        self.registry = state.registry
        self.records: Dict[str, CampaignRecord] = state.records
        self.admission = AdmissionController(config.quota)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._streams: Dict[str, EventStream] = {}
        self._runners: Dict[str, object] = {}
        self._circuit: Dict[str, str] = {}
        self._since_ack: Dict[str, int] = {}
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        self._pending = 0
        self._draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, config.quota.max_active),
            thread_name_prefix="repro-campaign",
        )

    # -- wiring ---------------------------------------------------------

    def attach_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Let event streams fan out to asyncio subscribers."""
        self._loop = loop

    def stream(self, campaign_id: str) -> Optional[EventStream]:
        record = self.records.get(campaign_id)
        if record is None:
            return None
        return self._stream_for(record)

    def _stream_for(self, record: CampaignRecord) -> EventStream:
        with self._lock:
            stream = self._streams.get(record.campaign_id)
            if stream is None:
                path = shards.event_log_path(
                    self.config.data_dir, record.tenant, record.campaign_id
                )
                stream = EventStream(path, lambda: self._loop)
                self._streams[record.campaign_id] = stream
            return stream

    @property
    def draining(self) -> bool:
        return self._draining

    # -- admission ------------------------------------------------------

    def submit(self, plan: Dict[str, object], tenant: str) -> Tuple[int, dict]:
        """Admit one submission; returns ``(http_status, payload)``."""
        if not tenant or any(c not in _TENANT_OK for c in tenant):
            return 400, {"error": f"invalid tenant name {tenant!r}"}
        if self._draining:
            return 503, {"error": "service is draining", "retry_after": 10}
        try:
            canonical = canonical_plan(plan)
            specs = expand_plan(canonical)
        except PlanError as exc:
            return 400, {"error": str(exc)}
        campaign_id = campaign_id_for(tenant, canonical)
        with self._lock:
            existing = self.records.get(campaign_id)
            if existing is not None:
                # Idempotent resubmission: same tenant + same plan is
                # the same campaign; report its current state.
                return 200, existing.status()
            verdict = self.admission.admit(tenant, len(specs))
            if not verdict.ok:
                return verdict.status, {
                    "error": verdict.reason,
                    "retry_after": verdict.retry_after,
                }
            record = CampaignRecord(
                campaign_id=campaign_id,
                tenant=tenant,
                plan=canonical,
                total_jobs=len(specs),
                state=jn.QUEUED,
                submitted_at=self._clock(),
            )
            # Durable-before-ack: the journal append fsyncs, so once
            # the client sees 202 the campaign survives any crash.
            self.journal.append("submitted", campaign=record.to_dict())
            self.registry.upsert(record)
            self.records[campaign_id] = record
        self._emit(record, ev.CAMPAIGN_SUBMITTED, total=record.total_jobs)
        self._schedule(campaign_id)
        return 202, record.status()

    def resume_pending(self) -> List[str]:
        """Reschedule every campaign whose work is not durably complete.

        That is every non-terminal campaign, plus any *terminal* one
        whose shard store no longer backs its claim (torn, corrupt or
        missing while the journal says done): the journal records
        intent, the store holds the results, and when they disagree
        the store wins — the jobs are deterministic, so re-running
        converges to the same bytes.
        """
        resumed = []
        with self._lock:
            ordered = sorted(
                self.records.values(),
                key=lambda r: (r.submitted_at, r.campaign_id),
            )
            survivors = []
            for record in ordered:
                if record.state in jn.TERMINAL_STATES:
                    if self._shard_backs(record):
                        continue
                    record.detail = "shard store lost; re-running"
                survivors.append(record)
            for record in survivors:
                self.admission.admit_resumed(record.tenant, record.total_jobs)
                record.state = jn.QUEUED
                record.detail = "resumed after restart"
                self.journal.append(
                    "state", id=record.campaign_id, state=jn.QUEUED,
                    detail=record.detail,
                )
                self.registry.upsert(record)
        for record in survivors:
            self._schedule(record.campaign_id)
            resumed.append(record.campaign_id)
        return resumed

    def _shard_backs(self, record: CampaignRecord) -> bool:
        """Does the shard store actually hold what the journal claims?"""
        path = shards.shard_store_path(
            self.config.data_dir, record.tenant, record.campaign_id
        )
        if not os.path.exists(path):
            return record.total_jobs == 0
        try:
            with ResultStore(path) as store:
                summary = store.summary()
        except (StoreBusy, StoreCorrupt):
            return False
        if record.state == jn.DONE:
            return summary.done >= record.total_jobs
        return True

    def _schedule(self, campaign_id: str) -> None:
        with self._idle:
            self._pending += 1
        self._executor.submit(self._run_campaign_guarded, campaign_id)

    # -- execution ------------------------------------------------------

    def _run_campaign_guarded(self, campaign_id: str) -> None:
        record = self.records[campaign_id]
        try:
            self._run_campaign(record)
        except Exception as exc:  # defensive: a crash must journal
            self._finish(record, jn.FAILED, f"supervisor error: {exc}")
        finally:
            self.admission.release(record.tenant, record.total_jobs)
            with self._idle:
                self._runners.pop(campaign_id, None)
                self._pending -= 1
                self._idle.notify_all()

    def _run_campaign(self, record: CampaignRecord) -> None:
        cid = record.campaign_id
        if self._draining:
            self._finish(record, jn.INTERRUPTED, "drained before start")
            return
        cdir = shards.campaign_dir(self.config.data_dir, record.tenant, cid)
        os.makedirs(cdir, exist_ok=True)
        trace_dir = None
        if record.plan.get("trace"):
            trace_dir = shards.trace_dir_path(self.config.data_dir, record.tenant, cid)
            os.makedirs(trace_dir, exist_ok=True)
        specs = expand_plan(record.plan, trace_dir=trace_dir)

        store_path = shards.shard_store_path(self.config.data_dir, record.tenant, cid)
        try:
            store = ResultStore(store_path)
        except StoreCorrupt:
            # A torn shard loses that campaign's progress, nothing
            # else; the jobs are deterministic, so a fresh shard
            # converges to the same results.
            os.replace(store_path, store_path + ".corrupt")
            store = ResultStore(store_path)
        try:
            store.register(specs)
            record.state = jn.RUNNING
            record.detail = ""
            self.journal.append("state", id=cid, state=jn.RUNNING, detail="")
            self.registry.upsert(record)
            self._emit(record, ev.CAMPAIGN_STARTED, total=record.total_jobs)

            stream = self._stream_for(record)
            self._since_ack[cid] = 0
            degrades = 0
            fallback = False
            while True:
                self._circuit[cid] = ""
                runner = self._make_runner(record, store, stream, fallback)
                with self._lock:
                    # Publish the runner before running so a drain
                    # arriving mid-pass can reach request_stop(); a
                    # drain that already happened skips the pass.
                    drained = self._draining
                    if not drained:
                        self._runners[cid] = runner
                if drained:
                    self._ack(record, store)
                    self._finish(record, jn.INTERRUPTED, "drained")
                    return
                outcome = runner.run(specs, store=store)
                if outcome.interrupted:
                    self._ack(record, store)
                    self._finish(
                        record, jn.INTERRUPTED,
                        outcome.interrupt_signal or "stopped",
                    )
                    return
                tripped = self._circuit.get(cid, "")
                if tripped and degrades < self.config.degrade_limit:
                    degrades += 1
                    record.degraded = True
                    record.detail = tripped
                    self.journal.append("degraded", id=cid, detail=tripped)
                    self.registry.upsert(record)
                    self._emit(record, ev.CAMPAIGN_DEGRADED, detail=tripped)
                    fallback = True
                    continue
                break

            self._ack(record, store)
            summary = store.summary()
            failed = summary.total - summary.done
            state = jn.DONE if failed == 0 else jn.FAILED
            detail = "" if failed == 0 else f"{failed} job(s) failed"
            self._finish(record, state, detail)
        finally:
            store.close()

    def _make_runner(self, record, store, stream, fallback: bool):
        cfg = self.config
        callback = self._callback_for(record, store, stream)
        if fallback:
            # Degraded pass: a fresh spawn-per-job pool with a roomier
            # circuit and extra retries — the point is to finish, not
            # to be fast.
            return make_runner(
                jobs=max(cfg.jobs, 2),
                timeout=cfg.timeout,
                retries=max(cfg.retries, 2),
                on_event=callback,
                max_backoff=cfg.max_backoff,
                circuit_threshold=max(cfg.circuit_threshold * 2, 16),
                liveness_grace=cfg.liveness_grace,
            )
        return make_runner(
            jobs=cfg.jobs,
            timeout=cfg.timeout,
            retries=cfg.retries,
            on_event=callback,
            max_backoff=cfg.max_backoff,
            circuit_threshold=cfg.circuit_threshold,
            liveness_grace=cfg.liveness_grace,
            fork_server=cfg.fork_server,
            batch=cfg.batch,
        )

    def _callback_for(self, record, store, stream):
        cid = record.campaign_id

        def on_event(event) -> None:
            if event.kind == ev.CIRCUIT_OPEN:
                self._circuit[cid] = event.detail or "circuit open"
            if event.kind in _PASS_END_KINDS:
                return  # the supervisor emits the real campaign ends
            payload = event.to_dict()
            payload["campaign"] = cid
            stream.append(payload)
            if event.kind in _TERMINAL_JOB_KINDS:
                self._since_ack[cid] = self._since_ack.get(cid, 0) + 1
                if self._since_ack[cid] >= self.config.ack_every:
                    self._since_ack[cid] = 0
                    self._ack(record, store)

        return on_event

    def _ack(self, record: CampaignRecord, store: ResultStore) -> None:
        """Journal a progress checkpoint (advisory; store is truth).

        The store commits first, so the journal never claims progress
        the store has not made durable.
        """
        store.flush()
        summary = store.summary()
        record.ok_jobs = summary.done
        record.failed_jobs = summary.failed
        self.journal.append(
            "batch", id=record.campaign_id, ok=summary.done, failed=summary.failed
        )
        self.registry.upsert(record)

    def _finish(self, record: CampaignRecord, state: str, detail: str) -> None:
        record.state = state
        record.detail = detail
        self.journal.append(
            "state", id=record.campaign_id, state=state, detail=detail
        )
        self.registry.upsert(record)
        kind = (
            ev.CAMPAIGN_INTERRUPTED
            if state == jn.INTERRUPTED
            else ev.CAMPAIGN_FINISHED
        )
        self._emit(record, kind, final=True, state=state, detail=detail)

    def _emit(self, record: CampaignRecord, kind: str, final: bool = False, **fields):
        stream = self._stream_for(record)
        event: Dict[str, object] = {
            "kind": kind,
            "campaign": record.campaign_id,
            "final": final,
        }
        event.update(fields)
        stream.append(event)

    # -- queries --------------------------------------------------------

    def status(self, campaign_id: str) -> Optional[dict]:
        record = self.records.get(campaign_id)
        return None if record is None else record.status()

    def list_campaigns(self, tenant: Optional[str] = None) -> List[dict]:
        records = sorted(
            self.records.values(), key=lambda r: (r.submitted_at, r.campaign_id)
        )
        return [
            r.status() for r in records if tenant is None or r.tenant == tenant
        ]

    def health(self) -> dict:
        by_state: Dict[str, int] = {}
        for record in self.records.values():
            by_state[record.state] = by_state.get(record.state, 0) + 1
        return {
            "state": "draining" if self._draining else "ok",
            "campaigns": by_state,
            "admission": self.admission.snapshot(),
        }

    # -- lifecycle ------------------------------------------------------

    def run_until_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no campaign is queued or running (headless mode)."""
        with self._idle:
            return self._idle.wait_for(lambda: self._pending == 0, timeout)

    def begin_drain(self) -> None:
        """Stop accepting work and cooperatively stop active runners."""
        with self._lock:
            self._draining = True
            runners = list(self._runners.values())
        for runner in runners:
            stop = getattr(runner, "request_stop", None)
            if stop is not None:
                stop()

    def drain(self, timeout: Optional[float] = None) -> bool:
        self.begin_drain()
        return self.run_until_idle(timeout)

    def close(self) -> None:
        self._executor.shutdown(wait=True)
        for stream in self._streams.values():
            stream.close()
        self.journal.close()
        self.registry.close()
