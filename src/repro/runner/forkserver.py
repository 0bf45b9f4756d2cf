"""Fork-server campaign execution: persistent, snapshot-cached workers.

The per-campaign :class:`~repro.runner.pool.WorkerPool` pays two fixed
costs that dominate short campaigns: starting its workers and building
a fresh testbed per trial (~5ms against ~1ms of actual injection
work).  Its workers fork from the stdlib ``forkserver`` with the job
modules preloaded — a few ms each once that server is up, but the
first pool in a process waits for the server's own interpreter boot.

:class:`ForkServerPool` removes both costs:

* workers start via the ``fork`` context where the platform offers it
  (the parent's warm imports, ~2ms, no server to boot), falling back
  to ``spawn`` elsewhere;
* each worker keeps a per-version **snapshot cache**: the first trial
  of a version boots a testbed and captures a
  :class:`~repro.core.checkpoint.TestbedCheckpoint`; every later trial
  *restores* the checkpoint in place instead of rebuilding the machine;
* jobs travel in **batches** over the existing per-worker
  length-prefixed pipes, amortizing IPC and scheduling overhead.

Robustness is the design center, not an afterthought — persistent
processes accumulate state and cached snapshots can rot:

* every restore is **digest-verified** against the checkpoint's
  ``machine_digest``; a mismatch evicts the cache entry, cold-boots a
  fresh testbed, emits a structured ``restore-diverged`` event and is
  counted in the pool's infrastructure :class:`MetricsCollector`;
* workers are **health-checked and recycled** after ``recycle_after``
  trials or unbounded RSS growth (the same park/reboot discipline
  ReHype applies to the hypervisor itself);
* heartbeat liveness and batch-progress timeouts carry over from the
  base pool, with :func:`~repro.runner.pool.seeded_backoff` retries;
* repeated worker deaths trip the shared circuit breaker, and the pool
  then **degrades** to a one-job-at-a-time :class:`WorkerPool` (workers
  forked from the preloaded stdlib ``forkserver``, no snapshot cache)
  for the leftover jobs instead of failing the campaign — completed
  results are preserved through the store;
* SIGINT/SIGTERM flush in-flight batch members back to pending (they
  are simply never recorded as done), so ``--resume`` stays exact.

Correctness invariant: serial == spawn-pool == fork-server, byte for
byte, over results, traces and metrics — enforced by the parity tests
and the chaos harness's fork-server faults.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import signal
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.probes.metrics import MetricsCollector
from repro.resilience.quarantine import CircuitBreaker, PoisonTracker
from repro.runner import events as ev
from repro.runner.events import EventHub
from repro.runner.jobs import (
    FUZZ_TRIAL,
    JobSpec,
    TransientJobError,
    execute_job,
)
from repro.runner.pool import (
    _LIVE_WORKERS,
    _SHUTDOWN_GRACE,
    JobFn,
    RunnerOutcome,
    WorkerPool,
    _liveness_grace,
    _ResultChannel,
    _resume_into,
    _SignalGuard,
    _Worker,
)
from repro.runner.store import ResultStore

#: Jobs shipped to a worker per dispatch.
DEFAULT_BATCH = 8
#: Trials a worker serves before it is recycled.
DEFAULT_RECYCLE_AFTER = 256
#: Peak-RSS growth over a worker's first batch (KiB) that triggers
#: recycling — a leaking worker is parked before it hurts the host.
DEFAULT_MAX_RSS_GROWTH_KB = 262144


def preferred_context() -> str:
    """``fork`` where the platform supports it, else ``spawn``.

    Fork inherits the parent's warm imports (~2ms to a live worker vs
    ~0.5s for a fresh spawn interpreter), with no forkserver to boot
    first.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ----------------------------------------------------------------------
# Worker-side snapshot cache
# ----------------------------------------------------------------------
#
# Module-level state is deliberate: each worker is its own process, so
# these globals are per-worker.  ``execute_job_cached`` is a plain
# picklable function, which lets the chaos harness compose it under
# its own fault-injecting job_fn wrapper.


@dataclass
class _CacheEntry:
    bed: Any
    checkpoint: Any  # TestbedCheckpoint (imported lazily)


_CACHE: Dict[str, _CacheEntry] = {}
_CACHE_STATS: Dict[str, int] = {}
_INFRA: List[dict] = []
_RESTORE_CHAOS: Optional[Any] = None


def _stat(key: str, n: int = 1) -> None:
    _CACHE_STATS[key] = _CACHE_STATS.get(key, 0) + n


def _reset_worker_cache() -> None:
    """Test hook: forget cached beds and counters in this process."""
    _CACHE.clear()
    _CACHE_STATS.clear()
    _INFRA.clear()


def _lease_bed(campaign: Any, spec: JobSpec, attempt: int = 0) -> Any:
    """A testbed for one trial: restored from cache, or cold-booted.

    The restore path is digest-verified end to end: a cached snapshot
    whose restore does not reproduce the capture-time
    ``machine_digest`` is evicted, the divergence is recorded as a
    structured infra event, and the trial falls back to the exact
    cold-boot path a cache miss takes — so a rotten snapshot can cost
    throughput but never correctness.
    """
    from repro.core.checkpoint import CheckpointDiverged, TestbedCheckpoint

    # One warm bed per (version, topology): a cached snapshot of the
    # wrong scenario shape must never serve a trial.
    key = f"{spec.version}|{spec.topology}" if spec.topology else spec.version
    entry = _CACHE.get(key)
    if entry is not None:
        if _RESTORE_CHAOS is not None:
            _RESTORE_CHAOS.before_restore(entry, spec.job_id, attempt)
        try:
            entry.checkpoint.restore(entry.bed)
            _stat("forkserver.restores")
            return entry.bed
        except CheckpointDiverged as exc:
            del _CACHE[key]
            _stat("forkserver.restore.diverged")
            _stat("forkserver.cold_boots")
            _INFRA.append(
                {
                    "kind": "restore-diverged",
                    "version": key,
                    "expected": exc.expected,
                    "actual": exc.actual,
                }
            )
    bed = campaign.testbed_factory(campaign.version)
    _CACHE[key] = _CacheEntry(
        bed=bed, checkpoint=TestbedCheckpoint.capture(bed)
    )
    _stat("forkserver.captures")
    return bed


def execute_job_cached(spec: JobSpec, attempt: int = 0) -> Dict[str, object]:
    """``execute_job`` with snapshot-cached classic fuzz trials.

    Classic (non-synthetic) fuzz trials build their testbed through
    ``testbed_factory(version)``, so one warm bed per version serves
    every trial after an exact checkpoint restore.  Every other job
    kind runs cold through :func:`~repro.runner.jobs.execute_job` —
    those jobs still gain the fork-server's process reuse and batch
    IPC, just not the snapshot cache.
    """
    if spec.kind != FUZZ_TRIAL:
        return execute_job(spec, attempt)
    from repro.vulngen.corpus import is_synthetic_id

    if is_synthetic_id(spec.use_case):
        return execute_job(spec, attempt)
    from repro.core.fuzz import RandomErroneousStateCampaign
    from repro.xen.versions import version_by_name

    campaign = RandomErroneousStateCampaign(version_by_name(spec.version))
    bed = _lease_bed(campaign, spec, attempt)
    component = campaign.component_by_name(spec.use_case)
    seed = spec.seed if spec.seed is not None else 0
    result = campaign.run_trial_on(bed, component, seed)
    return asdict(result)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _forkserver_worker_main(
    worker_id: int,
    job_fn: JobFn,
    inbox: Any,
    outbox: Any,
    heartbeat: Any = None,
    beat_interval: float = 0.2,
    restore_chaos: Optional[Any] = None,
) -> None:
    """Persistent worker loop: take a batch, stream results, repeat.

    Signal discipline for *persistent* workers: SIGINT is ignored (a
    terminal Ctrl-C reaches the whole foreground process group; the
    parent's signal guard owns interruption policy, and a worker that
    dies mid-batch would just lose streamed work), and SIGTERM is
    reset to the default action (a fork-context child inherits the
    parent's no-op guard handler, which would make ``terminate()``
    useless).  The heartbeat thread doubles as a parent-death watchdog:
    if the parent vanishes without closing our inbox (SIGKILL), the
    reparented worker exits instead of surviving as an orphan.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # A fork-context child inherits the parent's module state — if the
    # parent process ever ran execute_job_cached itself, that includes
    # its snapshot cache and counters.  Start from a clean slate.
    _reset_worker_cache()
    global _RESTORE_CHAOS
    _RESTORE_CHAOS = restore_chaos
    parent_pid = os.getppid()
    if heartbeat is not None:

        def _beat() -> None:
            while True:
                heartbeat.value = time.monotonic()
                if os.getppid() != parent_pid:
                    os._exit(0)  # parent died; do not outlive it
                time.sleep(beat_interval)

        threading.Thread(
            target=_beat, daemon=True, name="repro-heartbeat"
        ).start()
    try:
        outbox.put((worker_id, None, "ready", None, False, 0.0))
    except OSError:
        return
    seq = 0
    while True:
        try:
            item = inbox.recv()
        except (EOFError, OSError):
            return  # the parent closed our inbox (or died): shut down
        if item is None:
            return
        for spec_json, attempt in item:
            spec = JobSpec.from_json(spec_json)
            started = time.perf_counter()
            status, retryable = "done", False
            payload: object
            try:
                payload = job_fn(spec, attempt)
            except TransientJobError as exc:
                status, payload, retryable = "error", str(exc), True
            except BaseException as exc:  # noqa: BLE001 - isolation boundary
                status, payload = "error", f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - started
            try:
                for infra in list(_INFRA):
                    seq += 1
                    outbox.put(
                        (
                            worker_id, spec.job_id, "infra",
                            dict(infra, seq=seq), False, 0.0,
                        )
                    )
                _INFRA.clear()
                outbox.put(
                    (worker_id, spec.job_id, status, payload, retryable, wall)
                )
            except OSError:
                return  # the parent is gone; nobody is listening
        seq += 1
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        counters = dict(_CACHE_STATS)
        try:
            outbox.put(
                (
                    worker_id, None, "batch-done",
                    {"seq": seq, "rss_kb": rss_kb, "counters": counters},
                    False, 0.0,
                )
            )
        except OSError:
            return
        _CACHE_STATS.clear()


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------


@dataclass
class _BatchWorker(_Worker):
    """Parent-side handle for one persistent batch worker."""

    #: The in-flight batch, as (spec, attempt) pairs; results stream
    #: back in batch order, so ``batch[acked]`` is always the member
    #: currently executing.
    batch: List[Tuple[JobSpec, int]] = field(default_factory=list)
    acked: int = 0
    #: Trials served over this worker's whole lifetime.
    served: int = 0
    #: Peak RSS (KiB) after the worker's first batch — the baseline
    #: RSS-growth recycling measures against.
    baseline_rss: int = 0
    #: Highest infra/batch-done sequence number seen, for dropping
    #: chaos-duplicated control messages.
    infra_seq: int = 0
    #: Batches sent to the worker, and ``batch-done`` frames received
    #: back; equal once every batch's counters have been accounted.
    batches_sent: int = 0
    batches_done: int = 0
    retiring: bool = False
    recycle_reason: str = ""

    @property
    def busy(self) -> bool:
        return self.acked < len(self.batch)

    def current(self) -> Tuple[JobSpec, int]:
        return self.batch[self.acked]


class ForkServerPool(WorkerPool):
    """Persistent snapshot-cached worker pool with graceful degradation.

    A drop-in :class:`WorkerPool` replacement (same ``run`` contract,
    store semantics and event stream) that keeps workers alive across
    jobs, dispatches in batches, and serves classic fuzz trials from
    digest-verified snapshot restores.  When the circuit breaker opens
    — persistent workers keep dying, an environment problem the
    fork-server cannot out-retry — the pool degrades to a fresh
    one-job-at-a-time :class:`WorkerPool` for the remaining jobs instead
    of failing the campaign (``degrade=False`` restores the base
    pool's fail-fast behaviour).
    """

    def __init__(
        self,
        jobs: int = 2,
        batch: int = DEFAULT_BATCH,
        recycle_after: int = DEFAULT_RECYCLE_AFTER,
        max_rss_growth_kb: int = DEFAULT_MAX_RSS_GROWTH_KB,
        context: Optional[str] = None,
        degrade: bool = True,
        metrics: Optional[MetricsCollector] = None,
        job_fn: JobFn = execute_job_cached,
        **kwargs: Any,
    ):
        super().__init__(jobs=jobs, job_fn=job_fn, **kwargs)
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if recycle_after < 1:
            raise ValueError("recycle_after must be >= 1")
        self.batch = batch
        self.recycle_after = recycle_after
        self.max_rss_growth_kb = max_rss_growth_kb
        self.degrade = degrade
        #: Infrastructure metrics sink (restores, divergences, cold
        #: boots, recycles).  Kept separate from any per-trial
        #: collector: these counters describe execution machinery and
        #: must never leak into persisted trial results.
        self.metrics = metrics if metrics is not None else MetricsCollector()
        #: Plain-dict mirror of the infra counters, for reports/tests.
        self.stats: Dict[str, int] = {}
        self._ctx = multiprocessing.get_context(context or preferred_context())
        #: The degraded spawn pool, while one is running (stop
        #: requests must reach it, not just this halted pool).
        self._fallback: Optional[WorkerPool] = None

    def request_stop(self) -> None:
        super().request_stop()
        if self._fallback is not None:
            self._fallback.request_stop()

    # -- hooks ----------------------------------------------------------

    def _restore_chaos(self) -> Optional[Any]:
        """Worker-side restore fault injector — chaos harness hook.

        Must return a picklable object with a
        ``before_restore(entry, job_id, attempt)`` method (or None).
        It runs in the worker immediately before each cached restore,
        which is where the chaos harness corrupts snapshot bytes and
        wedges restores.
        """
        return None

    def _fallback_job_fn(self) -> JobFn:
        """Job function for the degraded one-job-at-a-time pool."""
        if self.job_fn is execute_job_cached:
            return execute_job
        return self.job_fn

    # -- public API -----------------------------------------------------

    def run(
        self, specs: Sequence[JobSpec], store: Optional[ResultStore] = None
    ) -> RunnerOutcome:
        specs = list(specs)
        outcome = RunnerOutcome()
        hub = EventHub(total=len(specs), callback=self.on_event)
        remaining = _resume_into(outcome, specs, store)
        for spec in specs:  # plan order, not set order: deterministic events
            if spec.job_id in outcome.skipped:
                hub.emit(ev.JOB_SKIPPED, job_id=spec.job_id)
        if not remaining:
            hub.emit(ev.CAMPAIGN_FINISHED)
            return outcome

        self._poison = PoisonTracker(self.poison_threshold)
        self._circuit = CircuitBreaker(self.circuit_threshold)
        self._halted = ""
        self.stats = {}

        pending: List[tuple] = [(0.0, spec, 0) for spec in remaining]
        workers: Dict[int, _BatchWorker] = {}
        next_worker_id = 0

        abandoned: List[tuple] = []
        try:
            with _SignalGuard() as guard:
                for _ in range(min(self.jobs, len(pending))):
                    workers[next_worker_id] = self._spawn(next_worker_id)
                    next_worker_id += 1
                while pending or any(w.busy for w in workers.values()):
                    if guard.tripped or self._halted or self._stop_requested:
                        break
                    self._assign(pending, workers, store, hub)
                    self._drain(workers, pending, outcome, store, hub)
                    self._check_timeouts(workers, pending, outcome, store, hub)
                    self._check_liveness(workers, pending, outcome, store, hub)
                    self._check_crashes(workers, pending, outcome, store, hub)
                    next_worker_id = self._replenish(
                        workers, pending, next_worker_id
                    )
                self._await_batch_done(workers, pending, outcome, store, hub)
                if guard.tripped or self._stop_requested:
                    outcome.interrupted = True
                    outcome.interrupt_signal = (
                        guard.describe() or "stop-requested"
                    )
                # Every unacked batch member flushes back: it was never
                # recorded as done, so the store still counts it as
                # pending work and --resume picks it up exactly.
                abandoned = [
                    (spec, attempt)
                    for worker in workers.values()
                    for (spec, attempt) in worker.batch[worker.acked:]
                ]
        finally:
            self._shutdown(workers)

        if outcome.interrupted:
            hub.emit(ev.CAMPAIGN_INTERRUPTED, detail=outcome.interrupt_signal)
        elif self._halted:
            if self.degrade:
                self._degrade_remaining(
                    specs, pending, abandoned, outcome, store, hub
                )
            else:
                self._fail_remaining(
                    pending, abandoned, outcome, store, hub, self._halted
                )
        if store is not None:
            store.flush()
        hub.emit(ev.CAMPAIGN_FINISHED)
        return outcome

    # -- degradation ladder --------------------------------------------

    def _degrade_remaining(
        self, specs, pending, abandoned, outcome, store, hub
    ) -> None:
        """Circuit open: hand the leftovers to a fresh :class:`WorkerPool`.

        The degradation ladder's last rung before failure: persistent
        workers keep dying, so run what's left the conservative way —
        new workers forked from the preloaded stdlib ``forkserver``
        (not from this process), one job at a time, a cold testbed per
        job and no snapshot cache.  Completed results stay in the
        outcome and the store; only unfinished jobs are re-dispatched.
        """
        unfinished = {spec.job_id for _ready, spec, _attempt in pending}
        unfinished.update(spec.job_id for spec, _attempt in abandoned)
        pending.clear()
        leftovers = [
            spec for spec in specs
            if spec.job_id in unfinished
            and spec.job_id not in outcome.results
            and spec.job_id not in outcome.failures
        ]
        detail = (
            f"{self._halted}; degrading {len(leftovers)} job(s) to the "
            "spawn-per-job pool"
        )
        hub.emit(ev.POOL_DEGRADED, detail=detail)
        self._count("forkserver.degraded")
        if not leftovers:
            return
        fallback = self._fallback = WorkerPool(
            jobs=self.jobs,
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            max_backoff=self.max_backoff,
            job_fn=self._fallback_job_fn(),
            on_event=self.on_event,
            poll_interval=self.poll_interval,
            poison_threshold=self.poison_threshold,
            circuit_threshold=self.circuit_threshold,
            liveness_grace=self.liveness_grace,
            beat_interval=self.beat_interval,
        )
        fb_outcome = fallback.run(leftovers, store=store)
        outcome.results.update(fb_outcome.results)
        outcome.failures.update(fb_outcome.failures)
        if fb_outcome.interrupted:
            outcome.interrupted = True
            outcome.interrupt_signal = fb_outcome.interrupt_signal

    # -- infra accounting ----------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + n
        self.metrics.count(key, n)

    # -- scheduling internals ------------------------------------------

    def _spawn(self, worker_id: int) -> _BatchWorker:
        inbox_r, inbox_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        heartbeat = self._ctx.Value("d", time.monotonic())
        process = self._ctx.Process(
            target=_forkserver_worker_main,
            args=(
                worker_id, self.job_fn, inbox_r,
                self._wrap_outbox(_ResultChannel(result_w)), heartbeat,
                self.beat_interval, self._restore_chaos(),
            ),
            daemon=True,
            name=f"repro-forkserver-{worker_id}",
        )
        process.start()
        inbox_r.close()
        result_w.close()
        os.set_blocking(result_r.fileno(), False)
        _LIVE_WORKERS.add(process)
        return _BatchWorker(
            worker_id=worker_id, process=process, inbox=inbox_w,
            conn=result_r, heartbeat=heartbeat,
        )

    def _assign(self, pending, workers, store, hub) -> None:
        now = time.monotonic()
        for worker in workers.values():
            if worker.busy or worker.retiring or not pending:
                continue
            indices = [
                i for i, (ready, _, _) in enumerate(pending) if ready <= now
            ][: self.batch]
            if not indices:
                continue
            members = []
            for i in reversed(indices):
                members.append(pending.pop(i))
            members.reverse()
            worker.batch = [
                (spec, attempt) for _ready, spec, attempt in members
            ]
            worker.acked = 0
            worker.started_at = now
            try:
                worker.inbox.send(
                    [
                        (spec.to_json(), attempt)
                        for spec, attempt in worker.batch
                    ]
                )
                worker.batches_sent += 1
            except OSError:
                pass  # worker just died; _check_crashes re-queues the batch
            for spec, attempt in worker.batch:
                if store is not None and attempt == 0:
                    store.mark_running(spec.job_id)
                hub.emit(
                    ev.JOB_STARTED, job_id=spec.job_id, label=spec.label,
                    worker=worker.worker_id, attempt=attempt,
                )

    def _dispatch(
        self, message, workers, pending, outcome, store, hub
    ) -> None:
        worker_id, job_id, status, payload, retryable, wall = message
        worker = workers.get(worker_id)
        if worker is None:
            return  # a replaced or retired worker's late message
        if status == "ready":
            worker.ready = True
            if worker.busy:
                worker.started_at = time.monotonic()
            return
        if status == "infra":
            if payload.get("seq", 0) <= worker.infra_seq:
                return  # chaos-duplicated control message
            worker.infra_seq = payload["seq"]
            self._on_infra(payload, job_id, worker, hub)
            return
        if status == "batch-done":
            if payload.get("seq", 0) <= worker.infra_seq:
                return
            worker.infra_seq = payload["seq"]
            worker.batches_done += 1
            self._on_batch_done(payload, worker, workers, hub)
            return
        if not worker.busy:
            return  # stale result (a chaos duplicate after batch end)
        spec, attempt = worker.current()
        if spec.job_id != job_id:
            return  # stale or duplicated mid-batch message
        worker.acked += 1
        worker.served += 1
        worker.started_at = time.monotonic()  # batch progress clock
        self._circuit.record_success()
        if status == "done":
            outcome.results[spec.job_id] = payload
            if store is not None:
                store.record_attempt(spec.job_id, attempt, "done", "", wall)
                store.record_success(spec.job_id, payload, wall)
            hub.emit(
                ev.JOB_FINISHED, job_id=spec.job_id, label=spec.label,
                worker=worker_id, attempt=attempt,
            )
        else:
            if store is not None:
                store.record_attempt(
                    spec.job_id, attempt, "error", str(payload), wall
                )
            self._retry_or_fail(
                spec, attempt, str(payload), retryable, pending, outcome,
                store, hub,
            )
        if not worker.busy:
            worker.batch = []
            worker.acked = 0
            if worker.retiring:
                self._retire(workers, worker, hub)

    def _await_batch_done(self, workers, pending, outcome, store, hub) -> None:
        """Drain until every idle worker has acknowledged every batch.

        A batch's trailing ``batch-done`` frame (carrying the worker's
        cache counters) lands moments after its last result, so the
        main loop can exit while one or more are still in flight.
        Workers at EOF and workers still busy (an interrupted or halted
        campaign) will send nothing more worth waiting for; the wait is
        bounded by the shutdown grace either way.
        """
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        while time.monotonic() < deadline and any(
            not w.eof and not w.busy and w.batches_done < w.batches_sent
            for w in workers.values()
        ):
            self._drain(workers, pending, outcome, store, hub)

    def _on_infra(self, payload, job_id, worker, hub) -> None:
        if payload.get("kind") == "restore-diverged":
            hub.emit(
                ev.RESTORE_DIVERGED,
                job_id=job_id or "",
                worker=worker.worker_id,
                detail=(
                    f"xen-{payload.get('version', '?')}: restored digest "
                    f"{payload.get('actual', '')[:12]} != checkpoint "
                    f"{payload.get('expected', '')[:12]}"
                ),
            )

    def _on_batch_done(self, payload, worker, workers, hub) -> None:
        counters = payload.get("counters", {})
        for key in sorted(counters):
            self._count(key, counters[key])
        rss = int(payload.get("rss_kb", 0))
        if worker.baseline_rss == 0:
            worker.baseline_rss = rss
        grown = rss - worker.baseline_rss
        reason = ""
        if worker.served >= self.recycle_after:
            reason = (
                f"served {worker.served} trials "
                f"(recycle_after {self.recycle_after})"
            )
        elif self.max_rss_growth_kb and grown > self.max_rss_growth_kb:
            reason = (
                f"rss grew {grown} KiB over baseline "
                f"(limit {self.max_rss_growth_kb})"
            )
        if reason:
            worker.retiring = True
            worker.recycle_reason = reason
            if not worker.busy:
                self._retire(workers, worker, hub)

    def _retire(self, workers, worker, hub) -> None:
        """Gracefully replace a worker that hit its recycling limit."""
        hub.emit(
            ev.WORKER_RECYCLED, worker=worker.worker_id,
            detail=worker.recycle_reason,
        )
        self._count("forkserver.workers.recycled")
        workers.pop(worker.worker_id, None)
        try:
            worker.inbox.send(None)
        except OSError:
            pass
        worker.process.join(timeout=2.0)
        self._kill(workers, worker)  # force + close pipes if still alive

    def _requeue_tail(self, worker, pending) -> None:
        """Flush a dead worker's unstarted batch members back to pending.

        Members *after* the one currently executing are requeued at
        their existing attempt count — the worker never started them,
        so its death is not their failure.
        """
        for spec, attempt in worker.batch[worker.acked + 1:]:
            pending.append((0.0, spec, attempt))

    def _check_timeouts(self, workers, pending, outcome, store, hub) -> None:
        if self.timeout is None:
            return
        now = time.monotonic()
        for worker in list(workers.values()):
            if not worker.busy or not worker.ready:
                continue
            if now - worker.started_at <= self.timeout:
                continue
            spec, attempt = worker.current()
            detail = (
                f"no batch progress for {self.timeout:.1f}s on member "
                f"{worker.acked + 1}/{len(worker.batch)}"
            )
            hub.emit(
                ev.JOB_TIMEOUT, job_id=spec.job_id, label=spec.label,
                worker=worker.worker_id, attempt=attempt, detail=detail,
            )
            self._kill(workers, worker)
            if store is not None:
                store.record_attempt(
                    spec.job_id, attempt, "timeout", detail, self.timeout
                )
            self._requeue_tail(worker, pending)
            self._handle_death(
                spec, attempt, detail, pending, outcome, store, hub
            )

    def _check_liveness(self, workers, pending, outcome, store, hub) -> None:
        if self.liveness_grace is None:
            return
        now = time.monotonic()
        for worker in list(workers.values()):
            if not worker.busy or not worker.process.is_alive():
                continue
            grace = _liveness_grace(self.liveness_grace, worker)
            stale = now - worker.last_seen()
            if stale <= grace:
                continue
            spec, attempt = worker.current()
            detail = f"no heartbeat for {stale:.1f}s (grace {grace:.1f}s)"
            hub.emit(
                ev.WORKER_UNRESPONSIVE, job_id=spec.job_id, label=spec.label,
                worker=worker.worker_id, attempt=attempt, detail=detail,
            )
            self._kill(workers, worker)
            if store is not None:
                store.record_attempt(
                    spec.job_id, attempt, "unresponsive", detail
                )
            self._requeue_tail(worker, pending)
            self._handle_death(
                spec, attempt, detail, pending, outcome, store, hub
            )

    def _check_crashes(self, workers, pending, outcome, store, hub) -> None:
        for worker in list(workers.values()):
            if worker.process.is_alive():
                continue
            # Harvest results the worker flushed before dying — they
            # are complete frames in its private pipe, and re-running
            # their jobs would only redo identical work.
            self._pump(worker)
            for message in worker.take_messages():
                self._dispatch(message, workers, pending, outcome, store, hub)
            self._kill(workers, worker)
            if worker.busy:
                spec, attempt = worker.current()
                detail = (
                    f"worker crashed (exit code {worker.process.exitcode}) "
                    f"mid-batch on member {worker.acked + 1}/"
                    f"{len(worker.batch)}"
                )
                hub.emit(
                    ev.WORKER_CRASHED, job_id=spec.job_id, label=spec.label,
                    worker=worker.worker_id, attempt=attempt, detail=detail,
                )
                if store is not None:
                    store.record_attempt(spec.job_id, attempt, "crash", detail)
                self._requeue_tail(worker, pending)
                self._handle_death(
                    spec, attempt, detail, pending, outcome, store, hub
                )
