"""Parallel, fault-tolerant job execution.

:class:`WorkerPool` runs :class:`~repro.runner.jobs.JobSpec` lists on
a pool of ``multiprocessing`` workers, in one of two configurations:

* **spawn** (the default) — workers start through the stdlib
  ``forkserver`` method (every POSIX platform offers it, and the
  package imports only there — :mod:`resource` is Unix-only): one
  single-threaded server process, booted lazily by the first pool,
  imports :data:`~repro.runner.jobs.WORKER_PRELOAD` once, and every
  later worker of every campaign is a fork of that server rather than
  a fresh interpreter boot.  A worker therefore starts in the server's
  post-preload state and inherits no parent state: a module global the
  parent changed is unchanged in the worker, as under ``spawn``, and
  the multi-threaded service can start workers safely, unlike with
  ``fork``.  Each worker still gets the parent's current ``sys.path``
  and working directory through the preparation data, but the
  *environment* is the one the server had when it started — nothing in
  the package or its tests reads environment variables or changes
  directory, so the frozen ``os.environ`` is never observable.  Workers
  take one job per dispatch and boot a fresh testbed for each.
* **fork-server** (``fork_server=True``, see
  :mod:`repro.runner.forkserver`) — workers fork from this process once
  it has imported the same preload list, take jobs in batches and
  serve matrix cells and classic fuzz trials from a verified snapshot
  cache.

Either way a worker gets the run's plan once, at start, and the
parent sends it only ``(plan index, attempt)`` pairs.

The parent owns all scheduling state and the result store, which buys
properties the serial campaign loop cannot offer:

* **timeout enforcement** — a job exceeding its wall-clock budget gets
  its worker killed and replaced, and only that job is charged;
* **crash isolation** — a worker dying mid-job (a simulated hypervisor
  panic taking the process down, an ``os._exit``) fails that job only;
* **liveness detection** — each worker carries a heartbeat; a wedged
  process (stopped, deadlocked) is detected even though ``is_alive()``
  still says yes;
* **bounded retry** — timeouts, crashes and
  :class:`~repro.runner.jobs.TransientJobError` failures are retried
  with capped, deterministically jittered exponential backoff;
* **poison quarantine** — a job that keeps killing its workers is
  quarantined instead of taking the pool down attempt after attempt;
* **circuit breaking** — too many *consecutive* worker deaths (an
  environment-level problem, not a bad job) halts the campaign, or
  degrades a fork-server run to the spawn configuration;
* **recycling** — a worker is replaced after ``recycle_after`` jobs or
  unbounded RSS growth;
* **graceful interruption** — SIGINT/SIGTERM stop dispatch, flush the
  store, and leave it resumable instead of dying mid-write.

:class:`SerialRunner` is the in-process twin (minus timeout
enforcement); ``--jobs 1`` uses it, with a snapshot cache of its own
per run.  Both runners share one ``run()``
and keep one set of books: a per-run ``_Ledger`` is the only code that
writes a job's store transitions and emits its events, so serial and
parallel campaigns record the same rows and events and share one
persistence/resume story.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import multiprocessing
import multiprocessing.connection
import multiprocessing.forkserver
import os
import pickle
import signal
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.resilience.quarantine import CircuitBreaker, PoisonTracker
from repro.runner import events as ev
from repro.runner.backoff import seeded_backoff
from repro.runner.events import EventCallback, EventHub
from repro.runner.jobs import (
    WORKER_PRELOAD,
    JobSpec,
    TransientJobError,
    execute_job,
)
from repro.runner.store import ResultStore

__all__ = [
    "CampaignFailed",
    "CampaignInterrupted",
    "Runner",
    "RunnerOutcome",
    "SerialRunner",
    "WorkerPool",
    "engine_for",
    "make_runner",
    "seeded_backoff",  # re-exported from repro.runner.backoff
]


class CampaignFailed(RuntimeError):
    """Raised by strict entry points when jobs exhausted their retries."""

    def __init__(self, failures: Dict[str, str]):
        self.failures = failures
        summary = "; ".join(
            f"{job_id}: {detail}" for job_id, detail in sorted(failures.items())
        )
        super().__init__(f"{len(failures)} job(s) failed: {summary}")


class CampaignInterrupted(RuntimeError):
    """The campaign was stopped by a signal; the store is resumable."""

    def __init__(self, signame: str = ""):
        self.signame = signame
        label = signame or "signal"
        super().__init__(
            f"campaign interrupted by {label}; completed work is in the "
            "store — re-run with --resume to finish the remaining jobs"
        )


@dataclass
class RunnerOutcome:
    """What a campaign execution produced."""

    #: job_id -> result payload, for every completed job.
    results: Dict[str, dict] = field(default_factory=dict)
    #: job_id -> failure detail, for jobs that exhausted retries.
    failures: Dict[str, str] = field(default_factory=dict)
    #: Jobs skipped because the store already had their results.
    skipped: Set[str] = field(default_factory=set)
    #: True when a SIGINT/SIGTERM stopped the campaign early; the
    #: store was flushed and the remaining jobs are resumable.
    interrupted: bool = False
    #: Name of the signal that interrupted the campaign ("" if none).
    interrupt_signal: str = ""

    def payloads_for(self, specs: Sequence[JobSpec]) -> List[dict]:
        """Results in plan order; raises if any job failed or is missing."""
        if self.interrupted:
            raise CampaignInterrupted(self.interrupt_signal)
        if self.failures:
            raise CampaignFailed(self.failures)
        return [self.results[spec.job_id] for spec in specs]


JobFn = Callable[[JobSpec, int], dict]


class _SignalGuard:
    """Convert SIGINT/SIGTERM into a flag the run loop polls.

    Installed only for the duration of a campaign (and only when we
    are the main thread — elsewhere the runner executes unguarded, as
    before).  The handler does nothing but record the signal, so no
    store write or queue operation is ever torn by an interrupt; the
    run loop notices the flag at the next scheduling round and shuts
    down cleanly.
    """

    def __init__(self, signals=(signal.SIGINT, signal.SIGTERM)):
        self.signals = signals
        self.fired: Optional[int] = None
        self._previous: Dict[int, Any] = {}

    def __enter__(self) -> "_SignalGuard":
        try:
            for sig in self.signals:
                self._previous[sig] = signal.signal(sig, self._handle)
        except ValueError:  # not the main thread: run unguarded
            self._restore()
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._previous:
            sig, handler = self._previous.popitem()
            signal.signal(sig, handler)

    def _handle(self, signum, frame) -> None:
        del frame
        self.fired = signum

    @property
    def tripped(self) -> bool:
        return self.fired is not None

    def describe(self) -> str:
        if self.fired is None:
            return ""
        return signal.Signals(self.fired).name


# ----------------------------------------------------------------------
# The books and the run skeleton both runners share
# ----------------------------------------------------------------------

#: Least time between two of a run's timed commits (seconds).  A
#: crash loses at most the jobs that finished within this long of the
#: last commit, plus the jobs in flight; ``--resume`` re-runs them to
#: identical results.
_COMMIT_INTERVAL = 0.05


class _Ledger:
    """One run's books: the only code that writes job transitions.

    Every store transition and every job event of a run goes through
    these methods, so the serial runner and both pool configurations
    record the same rows and emit the same events for the same job
    history.  Built per run: registering the plan and loading results
    a previous run finished (each announced as ``job-skipped``, in plan
    order) happen here, and :meth:`close` ends the run.

    Transitions join the store's open transaction.  :meth:`flush`, the
    runners' per-job and per-round commit point, commits only once
    ``_COMMIT_INTERVAL`` has passed since the last commit;
    :meth:`commit` commits at once, for the points that must not wait.
    """

    def __init__(
        self,
        specs: Sequence[JobSpec],
        store: Optional[ResultStore],
        on_event: Optional[EventCallback],
        retries: int,
        backoff: float,
        max_backoff: float,
    ):
        self.specs = list(specs)
        self.store = store
        self.outcome = RunnerOutcome()
        self.hub = EventHub(total=len(self.specs), callback=on_event)
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        #: The plan indices of the jobs this run still has to execute,
        #: in plan order.
        self.remaining = list(range(len(self.specs)))
        if store is None:
            return
        store.register(self.specs)
        self._committed = time.monotonic()
        done = store.completed_ids()
        self.remaining = []
        for index, spec in enumerate(self.specs):
            payload = store.payload(spec.job_id) if spec.job_id in done else None
            if payload is None:
                self.remaining.append(index)
                continue
            self.outcome.results[spec.job_id] = payload
            self.outcome.skipped.add(spec.job_id)
            self.hub.emit(ev.JOB_SKIPPED, job_id=spec.job_id)

    def _emit(self, kind: str, spec: JobSpec, attempt: int, **fields) -> None:
        if self.hub.callback is None:
            self.hub.emit(kind)  # counted; with no listener nothing is built
            return
        self.hub.emit(
            kind, job_id=spec.job_id, label=spec.label, attempt=attempt,
            **fields,
        )

    def flush(self) -> None:
        """Commit, if ``_COMMIT_INTERVAL`` has passed since the last commit."""
        if (
            self.store is not None
            and time.monotonic() - self._committed >= _COMMIT_INTERVAL
        ):
            self.commit()

    def commit(self) -> None:
        """Commit every transition recorded so far."""
        if self.store is not None:
            self.store.flush()
            self._committed = time.monotonic()

    def started(self, spec: JobSpec, attempt: int, worker: int = -1) -> None:
        if self.store is not None and attempt == 0:
            self.store.mark_running(spec.job_id)
        self._emit(ev.JOB_STARTED, spec, attempt, worker=worker)

    def finished(
        self, spec: JobSpec, attempt: int, payload: dict, wall: float,
        worker: int = -1,
    ) -> None:
        self.outcome.results[spec.job_id] = payload
        if self.store is not None:
            self.store.record_attempt(spec.job_id, attempt, "done", "", wall)
            self.store.record_success(spec.job_id, payload, wall)
        self._emit(ev.JOB_FINISHED, spec, attempt, worker=worker)

    def attempt_lost(
        self, spec: JobSpec, attempt: int, status: str, detail: str,
        wall: Optional[float] = None, event: str = "", worker: int = -1,
    ) -> None:
        """Log an attempt that produced no result.

        ``status`` is the attempt row's: ``error``, ``quarantined``, or
        the worker death (``timeout``, ``unresponsive``, ``crash``)
        that ``event`` announces.
        """
        if event:
            self._emit(event, spec, attempt, worker=worker, detail=detail)
        if self.store is not None:
            self.store.record_attempt(
                spec.job_id, attempt, status, detail, wall
            )

    def retry_or_fail(
        self, spec: JobSpec, attempt: int, detail: str, retryable: bool
    ) -> Optional[float]:
        """The backoff before the next attempt, or None once failed."""
        if retryable and attempt < self.retries:
            delay = seeded_backoff(
                self.backoff, attempt + 1, spec.job_id, self.max_backoff
            )
            self._emit(
                ev.JOB_RETRIED, spec, attempt + 1, detail=detail, delay=delay
            )
            return delay
        self.fail(spec, attempt, detail)
        return None

    def fail(
        self, spec: JobSpec, attempt: int, detail: str,
        kind: str = ev.JOB_FAILED,
    ) -> None:
        """Fail a job for good (``kind`` JOB_QUARANTINED quarantines it)."""
        if spec.job_id in self.outcome.failures:
            return
        self.outcome.failures[spec.job_id] = detail
        if self.store is not None:
            self.store.record_failure(spec.job_id)
        self._emit(kind, spec, attempt, detail=detail)

    def close(self, interrupt: str) -> RunnerOutcome:
        """End the run; ``interrupt`` names the signal that stopped it."""
        if interrupt:
            self.outcome.interrupted = True
            self.outcome.interrupt_signal = interrupt
            self.hub.emit(ev.CAMPAIGN_INTERRUPTED, detail=interrupt)
        self.commit()
        self.hub.emit(ev.CAMPAIGN_FINISHED)
        return self.outcome


class _Runner:
    """The ``run()`` both runners share; each supplies ``_execute``."""

    def __init__(
        self,
        retries: int,
        backoff: float,
        max_backoff: float,
        job_fn: Optional[JobFn],
        on_event: Optional[EventCallback],
    ):
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.job_fn = job_fn
        self.on_event = on_event
        self._stop_requested = False
        #: The last run's infrastructure counters (restores,
        #: divergences, cold boots, recycles, degradations).  They
        #: describe execution machinery and never reach persisted
        #: trial results.
        self.stats: Dict[str, int] = {}

    def request_stop(self) -> None:
        """Cooperative interruption from another thread.

        Signal handlers only reach the main thread; a runner executing
        inside a worker thread (the campaign service) is stopped with
        this instead.  Semantics match a SIGTERM: no new job starts
        (the serial runner finishes its current one; the pool abandons
        in-flight jobs un-acked, so ``--resume`` re-runs them exactly),
        the store is flushed, and the outcome is marked
        interrupted/resumable.
        """
        self._stop_requested = True

    def run(
        self, specs: Sequence[JobSpec], store: Optional[ResultStore] = None
    ) -> RunnerOutcome:
        books = _Ledger(
            specs, store, self.on_event, self.retries, self.backoff,
            self.max_backoff,
        )
        # The guard goes up before the first worker exists, so an
        # interrupt during spawn is already a graceful shutdown.
        with _SignalGuard() as guard:

            def stopped() -> bool:
                return guard.tripped or self._stop_requested

            try:
                self._execute(books, stopped)
            finally:
                # Even an exception escaping _execute leaves every job
                # it finished durable.
                books.commit()
            interrupt = (guard.describe() or "stop-requested") if stopped() else ""
        return books.close(interrupt)

    def _execute(self, books: _Ledger, stopped: Callable[[], bool]) -> None:
        raise NotImplementedError

    def _count(self, key: str, n: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + n

    def _account(
        self, books: _Ledger, job_id: str, worker: int,
        infra: List[dict], counters: Dict[str, int],
    ) -> None:
        """Apply what one job did to the snapshot cache that served it:
        announce each diverged restore and add the cache's counters to
        ``stats``."""
        for record in infra:
            if record.get("kind") == "restore-diverged":
                books.hub.emit(
                    ev.RESTORE_DIVERGED,
                    job_id=job_id,
                    worker=worker,
                    detail=(
                        f"xen-{record.get('version', '?')}: restored digest "
                        f"{record.get('actual', '')[:12]} != checkpoint "
                        f"{record.get('expected', '')[:12]}"
                    ),
                )
        for key in sorted(counters):
            self._count(key, counters[key])


# ----------------------------------------------------------------------
# Serial execution (the --jobs 1 path)
# ----------------------------------------------------------------------


class SerialRunner(_Runner):
    """In-process executor with the pool's store/retry/event semantics.

    With ``job_fn=None`` (the default) each job runs
    :func:`~repro.runner.jobs.execute_job` on a bed leased from a
    :class:`~repro.runner.forkserver.SnapshotCache` that belongs to
    this ``run()`` call: the first job of each (version, topology)
    boots and captures a bed, and every later one restores it, verified,
    exactly as a fork-server worker does.  The cache is built when the
    run starts and dropped when it ends, never shared: the campaign
    service runs several serial campaigns at once on its threads, and
    one bed must never serve two of them.  ``stats`` counts the run's
    captures, restores, divergences and cold boots, and a diverged
    restore emits ``restore-diverged`` as in the pool.  An explicit
    ``job_fn`` (``execute_job`` for a cold boot per job, or an entry
    point's own closure) runs as given, with no cache.
    """

    def __init__(
        self,
        retries: int = 1,
        backoff: float = 0.0,
        max_backoff: float = 5.0,
        job_fn: Optional[JobFn] = None,
        on_event: Optional[EventCallback] = None,
    ):
        super().__init__(retries, backoff, max_backoff, job_fn, on_event)

    def _execute(self, books: _Ledger, stopped: Callable[[], bool]) -> None:
        from repro.runner.forkserver import SnapshotCache

        self.stats = {}
        cache = None
        job_fn = self.job_fn
        if job_fn is None:
            cache = SnapshotCache()
            job_fn = functools.partial(execute_job, lease=cache.lease)
        for index in books.remaining:
            spec = books.specs[index]
            attempt = 0
            while not stopped():
                books.started(spec, attempt)
                started = time.perf_counter()
                error: Optional[Exception] = None
                try:
                    payload = job_fn(spec, attempt)
                except Exception as exc:
                    error = exc
                wall = time.perf_counter() - started
                if cache is not None:
                    self._account(books, spec.job_id, -1, *cache.drain())
                if error is None:
                    books.finished(spec, attempt, payload, wall)
                    break
                detail = f"{type(error).__name__}: {error}"
                books.attempt_lost(spec, attempt, "error", detail, wall)
                delay = books.retry_or_fail(
                    spec, attempt, detail, isinstance(error, TransientJobError)
                )
                if delay is None:
                    break
                attempt += 1
                if delay:
                    books.commit()
                    time.sleep(delay)
            books.flush()
            if stopped():
                break


# ----------------------------------------------------------------------
# Parallel execution
# ----------------------------------------------------------------------

#: Every spawned worker process, for the atexit orphan sweep.  The
#: pool reaps its own workers on every exit path; this is the backstop
#: that guarantees no child outlives the parent even if the pool's
#: teardown itself is interrupted.
_LIVE_WORKERS: "weakref.WeakSet" = weakref.WeakSet()

#: Liveness allowance for a worker that has not reported ready yet —
#: the forkserver's interpreter bootstrap on first use takes seconds
#: on a loaded machine, and killing a booting worker for "no
#: heartbeat" just reboots the same slow path.
_BOOT_GRACE = 30.0
#: How long teardown waits for workers to exit after their sentinel.
_SHUTDOWN_GRACE = 5.0

#: Jobs shipped to a fork-server worker per dispatch.
DEFAULT_BATCH = 8
#: Jobs a worker serves before it is recycled.
DEFAULT_RECYCLE_AFTER = 256
#: Peak-RSS growth over a worker's first batch (KiB) that triggers
#: recycling — a leaking worker is parked before it hurts the host.
_MAX_RSS_GROWTH_KB = 262144
#: Longest the scheduler blocks waiting for worker messages.
_POLL_INTERVAL = 0.05


def pool_context() -> multiprocessing.context.BaseContext:
    """The start context for spawn-configuration workers.

    ``forkserver``, preloading :data:`~repro.runner.jobs.WORKER_PRELOAD`.
    The server starts lazily with the first worker and serves every
    pool in the process.  Setting the preload once it runs has no
    effect, which is harmless: the list never changes.
    """
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(list(WORKER_PRELOAD))
    return context


def _reap_orphans() -> None:
    for process in list(_LIVE_WORKERS):
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
    # The forkserver reaps the workers; reaping the server in turn
    # folds their CPU time and peak RSS into this process's
    # RUSAGE_CHILDREN, as if they were direct children.  ``_stop`` is
    # the stdlib's own stop-and-reap (private, so absent from the type
    # stubs); a no-op when no pool ever started the server.
    multiprocessing.forkserver._forkserver._stop()  # type: ignore[attr-defined]


atexit.register(_reap_orphans)


class _ResultChannel:
    """Worker-side sender over the worker's *private* result pipe.

    Results deliberately do not travel through a shared
    ``multiprocessing.Queue``: its feeder thread serialises writers
    with a cross-process lock, and a worker killed while its feeder
    holds that lock (a chaos SIGKILL, a timeout ``terminate()``)
    wedges every *other* worker's results forever — the pool then
    spins on workers it believes busy while they sit idle.  With one
    pipe per worker there is no shared lock and no feeder thread: a
    kill can at worst tear this worker's own frame, which the parent
    discards together with the worker.
    """

    def __init__(self, conn):
        self._conn = conn

    def put(self, message) -> None:
        payload = pickle.dumps(message)
        frame = len(payload).to_bytes(4, "big") + payload
        fd = self._conn.fileno()
        view = memoryview(frame)
        while view:
            view = view[os.write(fd, view):]


@dataclass
class _Worker:
    """Parent-side handle for one worker process."""

    worker_id: int
    process: multiprocessing.process.BaseProcess
    inbox: Any  # Connection: parent sends a batch of (index, attempt) / None
    conn: Any = None  # Connection: parent end of the worker's result pipe
    heartbeat: Any = None  # multiprocessing.Value("d") the worker beats
    #: When the member now executing was handed over: the batch's
    #: dispatch, the worker's ready frame, or the previous member's ack.
    started_at: float = 0.0
    buffer: bytearray = field(default_factory=bytearray)
    eof: bool = False
    #: The worker finished interpreter bootstrap (sent its ready
    #: frame).  Job wall-clock budgets only run from that point — a
    #: loaded machine can take longer to boot the forkserver's
    #: interpreter on first use than a tight job budget allows.
    ready: bool = False
    #: The in-flight batch, as (plan index, attempt) pairs; results
    #: stream back in batch order, so ``batch[acked]`` is always the
    #: member currently executing.
    batch: List[Tuple[int, int]] = field(default_factory=list)
    acked: int = 0
    #: Jobs served over this worker's whole lifetime.
    served: int = 0
    #: Peak RSS (KiB) reported with the last result of the worker's
    #: first batch — the baseline RSS-growth recycling measures against.
    baseline_rss: int = 0

    @property
    def busy(self) -> bool:
        return self.acked < len(self.batch)

    def current(self) -> Tuple[int, int]:
        return self.batch[self.acked]

    def last_seen(self) -> float:
        """Most recent proof of life, on the parent's monotonic clock."""
        beat = self.heartbeat.value if self.heartbeat is not None else 0.0
        return max(beat, self.started_at)

    def take_messages(self) -> List[tuple]:
        """Complete frames parsed out of the receive buffer.

        A trailing partial frame (the worker was killed mid-write)
        simply stays in the buffer; it is discarded with the worker.
        """
        messages = []
        while len(self.buffer) >= 4:
            size = int.from_bytes(self.buffer[:4], "big")
            if len(self.buffer) - 4 < size:
                break
            payload = bytes(self.buffer[4:4 + size])
            del self.buffer[:4 + size]
            messages.append(pickle.loads(payload))
        return messages


class WorkerPool(_Runner):
    """Multiprocessing campaign executor with fault isolation.

    One pool, two configurations, selected by ``fork_server``:

    * **spawn** (the default): workers fork from the preloaded stdlib
      ``forkserver`` (:func:`pool_context`), take one job per dispatch
      and run :func:`~repro.runner.jobs.execute_job` on a fresh testbed;
    * **fork-server**: workers fork from this process (the ``fork``
      context) after it imported
      :data:`~repro.runner.jobs.WORKER_PRELOAD`, take ``batch`` jobs
      per dispatch and run
      :func:`~repro.runner.forkserver.execute_job_cached`, which serves
      matrix cells and classic fuzz trials from a verified
      snapshot cache.

    Both run the same loop: the same worker main, worker-death sweep
    and recycling.  When the circuit breaker opens in the
    fork-server configuration the pool *degrades* — same pool, cache
    off: the run switches to the spawn configuration and continues over
    the leftover jobs in plan order, with a fresh breaker and poison
    tracker.  A circuit that opens in the spawn configuration fails
    everything left.  An explicit ``job_fn`` is used in both
    configurations.
    """

    def __init__(
        self,
        jobs: int = 2,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.05,
        max_backoff: float = 5.0,
        job_fn: Optional[JobFn] = None,
        on_event: Optional[EventCallback] = None,
        poison_threshold: int = 3,
        circuit_threshold: int = 8,
        liveness_grace: Optional[float] = 30.0,
        beat_interval: float = 0.2,
        fork_server: bool = False,
        batch: int = DEFAULT_BATCH,
        recycle_after: int = DEFAULT_RECYCLE_AFTER,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if recycle_after < 1:
            raise ValueError("recycle_after must be >= 1")
        # None disables either budget; a non-positive one would fail
        # every job it watches.
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if liveness_grace is not None and liveness_grace <= 0:
            raise ValueError(f"liveness_grace must be > 0, got {liveness_grace}")
        super().__init__(retries, backoff, max_backoff, job_fn, on_event)
        self.jobs = jobs
        self.timeout = timeout
        self.poison_threshold = poison_threshold
        self.circuit_threshold = circuit_threshold
        self.liveness_grace = liveness_grace
        self.beat_interval = beat_interval
        self.fork_server = fork_server
        self.batch = batch
        self.recycle_after = recycle_after
        self._configure(fork_server)
        self._poison = PoisonTracker(poison_threshold)
        self._circuit = CircuitBreaker(circuit_threshold)
        self._halted = ""

    # -- hooks ----------------------------------------------------------

    def _wrap_outbox(self, channel):
        """Per-worker result-channel hook — the chaos harness wraps it."""
        return channel

    def _worker_faults(self) -> Optional[Any]:
        """Worker-side fault injector — the chaos harness hook.

        Must return a picklable object (or None) with two methods the
        worker calls: ``before_job(job_id, attempt)`` before every job,
        where the chaos harness kills and hangs workers, and
        ``before_restore(entry, job_id, attempt)`` before every cached
        restore, where it corrupts snapshot bytes and wedges restores.
        """
        return None

    # -- run ------------------------------------------------------------

    def _execute(self, books: _Ledger, stopped: Callable[[], bool]) -> None:
        self.stats = {}
        # Workers get the plan itself and are sent only (plan index,
        # attempt) pairs.  Reading every job ID here, before the first
        # fork, caches it on the specs each worker inherits or unpickles.
        for spec in books.specs:
            spec.job_id
        remaining = [(index, 0) for index in books.remaining]
        fork_server = self.fork_server
        while remaining:
            leftovers = self._run_pass(remaining, fork_server, books, stopped)
            if stopped() or not self._halted:
                return
            if not fork_server:
                for index, attempt in leftovers:
                    books.fail(books.specs[index], attempt, self._halted)
                return
            # The degraded pass resumes each job at its next attempt,
            # in plan order.
            remaining = sorted(leftovers)
            books.hub.emit(
                ev.POOL_DEGRADED,
                detail=(
                    f"{self._halted}; degrading {len(remaining)} job(s) "
                    "to the spawn-per-job pool"
                ),
            )
            self._count("forkserver.degraded")
            fork_server = False

    # -- configuration and accounting ----------------------------------

    def _configure(self, fork_server: bool) -> None:
        """Select the start context, batch size and job function.

        The fork-server configuration imports
        :data:`~repro.runner.jobs.WORKER_PRELOAD` here, before the
        first fork, so its workers start as warm as the spawn
        configuration's forkserver children.
        """
        from repro.runner.forkserver import (
            execute_job_cached,
            preferred_context,
        )

        if fork_server:
            for module in WORKER_PRELOAD:
                importlib.import_module(module)
            self._ctx = multiprocessing.get_context(preferred_context())
            self._batch = self.batch
            self._job_fn = self.job_fn or execute_job_cached
        else:
            self._ctx = pool_context()
            self._batch = 1
            self._job_fn = self.job_fn or execute_job

    # -- scheduling internals ------------------------------------------

    def _run_pass(
        self, jobs, fork_server, books, stopped
    ) -> List[Tuple[int, int]]:
        """Run ``jobs`` — (plan index, attempt) pairs — in one
        configuration until done or stopped.

        Returns the jobs the pass left unfinished — still queued, or
        un-acked members of an in-flight batch.  They were never
        recorded as done, so the store still counts them as pending
        work and ``--resume`` picks them up exactly.
        """
        self._configure(fork_server)
        self._poison = PoisonTracker(self.poison_threshold)
        self._circuit = CircuitBreaker(self.circuit_threshold)
        self._halted = ""

        #: (ready_time, plan index, attempt) — backoff delays re-dispatch.
        pending: List[tuple] = [(0.0, index, attempt) for index, attempt in jobs]
        workers: Dict[int, _Worker] = {}
        next_worker_id = 0
        try:
            for _ in range(min(self.jobs, len(pending))):
                workers[next_worker_id] = self._spawn(next_worker_id, books.specs)
                next_worker_id += 1
            while pending or any(w.busy for w in workers.values()):
                if stopped() or self._halted:
                    break
                self._assign(pending, workers, books)
                self._drain(workers, pending, books)
                self._check_workers(workers, pending, books)
                next_worker_id = self._replenish(
                    workers, pending, next_worker_id, books.specs
                )
            return [(index, attempt) for _ready, index, attempt in pending] + [
                member
                for worker in workers.values()
                for member in worker.batch[worker.acked:]
            ]
        finally:
            self._shutdown(workers)

    def _spawn(self, worker_id: int, plan: List[JobSpec]) -> _Worker:
        from repro.runner.forkserver import _forkserver_worker_main

        # One private pipe pair per worker.  Results never share a
        # transport: see _ResultChannel for why a shared queue is a
        # liveness hazard under kills.
        inbox_r, inbox_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        heartbeat = self._ctx.Value("d", time.monotonic())
        process = self._ctx.Process(
            target=_forkserver_worker_main,
            args=(
                worker_id, self._job_fn, plan, inbox_r,
                self._wrap_outbox(_ResultChannel(result_w)), heartbeat,
                self.beat_interval, self._worker_faults(),
            ),
            daemon=True,
            name=f"repro-runner-{worker_id}",
        )
        process.start()
        # Drop the child's ends so a dead worker reads as EOF here.
        inbox_r.close()
        result_w.close()
        os.set_blocking(result_r.fileno(), False)
        _LIVE_WORKERS.add(process)
        return _Worker(
            worker_id=worker_id, process=process, inbox=inbox_w,
            conn=result_r, heartbeat=heartbeat,
        )

    def _assign(self, pending, workers, books) -> None:
        now = time.monotonic()
        for worker in workers.values():
            if worker.busy or not pending:
                continue
            # The first ``batch`` ready entries, in queue order; the scan
            # stops there instead of walking the whole queue.
            taken = list(itertools.islice(
                (i for i, (ready, _, _) in enumerate(pending) if ready <= now),
                self._batch,
            ))
            if not taken:
                continue
            members = [pending[i] for i in taken]
            for i in reversed(taken):
                del pending[i]
            worker.batch = [
                (index, attempt) for _ready, index, attempt in members
            ]
            worker.acked = 0
            worker.started_at = now
            try:
                worker.inbox.send(worker.batch)
            except OSError:
                pass  # worker just died; _check_workers re-queues the batch
            for index, attempt in worker.batch:
                books.started(
                    books.specs[index], attempt, worker=worker.worker_id
                )

    def _drain(self, workers, pending, books) -> None:
        """Process every available worker message (block briefly once).

        Reads are non-blocking and frame-parsed in the parent: a
        worker killed mid-write leaves at worst a partial frame in its
        private buffer, never a blocked read or a poisoned lock.

        The books are flushed before blocking, which commits only once
        ``_COMMIT_INTERVAL`` has passed since the last commit: one
        fsync covers every round of that interval.  A transaction left
        open across the wait is committed by the first round after the
        interval ends, at most one ``_POLL_INTERVAL`` later.
        """
        books.flush()
        conns = {
            worker.conn: worker
            for worker in workers.values() if not worker.eof
        }
        if not conns:
            time.sleep(_POLL_INTERVAL)
            return
        ready = multiprocessing.connection.wait(
            list(conns), timeout=_POLL_INTERVAL
        )
        for conn in ready:
            self._harvest(conns[conn], workers, pending, books)

    def _harvest(self, worker, workers, pending, books) -> None:
        """Dispatch every complete frame the worker's pipe holds."""
        self._pump(worker)
        for message in worker.take_messages():
            self._dispatch(message, workers, pending, books)

    @staticmethod
    def _pump(worker: _Worker) -> None:
        """Move every byte the worker's pipe holds into its buffer."""
        fd = worker.conn.fileno()
        while True:
            try:
                chunk = os.read(fd, 1 << 16)
            except BlockingIOError:
                return
            except OSError:
                worker.eof = True
                return
            if not chunk:
                worker.eof = True
                return
            worker.buffer.extend(chunk)

    def _dispatch(self, message, workers, pending, books) -> None:
        worker_id, job_id, status, payload, retryable, wall, accounts = message
        worker = workers.get(worker_id)
        if worker is None:
            return  # a replaced or retired worker's late message
        if status == "ready":
            # Bootstrap finished: charge the in-flight job's wall-clock
            # budget from here, not from when the job was queued into a
            # still-booting interpreter.
            worker.ready = True
            if worker.busy:
                worker.started_at = time.monotonic()
            return
        if not worker.busy:
            return  # stale result (a chaos duplicate after batch end)
        index, attempt = worker.current()
        spec = books.specs[index]
        if spec.job_id != job_id:
            return  # stale or duplicated mid-batch message
        # Only the acked copy of a frame gets here, so a duplicate's
        # accounts are dropped together with its result.
        worker.acked += 1
        worker.served += 1
        worker.started_at = time.monotonic()  # the next member's clock
        self._circuit.record_success()  # the worker survived its job
        infra, counters, rss = accounts
        self._account(books, job_id, worker_id, infra, counters)
        if status == "done":
            books.finished(spec, attempt, payload, wall, worker=worker_id)
        else:
            detail = str(payload)
            books.attempt_lost(spec, attempt, "error", detail, wall)
            self._requeue(books, pending, index, attempt, detail, retryable)
        if not worker.busy:
            worker.batch = []
            worker.acked = 0
            self._recycle_if_due(worker, rss, workers, books)

    def _recycle_if_due(self, worker, rss, workers, books) -> None:
        """Retire a worker whose batch just ended, if it is due.

        Called when the batch's last member is acked, before the next
        ``_assign``, so a worker serves at most ``recycle_after +
        batch - 1`` jobs and every job it served is already counted.
        """
        if worker.baseline_rss == 0:
            worker.baseline_rss = rss
        grown = rss - worker.baseline_rss
        if worker.served >= self.recycle_after:
            reason = (
                f"served {worker.served} jobs "
                f"(recycle_after {self.recycle_after})"
            )
        elif grown > _MAX_RSS_GROWTH_KB:
            reason = (
                f"rss grew {grown} KiB over baseline "
                f"(limit {_MAX_RSS_GROWTH_KB})"
            )
        else:
            return
        books.hub.emit(
            ev.WORKER_RECYCLED, worker=worker.worker_id, detail=reason
        )
        self._count("forkserver.workers.recycled")
        workers.pop(worker.worker_id, None)
        try:
            worker.inbox.send(None)
        except OSError:
            pass
        worker.process.join(timeout=2.0)
        self._kill(workers, worker)  # force + close pipes if still alive

    def _check_workers(self, workers, pending, books) -> None:
        """One sweep: bury each busy worker that timed out, went silent
        or died, and replace each idle one that died.

        A worker is judged on the first of, in order: its current
        member overran the wall-clock ``timeout`` (counted only once
        the worker is ready — boot time is not the job's); its
        heartbeat went stale for longer than ``liveness_grace``, which
        catches a SIGSTOPped or deadlocked process ``is_alive()``
        still vouches for (a still-booting interpreter has not started
        its beat thread, so it gets the boot allowance instead); its
        process exited.  A dead worker's complete result frames are
        harvested before it is buried: re-running jobs it finished
        would only redo identical work.
        """
        now = time.monotonic()
        for worker in list(workers.values()):
            alive = worker.process.is_alive()
            grace = self.liveness_grace
            if grace is not None and not worker.ready:
                grace = max(grace, _BOOT_GRACE)
            stale = now - worker.last_seen()
            if (
                worker.busy and worker.ready and self.timeout is not None
                and now - worker.started_at > self.timeout
            ):
                event, status, wall = ev.JOB_TIMEOUT, "timeout", self.timeout
                detail = f"exceeded {self.timeout:.1f}s wall-clock budget"
            elif worker.busy and alive and grace is not None and stale > grace:
                event, status, wall = ev.WORKER_UNRESPONSIVE, "unresponsive", None
                detail = f"no heartbeat for {stale:.1f}s (grace {grace:.1f}s)"
            elif not alive:
                self._harvest(worker, workers, pending, books)
                event, status, wall = ev.WORKER_CRASHED, "crash", None
                detail = f"worker crashed (exit code {worker.process.exitcode})"
            else:
                continue
            self._kill(workers, worker)
            if worker.busy:
                self._bury(worker, event, status, detail, wall, pending, books)

    def _bury(self, worker, event, status, detail, wall, pending, books) -> None:
        """A worker died under its current member: quarantine, retry, or fail.

        Members *after* the one executing are requeued at their
        existing attempt count — the worker never started them, so its
        death is not their failure.  Two guards then fire before the
        ordinary retry path: the poison tracker quarantines a *job*
        that keeps killing workers, and the circuit breaker halts the
        *campaign* when workers die consecutively regardless of job —
        the first is a bad input, the second a bad environment.
        """
        index, attempt = worker.current()
        spec = books.specs[index]
        books.attempt_lost(
            spec, attempt, status, detail, wall, event=event,
            worker=worker.worker_id,
        )
        for member in worker.batch[worker.acked + 1:]:
            pending.append((0.0, *member))
        verdict = self._poison.record_death(spec.job_id)
        if verdict is not None:
            books.attempt_lost(spec, attempt, "quarantined", verdict.render())
            books.fail(spec, attempt, verdict.render(), ev.JOB_QUARANTINED)
        else:
            self._requeue(books, pending, index, attempt, detail, True)
        if self._circuit.record_death():
            self._halted = self._circuit.render()
            books.hub.emit(ev.CIRCUIT_OPEN, detail=self._halted)

    @staticmethod
    def _requeue(books, pending, index, attempt, detail, retryable) -> None:
        """Queue the next attempt after its backoff, unless the job failed."""
        delay = books.retry_or_fail(
            books.specs[index], attempt, detail, retryable
        )
        if delay is not None:
            pending.append((time.monotonic() + delay, index, attempt + 1))

    def _replenish(self, workers, pending, next_worker_id, plan) -> int:
        """Keep the pool sized to the remaining work after kills."""
        busy = sum(1 for w in workers.values() if w.busy)
        target = min(self.jobs, busy + len(pending))
        while len(workers) < target:
            workers[next_worker_id] = self._spawn(next_worker_id, plan)
            next_worker_id += 1
        return next_worker_id

    # -- teardown -------------------------------------------------------

    def _kill(self, workers: Dict[int, _Worker], worker: _Worker) -> None:
        workers.pop(worker.worker_id, None)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
        for conn in (worker.inbox, worker.conn):
            try:
                conn.close()
            except OSError:
                pass

    def _shutdown(self, workers: Dict[int, _Worker]) -> None:
        for worker in list(workers.values()):
            try:
                worker.inbox.send(None)
            except Exception:
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for worker in list(workers.values()):
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in list(workers.values()):
            self._kill(workers, worker)


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------

#: What :func:`make_runner` returns.
Runner = Union[SerialRunner, WorkerPool]


def make_runner(
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    job_fn: Optional[JobFn] = None,
    on_event: Optional[EventCallback] = None,
    max_backoff: float = 5.0,
    poison_threshold: int = 3,
    circuit_threshold: int = 8,
    liveness_grace: Optional[float] = 30.0,
    fork_server: bool = False,
    batch: int = DEFAULT_BATCH,
    recycle_after: int = DEFAULT_RECYCLE_AFTER,
) -> Runner:
    """A SerialRunner for ``jobs=1``, a WorkerPool otherwise.

    ``fork_server=True`` selects the pool's fork-server configuration at
    any job count.  ``job_fn=None`` runs each engine's own executor:
    :func:`~repro.runner.jobs.execute_job` on the run's own snapshot
    cache for the serial runner, on a fresh boot per job for the spawn
    pool, and on each worker's cache for the fork-server pool.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1 and not fork_server:
        return SerialRunner(
            retries=retries, max_backoff=max_backoff,
            job_fn=job_fn, on_event=on_event,
        )
    return WorkerPool(
        jobs=jobs, timeout=timeout, retries=retries,
        max_backoff=max_backoff, job_fn=job_fn, on_event=on_event,
        poison_threshold=poison_threshold,
        circuit_threshold=circuit_threshold, liveness_grace=liveness_grace,
        fork_server=fork_server, batch=batch, recycle_after=recycle_after,
    )


def engine_for(
    runner: Optional[Runner],
    store: Optional[ResultStore],
    uncarried: Sequence[str],
    job_fn: JobFn,
) -> Runner:
    """The engine an entry point runs its planned specs on.

    ``Campaign.run_matrix``, ``FuzzCampaign.run`` and
    ``SecurityBenchmark.score_many`` plan their specs once and run them
    on what this returns.  ``uncarried`` names each setting of the entry
    point a :class:`~repro.runner.jobs.JobSpec` cannot carry.  With none,
    the specs run on ``runner`` or on a plain :class:`SerialRunner`,
    whose :func:`~repro.runner.jobs.execute_job` leases each bed from
    the run's snapshot cache: the engine the parity oracle checks as
    ``serial``.  Otherwise ``job_fn``, a closure over the entry
    point's own single-cell primitive, runs them on a SerialRunner, and
    an explicit runner or store is refused: a worker would resolve each
    spec to the default configuration, and a store would file its result
    under the default experiment's job ID.
    """
    if not uncarried:
        return runner if runner is not None else SerialRunner()
    if runner is not None or store is not None:
        raise ValueError(
            f"{', '.join(uncarried)} cannot cross process boundaries; use "
            "the serial path (no runner, no store)"
        )
    return SerialRunner(job_fn=job_fn)
