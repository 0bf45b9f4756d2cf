"""Parallel, fault-tolerant job execution.

:class:`WorkerPool` runs :class:`~repro.runner.jobs.JobSpec` lists on
a pool of ``multiprocessing`` workers.  Workers start through the
stdlib ``forkserver`` method (every POSIX platform offers it, and the
package imports only there — :mod:`resource` is Unix-only): one
single-threaded server process, booted lazily by the first pool,
imports :data:`~repro.runner.jobs.WORKER_PRELOAD` once, and every
later worker of every campaign is a fork of that server rather than a
fresh interpreter boot.  A worker therefore starts in the server's
post-preload state and inherits no parent state: a module global the
parent changed is unchanged in the worker, as under ``spawn``, and
the multi-threaded service can start workers safely, unlike with
``fork``.  Each worker still gets the parent's current ``sys.path``
and working directory through the preparation data, but the
*environment* is the one the server had when it started — nothing in
the package or its tests reads environment variables or changes
directory, so the frozen ``os.environ`` is never observable.  Workers
boot their own testbeds.  The parent owns all scheduling state and
the result store; workers only ever see one job at a time, which buys
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
  environment-level problem, not a bad job) halts the campaign;
* **graceful interruption** — SIGINT/SIGTERM stop dispatch, flush the
  store, and leave it resumable instead of dying mid-write.

:class:`SerialRunner` is the in-process twin with identical store and
event semantics (minus timeout enforcement); ``--jobs 1`` uses it, so
serial and parallel campaigns share one persistence/resume story.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.connection
import multiprocessing.forkserver
import os
import pickle
import signal
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

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
    "RunnerOutcome",
    "SerialRunner",
    "WorkerPool",
    "make_runner",
    "run_jobs",
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


def _resume_into(
    outcome: RunnerOutcome, specs: List[JobSpec], store: Optional[ResultStore]
) -> List[JobSpec]:
    """Register jobs and load already-completed results; return the rest."""
    if store is None:
        return specs
    store.register(specs)
    done = store.completed_ids()
    remaining = []
    for spec in specs:
        if spec.job_id in done:
            payload = store.payload(spec.job_id)
            if payload is not None:
                outcome.results[spec.job_id] = payload
                outcome.skipped.add(spec.job_id)
                continue
        remaining.append(spec)
    return remaining


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
# Serial execution (the --jobs 1 path)
# ----------------------------------------------------------------------


class SerialRunner:
    """In-process executor with the pool's store/retry/event semantics."""

    def __init__(
        self,
        retries: int = 1,
        backoff: float = 0.0,
        max_backoff: float = 5.0,
        job_fn: JobFn = execute_job,
        on_event: Optional[EventCallback] = None,
    ):
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.job_fn = job_fn
        self.on_event = on_event
        self._stop_requested = False

    def request_stop(self) -> None:
        """Cooperative interruption from another thread.

        Signal handlers only reach the main thread; a runner executing
        inside a worker thread (the campaign service) is stopped with
        this instead.  Semantics match a SIGTERM: the current job
        finishes, the store is flushed, and the outcome is marked
        interrupted/resumable.
        """
        self._stop_requested = True

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

        with _SignalGuard() as guard:
            for spec in remaining:
                if guard.tripped or self._stop_requested:
                    break
                if store is not None:
                    store.mark_running(spec.job_id)
                attempt = 0
                while not (guard.tripped or self._stop_requested):
                    hub.emit(
                        ev.JOB_STARTED, job_id=spec.job_id, label=spec.label,
                        attempt=attempt,
                    )
                    started = time.perf_counter()
                    try:
                        payload = self.job_fn(spec, attempt)
                    except Exception as exc:
                        wall = time.perf_counter() - started
                        retryable = isinstance(exc, TransientJobError)
                        detail = f"{type(exc).__name__}: {exc}"
                        if store is not None:
                            store.record_attempt(
                                spec.job_id, attempt, "error", detail, wall
                            )
                        if retryable and attempt < self.retries:
                            attempt += 1
                            delay = seeded_backoff(
                                self.backoff, attempt, spec.job_id,
                                self.max_backoff,
                            )
                            hub.emit(
                                ev.JOB_RETRIED, job_id=spec.job_id,
                                label=spec.label, attempt=attempt,
                                detail=detail, delay=delay,
                            )
                            if delay:
                                if store is not None:
                                    store.flush()
                                time.sleep(delay)
                            continue
                        outcome.failures[spec.job_id] = detail
                        if store is not None:
                            store.record_failure(spec.job_id, detail)
                        hub.emit(
                            ev.JOB_FAILED, job_id=spec.job_id,
                            label=spec.label, attempt=attempt, detail=detail,
                        )
                        break
                    wall = time.perf_counter() - started
                    outcome.results[spec.job_id] = payload
                    if store is not None:
                        store.record_attempt(
                            spec.job_id, attempt, "done", "", wall
                        )
                        store.record_success(spec.job_id, payload, wall)
                    hub.emit(
                        ev.JOB_FINISHED, job_id=spec.job_id, label=spec.label,
                        attempt=attempt,
                    )
                    break
                if store is not None:
                    store.flush()
            if guard.tripped or self._stop_requested:
                outcome.interrupted = True
                outcome.interrupt_signal = guard.describe() or "stop-requested"
                hub.emit(
                    ev.CAMPAIGN_INTERRUPTED, detail=outcome.interrupt_signal
                )
        hub.emit(ev.CAMPAIGN_FINISHED)
        return outcome


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
#: How long teardown waits for workers to exit after their sentinel
#: (and the fork-server for trailing batch acknowledgements).
_SHUTDOWN_GRACE = 5.0


def pool_context() -> multiprocessing.context.BaseContext:
    """The start context for :class:`WorkerPool` workers.

    ``forkserver``, preloading :data:`~repro.runner.jobs.WORKER_PRELOAD`.
    The server starts lazily with the first worker and serves every
    pool in the process.  Setting the preload once it runs has no
    effect, which is harmless: the list never changes.
    """
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(list(WORKER_PRELOAD))
    return context


def _liveness_grace(steady: float, worker: "_Worker") -> float:
    """Heartbeat allowance for one worker, shared by both pools.

    A still-booting interpreter has not started its beat thread yet;
    give it the boot allowance, not the (often much tighter)
    steady-state grace.
    """
    return steady if worker.ready else max(steady, _BOOT_GRACE)


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


def _worker_main(
    worker_id: int,
    job_fn: JobFn,
    inbox,
    outbox,
    heartbeat=None,
    beat_interval: float = 0.2,
) -> None:
    """Worker loop: take one job, run it, report, repeat until sentinel."""
    if heartbeat is not None:
        def _beat() -> None:
            while True:
                heartbeat.value = time.monotonic()
                time.sleep(beat_interval)

        threading.Thread(
            target=_beat, daemon=True, name="repro-heartbeat"
        ).start()
    try:
        # Interpreter bootstrap can dwarf a tight job budget on a
        # loaded machine; this tells the parent to start the clock now.
        outbox.put((worker_id, None, "ready", None, False, 0.0))
    except OSError:
        return
    while True:
        try:
            item = inbox.recv()
        except EOFError:
            return  # the parent closed our inbox: shut down
        if item is None:
            return
        spec_json, attempt = item
        spec = JobSpec.from_json(spec_json)
        started = time.perf_counter()
        status, retryable = "done", False
        try:
            payload = job_fn(spec, attempt)
        except TransientJobError as exc:
            status, payload, retryable = "error", str(exc), True
        except BaseException as exc:  # noqa: BLE001 - isolation boundary
            status, payload = "error", f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        try:
            outbox.put(
                (worker_id, spec.job_id, status, payload, retryable, wall)
            )
        except OSError:
            return  # the parent is gone; nobody is listening


@dataclass
class _Worker:
    """Parent-side handle for one worker process."""

    worker_id: int
    process: multiprocessing.process.BaseProcess
    inbox: Any  # Connection: parent sends (spec, attempt) / None sentinel
    conn: Any = None  # Connection: parent end of the worker's result pipe
    heartbeat: Any = None  # multiprocessing.Value("d") the worker beats
    spec: Optional[JobSpec] = None
    attempt: int = 0
    started_at: float = 0.0
    buffer: bytearray = field(default_factory=bytearray)
    eof: bool = False
    #: The worker finished interpreter bootstrap (sent its ready
    #: frame).  Job wall-clock budgets only run from that point — a
    #: loaded machine can take longer to boot the forkserver's
    #: interpreter on first use than a tight job budget allows.
    ready: bool = False

    @property
    def busy(self) -> bool:
        return self.spec is not None

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


class WorkerPool:
    """Multiprocessing campaign executor with fault isolation."""

    def __init__(
        self,
        jobs: int = 2,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.05,
        max_backoff: float = 5.0,
        job_fn: JobFn = execute_job,
        on_event: Optional[EventCallback] = None,
        poll_interval: float = 0.05,
        poison_threshold: int = 3,
        circuit_threshold: int = 8,
        liveness_grace: Optional[float] = 30.0,
        beat_interval: float = 0.2,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.job_fn = job_fn
        self.on_event = on_event
        self.poll_interval = poll_interval
        self.poison_threshold = poison_threshold
        self.circuit_threshold = circuit_threshold
        self.liveness_grace = liveness_grace
        self.beat_interval = beat_interval
        self._ctx = pool_context()
        self._poison = PoisonTracker(poison_threshold)
        self._circuit = CircuitBreaker(circuit_threshold)
        self._halted = ""
        self._stop_requested = False

    def request_stop(self) -> None:
        """Cooperative interruption from another thread (see
        :meth:`SerialRunner.request_stop`).  In-flight jobs are
        abandoned un-acked, so ``--resume`` re-runs them exactly."""
        self._stop_requested = True

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

        #: (ready_time, spec, attempt) — backoff delays re-dispatch.
        pending: List[tuple] = [(0.0, spec, 0) for spec in remaining]
        workers: Dict[int, _Worker] = {}
        next_worker_id = 0

        abandoned: List[tuple] = []
        try:
            # The guard goes up before the first worker exists, so an
            # interrupt during spawn is already a graceful shutdown.
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
                if guard.tripped or self._stop_requested:
                    outcome.interrupted = True
                    outcome.interrupt_signal = (
                        guard.describe() or "stop-requested"
                    )
                abandoned = [
                    (w.spec, w.attempt) for w in workers.values() if w.busy
                ]
        finally:
            self._shutdown(workers)

        if outcome.interrupted:
            hub.emit(ev.CAMPAIGN_INTERRUPTED, detail=outcome.interrupt_signal)
        elif self._halted:
            self._fail_remaining(
                pending, abandoned, outcome, store, hub, self._halted
            )
        if store is not None:
            store.flush()
        hub.emit(ev.CAMPAIGN_FINISHED)
        return outcome

    # -- scheduling internals ------------------------------------------

    def _wrap_outbox(self, channel):
        """Per-worker result-channel hook — the chaos harness wraps it."""
        return channel

    def _spawn(self, worker_id: int) -> _Worker:
        # One private pipe pair per worker.  Results never share a
        # transport: see _ResultChannel for why a shared queue is a
        # liveness hazard under kills.
        inbox_r, inbox_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        heartbeat = self._ctx.Value("d", time.monotonic())
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id, self.job_fn, inbox_r,
                self._wrap_outbox(_ResultChannel(result_w)), heartbeat,
                self.beat_interval,
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

    def _assign(self, pending, workers, store, hub) -> None:
        now = time.monotonic()
        for worker in workers.values():
            if worker.busy or not pending:
                continue
            index = next(
                (i for i, (ready, _, _) in enumerate(pending) if ready <= now),
                None,
            )
            if index is None:
                continue
            _, spec, attempt = pending.pop(index)
            worker.spec = spec
            worker.attempt = attempt
            worker.started_at = now
            try:
                worker.inbox.send((spec.to_json(), attempt))
            except OSError:
                pass  # worker just died; _check_crashes re-queues the job
            if store is not None and attempt == 0:
                store.mark_running(spec.job_id)
            hub.emit(
                ev.JOB_STARTED, job_id=spec.job_id, label=spec.label,
                worker=worker.worker_id, attempt=attempt,
            )

    def _drain(self, workers, pending, outcome, store, hub) -> None:
        """Process every available worker message (block briefly once).

        Reads are non-blocking and frame-parsed in the parent: a
        worker killed mid-write leaves at worst a partial frame in its
        private buffer, never a blocked read or a poisoned lock.

        The store is flushed before blocking: one commit covers the
        whole scheduling round, and no transaction is held across an
        idle wait.
        """
        if store is not None:
            store.flush()
        conns = {
            worker.conn: worker
            for worker in workers.values() if not worker.eof
        }
        if not conns:
            time.sleep(self.poll_interval)
            return
        ready = multiprocessing.connection.wait(
            list(conns), timeout=self.poll_interval
        )
        for conn in ready:
            worker = conns[conn]
            self._pump(worker)
            for message in worker.take_messages():
                self._dispatch(message, workers, pending, outcome, store, hub)

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

    def _dispatch(
        self, message, workers, pending, outcome, store, hub
    ) -> None:
        worker_id, job_id, status, payload, retryable, wall = message
        worker = workers.get(worker_id)
        if status == "ready":
            # Bootstrap finished: charge the in-flight job's wall-clock
            # budget from here, not from when the job was queued into a
            # still-booting interpreter.
            if worker is not None:
                worker.ready = True
                if worker.busy:
                    worker.started_at = time.monotonic()
            return
        if worker is None or worker.spec is None or worker.spec.job_id != job_id:
            return  # stale message (a chaos duplicate, a replaced worker)
        spec, attempt = worker.spec, worker.attempt
        worker.spec = None
        self._circuit.record_success()  # the worker survived its job
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

    def _check_timeouts(self, workers, pending, outcome, store, hub) -> None:
        if self.timeout is None:
            return
        now = time.monotonic()
        for worker in list(workers.values()):
            spec, attempt = worker.spec, worker.attempt
            if spec is None or not worker.ready:
                continue  # boot time is not the job's; liveness covers wedges
            if now - worker.started_at <= self.timeout:
                continue
            detail = f"exceeded {self.timeout:.1f}s wall-clock budget"
            hub.emit(
                ev.JOB_TIMEOUT, job_id=spec.job_id, label=spec.label,
                worker=worker.worker_id, attempt=attempt, detail=detail,
            )
            self._kill(workers, worker)
            if store is not None:
                store.record_attempt(
                    spec.job_id, attempt, "timeout", detail, self.timeout
                )
            self._handle_death(
                spec, attempt, detail, pending, outcome, store, hub
            )

    def _check_liveness(self, workers, pending, outcome, store, hub) -> None:
        """Detect wedged workers whose process is alive but silent.

        ``is_alive()`` cannot see a SIGSTOPped or deadlocked worker;
        the heartbeat can — it goes stale.  The job's own runtime is
        covered by ``timeout``; this grace period only covers loss of
        the heartbeat itself.
        """
        if self.liveness_grace is None:
            return
        now = time.monotonic()
        for worker in list(workers.values()):
            spec, attempt = worker.spec, worker.attempt
            if spec is None or not worker.process.is_alive():
                continue
            grace = _liveness_grace(self.liveness_grace, worker)
            stale = now - worker.last_seen()
            if stale <= grace:
                continue
            detail = (
                f"no heartbeat for {stale:.1f}s "
                f"(grace {grace:.1f}s)"
            )
            hub.emit(
                ev.WORKER_UNRESPONSIVE, job_id=spec.job_id, label=spec.label,
                worker=worker.worker_id, attempt=attempt, detail=detail,
            )
            self._kill(workers, worker)
            if store is not None:
                store.record_attempt(
                    spec.job_id, attempt, "unresponsive", detail
                )
            self._handle_death(
                spec, attempt, detail, pending, outcome, store, hub
            )

    def _check_crashes(self, workers, pending, outcome, store, hub) -> None:
        """Detect dead workers and fail (or retry) their in-flight jobs."""
        for worker in list(workers.values()):
            if worker.process.is_alive():
                continue
            spec, attempt = worker.spec, worker.attempt
            self._kill(workers, worker)
            if spec is not None:
                detail = (
                    f"worker crashed (exit code {worker.process.exitcode})"
                )
                hub.emit(
                    ev.WORKER_CRASHED, job_id=spec.job_id, label=spec.label,
                    worker=worker.worker_id, attempt=attempt, detail=detail,
                )
                if store is not None:
                    store.record_attempt(spec.job_id, attempt, "crash", detail)
                self._handle_death(
                    spec, attempt, detail, pending, outcome, store, hub
                )

    def _handle_death(
        self, spec, attempt, detail, pending, outcome, store, hub
    ) -> None:
        """A worker died under this job: quarantine, retry, or fail.

        Two guards fire before the ordinary retry path: the poison
        tracker quarantines a *job* that keeps killing workers, and the
        circuit breaker halts the *campaign* when workers die
        consecutively regardless of job — the first is a bad input,
        the second a bad environment.
        """
        verdict = self._poison.record_death(spec.job_id)
        if verdict is not None:
            quarantine_detail = verdict.render()
            outcome.failures[spec.job_id] = quarantine_detail
            if store is not None:
                store.record_attempt(
                    spec.job_id, attempt, "quarantined", quarantine_detail
                )
                store.record_failure(spec.job_id, quarantine_detail)
            hub.emit(
                ev.JOB_QUARANTINED, job_id=spec.job_id, label=spec.label,
                attempt=attempt, detail=quarantine_detail,
            )
        else:
            self._retry_or_fail(
                spec, attempt, detail, True, pending, outcome, store, hub
            )
        if self._circuit.record_death():
            self._halted = self._circuit.render()
            hub.emit(ev.CIRCUIT_OPEN, detail=self._halted)

    def _replenish(self, workers, pending, next_worker_id) -> int:
        """Keep the pool sized to the remaining work after kills."""
        busy = sum(1 for w in workers.values() if w.busy)
        target = min(self.jobs, busy + len(pending))
        while len(workers) < target:
            workers[next_worker_id] = self._spawn(next_worker_id)
            next_worker_id += 1
        return next_worker_id

    def _retry_or_fail(
        self, spec, attempt, detail, retryable, pending, outcome, store, hub
    ) -> None:
        if retryable and attempt < self.retries:
            delay = seeded_backoff(
                self.backoff, attempt + 1, spec.job_id, self.max_backoff
            )
            pending.append((time.monotonic() + delay, spec, attempt + 1))
            hub.emit(
                ev.JOB_RETRIED, job_id=spec.job_id, label=spec.label,
                attempt=attempt + 1, detail=detail, delay=delay,
            )
            return
        outcome.failures[spec.job_id] = detail
        if store is not None:
            store.record_failure(spec.job_id, detail)
        hub.emit(
            ev.JOB_FAILED, job_id=spec.job_id, label=spec.label,
            attempt=attempt, detail=detail,
        )

    def _fail_remaining(
        self, pending, abandoned, outcome, store, hub, detail
    ) -> None:
        """Circuit open: fail everything still queued or in flight."""
        leftovers = [(spec, attempt) for _ready, spec, attempt in pending]
        leftovers.extend(
            (spec, attempt) for spec, attempt in abandoned if spec is not None
        )
        pending.clear()
        for spec, attempt in leftovers:
            if spec.job_id in outcome.failures:
                continue
            outcome.failures[spec.job_id] = detail
            if store is not None:
                store.record_failure(spec.job_id, detail)
            hub.emit(
                ev.JOB_FAILED, job_id=spec.job_id, label=spec.label,
                attempt=attempt, detail=detail,
            )

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


def make_runner(
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    job_fn: JobFn = execute_job,
    on_event: Optional[EventCallback] = None,
    max_backoff: float = 5.0,
    poison_threshold: int = 3,
    circuit_threshold: int = 8,
    liveness_grace: Optional[float] = 30.0,
    fork_server: bool = False,
    batch: int = 8,
    recycle_after: int = 256,
):
    """A SerialRunner for ``jobs=1``, a WorkerPool otherwise.

    ``fork_server=True`` selects the persistent snapshot-cached
    :class:`~repro.runner.forkserver.ForkServerPool` at any job count
    (even one worker benefits from the snapshot cache).
    """
    if fork_server:
        from repro.runner.forkserver import ForkServerPool, execute_job_cached

        return ForkServerPool(
            jobs=max(jobs, 1), batch=batch, recycle_after=recycle_after,
            timeout=timeout, retries=retries, max_backoff=max_backoff,
            job_fn=execute_job_cached if job_fn is execute_job else job_fn,
            on_event=on_event, poison_threshold=poison_threshold,
            circuit_threshold=circuit_threshold,
            liveness_grace=liveness_grace,
        )
    if jobs <= 1:
        return SerialRunner(
            retries=retries, max_backoff=max_backoff, job_fn=job_fn,
            on_event=on_event,
        )
    return WorkerPool(
        jobs=jobs, timeout=timeout, retries=retries, max_backoff=max_backoff,
        job_fn=job_fn, on_event=on_event, poison_threshold=poison_threshold,
        circuit_threshold=circuit_threshold, liveness_grace=liveness_grace,
    )


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    store: Optional[ResultStore] = None,
    job_fn: JobFn = execute_job,
    on_event: Optional[EventCallback] = None,
) -> RunnerOutcome:
    """One-call campaign execution: plan in, outcome out."""
    runner = make_runner(
        jobs=jobs, timeout=timeout, retries=retries, job_fn=job_fn,
        on_event=on_event,
    )
    return runner.run(specs, store=store)
