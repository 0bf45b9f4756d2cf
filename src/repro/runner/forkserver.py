"""Fork-server campaign execution: persistent, snapshot-cached workers.

The spawn configuration of :class:`~repro.runner.pool.WorkerPool`
builds a fresh testbed per job (3.0–3.8 ms on a 2-CPU host, against
about 0.25 ms for a fuzz trial itself), and the first pool in a process
waits for the stdlib ``forkserver``'s own interpreter boot before its
first worker starts.  The pool's fork-server configuration
(``fork_server=True``, or :class:`ForkServerPool`) removes both costs:

* workers start via the ``fork`` context from a parent that has
  imported :data:`~repro.runner.jobs.WORKER_PRELOAD` (the pool does so
  before its first fork, 38–47 ms once per process after
  ``import repro.cli``), so there is no server to boot and a job
  imports nothing.  On a 2-CPU host a worker reports ready 3.5–4.4 ms
  after ``start()``, and its first fuzz trial takes 9–10 ms, the boot
  and capture of its bed (medians of 5 fresh workers, two runs);
* each worker keeps a **snapshot cache** keyed by (version,
  topology): the first job of a key boots a testbed and captures a
  :class:`~repro.core.checkpoint.TestbedCheckpoint`; every later one
  *restores* the checkpoint in place instead of rebuilding the machine.
  Every job kind but the pool's selftests is served so: matrix cells
  (traced, ``--metrics`` and ``--recover`` ones included), classic and
  synthetic fuzz trials, benchmark cases and test cases;
* each worker gets the run's plan once and jobs travel as
  ``(plan index, attempt)`` pairs, in **batches** over the per-worker
  length-prefixed pipes, amortizing IPC and scheduling overhead.

This module holds the worker side of every pool: the snapshot cache
and the one worker main.  The cache (:class:`SnapshotCache`) is only
a testbed source — :func:`execute_job_cached` is
:func:`~repro.runner.jobs.execute_job` with the worker's cache's
:meth:`~SnapshotCache.lease` as its lease, so what a job kind does is
decided in one place for every engine.  The serial runner leases from
a cache of its own, one per run.  The worker main also runs the
pool's worker-fault hook (the chaos harness's kills, hangs, snapshot
corruptions and restore wedges) before each job and each restore.
Persistent processes accumulate state and cached snapshots can rot, so:

* every restore rewrites only the machine frames whose bytes differ
  from the snapshot and is then **verified** against the capture
  (the capture-time frame set, each rewritten frame at its
  capture-time sha1, each blob's fingerprint); a mismatch evicts the
  cache entry, cold-boots a fresh testbed, emits a structured
  ``restore-diverged`` event and is counted in the pool's
  infrastructure ``stats``.  The Python layers need no such check:
  each restore rebuilds them from the checkpoint's private copies,
  and a test proves those are complete;
* every result frame carries what its job did to the worker — the
  restore-diverged records, the cache-counter delta and the peak RSS —
  so the pool counts each job exactly once and can **recycle** a
  worker when a batch takes it to ``_RECYCLE_AFTER`` jobs or unbounded
  RSS growth (the same park/reboot discipline ReHype applies to the
  hypervisor itself);
* repeated worker deaths trip the circuit breaker, and the pool then
  **degrades** — same pool, cache off — to the spawn configuration
  for the leftover jobs instead of failing the campaign;
* SIGINT/SIGTERM flush in-flight batch members back to pending (they
  are simply never recorded as done), so ``--resume`` stays exact.

Correctness invariant: serial == spawn == fork-server, byte for
byte, over results, traces and metrics — enforced by the parity tests
and the chaos harness's fork-server faults.
"""

from __future__ import annotations

import os
import resource
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.jobs import JobSpec, TransientJobError, execute_job
from repro.runner.pool import JobFn, WorkerPool


def preferred_context() -> str:
    """The fork-server configuration's start method: ``fork``.

    Fork inherits the parent's warm imports, with no forkserver to boot
    first.  On a 2-CPU host a forked worker reports ready 3.5–4.4 ms
    after ``start()``.  The first worker of the stdlib forkserver takes
    0.34–0.47 s, most of it the server's interpreter boot and preload,
    and a later one 15–22 ms.
    """
    return "fork"


# ----------------------------------------------------------------------
# The snapshot cache
# ----------------------------------------------------------------------


@dataclass
class _CacheEntry:
    bed: Any
    checkpoint: Any  # TestbedCheckpoint (imported lazily)


class SnapshotCache:
    """Warm beds, one per (version, topology), with their counters.

    :meth:`lease` is a :data:`~repro.runner.jobs.Lease`: pass it to
    :func:`~repro.runner.jobs.execute_job` and every job runs on a
    restored bed.  A cache belongs to one execution context at a time:
    a fork-server worker keeps one for its whole life
    (:func:`execute_job_cached`), and a
    :class:`~repro.runner.SerialRunner` builds one per ``run()`` and
    drops it at the end, so two runs on two threads never share a bed.

    ``stats`` counts captures, restores, divergences and cold boots;
    ``infra`` holds one record per diverged restore.  Both grow until
    :meth:`drain` hands them over.  ``faults`` is the pool's
    worker-fault injector (see ``WorkerPool._worker_faults``), or None.
    """

    def __init__(self, faults: Optional[Any] = None):
        self.entries: Dict[str, _CacheEntry] = {}
        self.stats: Dict[str, int] = {}
        self.infra: List[dict] = []
        self.faults = faults

    def _stat(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1

    def drain(self) -> Tuple[List[dict], Dict[str, int]]:
        """The infra records and counters since the last drain."""
        accounts = (self.infra, self.stats)
        self.infra, self.stats = [], {}
        return accounts

    def lease(self, spec: JobSpec, attempt: int, boot: Callable[[], Any]) -> Any:
        """A testbed for one job: restored from cache, or cold-booted.

        ``boot`` builds a fresh bed of the spec's version and topology;
        it runs on a cache miss and after an eviction.  The restore path
        is verified end to end: a cached snapshot whose restore does not
        reproduce the capture-time machine exactly is evicted, the
        divergence is recorded as a structured infra record, and the
        job falls back to the exact cold-boot path a cache miss takes —
        so a rotten snapshot can cost throughput but never correctness.
        """
        from repro.core.checkpoint import CheckpointDiverged, TestbedCheckpoint

        # One warm bed per (version, topology): a cached snapshot of the
        # wrong scenario shape must never serve a job.
        key = f"{spec.version}|{spec.topology}" if spec.topology else spec.version
        entry = self.entries.get(key)
        if entry is not None:
            if self.faults is not None:
                self.faults.before_restore(entry, spec.job_id, attempt)
            try:
                entry.checkpoint.restore(entry.bed)
                self._stat("forkserver.restores")
                return entry.bed
            except CheckpointDiverged as exc:
                del self.entries[key]
                self._stat("forkserver.restore.diverged")
                self._stat("forkserver.cold_boots")
                self.infra.append(
                    {
                        "kind": "restore-diverged",
                        "version": key,
                        "expected": exc.expected,
                        "actual": exc.actual,
                    }
                )
        bed = boot()
        self.entries[key] = _CacheEntry(
            bed=bed, checkpoint=TestbedCheckpoint.capture(bed)
        )
        self._stat("forkserver.captures")
        return bed


#: This process's cache, used by :func:`execute_job_cached`.  Each
#: worker is its own process, so the global is per worker and
#: ``execute_job_cached`` stays a plain picklable function.
_WORKER_CACHE = SnapshotCache()


def _reset_worker_cache(faults: Optional[Any] = None) -> None:
    """Start this process's cache afresh: no beds, no counters."""
    global _WORKER_CACHE
    _WORKER_CACHE = SnapshotCache(faults)


def execute_job_cached(spec: JobSpec, attempt: int = 0) -> Dict[str, object]:
    """:func:`~repro.runner.jobs.execute_job` on this process's snapshot cache.

    Every job kind but the pool's selftests leases its bed from
    :meth:`SnapshotCache.lease`: one warm bed per (version, topology),
    restored to its boot-time checkpoint before every job.  The
    checkpoint covers every layer a job writes, so the payload — and
    the trace file of a traced cell — is byte-identical to the
    cold-boot executor's.  Selftests take no bed and run exactly as
    under ``execute_job``.
    """
    return execute_job(spec, attempt, lease=_WORKER_CACHE.lease)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _forkserver_worker_main(
    worker_id: int,
    job_fn: JobFn,
    plan: Sequence[JobSpec],
    inbox: Any,
    outbox: Any,
    heartbeat: Any,
    beat_interval: float,
    faults: Optional[Any],
) -> None:
    """The worker loop of every pool: take a batch, stream results, repeat.

    ``plan`` is the run's job list; a batch names its members by
    ``(plan index, attempt)``.  A ``fork``-started worker inherits the
    plan, a forkserver-started one unpickles it once at start, and
    either way each spec arrives with the job ID the parent already
    derived, so nothing is decoded or hashed per job.  The worker
    writes the monotonic clock into ``heartbeat`` every
    ``beat_interval`` seconds; the parent passes its own
    ``_BEAT_INTERVAL``, so a forkserver-started worker, which never sees
    the parent's module state, beats at the parent's rate.

    Signal discipline for *persistent* workers: SIGINT is ignored (a
    terminal Ctrl-C reaches the whole foreground process group; the
    parent's signal guard owns interruption policy, and a worker that
    dies mid-batch would just lose streamed work), and SIGTERM is
    reset to the default action (a fork-context child inherits the
    parent's no-op guard handler, which would make ``terminate()``
    useless).  The heartbeat thread doubles as a parent-death watchdog:
    if the parent vanishes without closing our inbox (SIGKILL), the
    reparented worker exits instead of surviving as an orphan.  A
    forkserver-started worker's parent is the server, which exits when
    the pool's process dies, so the watchdog fires one step later.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # A fork-context child inherits the parent's module state — if the
    # parent process ever ran execute_job_cached itself, that includes
    # its snapshot cache and counters.  Start from a clean slate.
    _reset_worker_cache(faults)
    parent_pid = os.getppid()

    def _beat() -> None:
        while True:
            heartbeat.value = time.monotonic()
            if os.getppid() != parent_pid:
                os._exit(0)  # parent died; do not outlive it
            time.sleep(beat_interval)

    threading.Thread(target=_beat, daemon=True, name="repro-heartbeat").start()
    try:
        outbox.put((worker_id, None, "ready", None, False, 0.0, None))
    except OSError:
        return
    while True:
        try:
            item = inbox.recv()
        except (EOFError, OSError):
            return  # the parent closed our inbox (or died): shut down
        if item is None:
            return
        for index, attempt in item:
            spec = plan[index]
            started = time.perf_counter()
            status, retryable = "done", False
            payload: object
            try:
                if faults is not None:
                    faults.before_job(spec.job_id, attempt)
                payload = job_fn(spec, attempt)
            except BaseException as exc:  # noqa: BLE001 - isolation boundary
                status, payload = "error", f"{type(exc).__name__}: {exc}"
                retryable = isinstance(exc, TransientJobError)
            wall = time.perf_counter() - started
            # What this job did to the worker rides on its own result:
            # the parent applies it only when it acks the result.
            accounts = (
                *_WORKER_CACHE.drain(),
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            )
            try:
                outbox.put(
                    (
                        worker_id, spec.job_id, status, payload, retryable,
                        wall, accounts,
                    )
                )
            except OSError:
                return  # the parent is gone; nobody is listening


# ----------------------------------------------------------------------
# Parent-side configuration
# ----------------------------------------------------------------------


class ForkServerPool(WorkerPool):
    """The fork-server configuration of :class:`WorkerPool`.

    Persistent ``fork``-started workers, batched dispatch and
    :func:`execute_job_cached` by default; everything else — the run
    loop, degradation, options — is :class:`WorkerPool`'s.
    """

    def __init__(self, jobs: int = 2, **kwargs: Any):
        super().__init__(jobs=jobs, fork_server=True, **kwargs)
