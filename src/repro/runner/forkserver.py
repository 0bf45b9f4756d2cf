"""Fork-server campaign execution: persistent, snapshot-cached workers.

The spawn configuration of :class:`~repro.runner.pool.WorkerPool`
builds a fresh testbed per trial (3.0–3.8 ms on a 2-CPU host, against
about 0.25 ms for the trial itself), and the first pool in a process
waits for the stdlib ``forkserver``'s own interpreter boot before its
first worker starts.  The pool's fork-server configuration
(``fork_server=True``, or :class:`ForkServerPool`) removes both costs:

* workers start via the ``fork`` context (the parent's warm imports,
  ~2ms, no server to boot);
* each worker keeps a per-version **snapshot cache**: the first trial
  of a version boots a testbed and captures a
  :class:`~repro.core.checkpoint.TestbedCheckpoint`; every later trial
  *restores* the checkpoint in place instead of rebuilding the machine;
* jobs travel in **batches** over the per-worker length-prefixed
  pipes, amortizing IPC and scheduling overhead.

This module holds the worker side of every pool: the snapshot cache
(:func:`execute_job_cached`) and the one worker main.  Persistent
processes accumulate state and cached snapshots can rot, so:

* every restore is **digest-verified** against the checkpoint's
  ``machine_digest``; a mismatch evicts the cache entry, cold-boots a
  fresh testbed, emits a structured ``restore-diverged`` event and is
  counted in the pool's infrastructure ``stats``;
* workers report RSS and cache counters after every batch, so the
  pool can **recycle** them after ``recycle_after`` jobs or unbounded
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
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.runner.jobs import (
    FUZZ_TRIAL,
    JobSpec,
    TransientJobError,
    execute_job,
)
from repro.runner.pool import JobFn, WorkerPool


def preferred_context() -> str:
    """The fork-server configuration's start method: ``fork``.

    Fork inherits the parent's warm imports (~2ms to a live worker vs
    ~0.5s for a fresh interpreter), with no forkserver to boot first.
    """
    return "fork"


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
    """The worker loop of every pool: take a batch, stream results, repeat.

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
            except BaseException as exc:  # noqa: BLE001 - isolation boundary
                status, payload = "error", f"{type(exc).__name__}: {exc}"
                retryable = isinstance(exc, TransientJobError)
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
