"""The engine workloads, and what every workload shares.

Each workload runs campaigns through the same public entry points the
CLI uses, back to back, while the next one is predicted to end inside
the measuring window (:func:`another`); a campaign is one ``repro
fuzz`` / ``repro campaign`` invocation, or one plan submitted to
``repro serve`` (:mod:`benchmarks.perf.service`).  Every store is an
on-disk ``ResultStore``, as with ``--store``.  A host probe runs
between neighbouring campaigns (:class:`Probed`).

* ``fuzz-fork`` — ``repro fuzz --jobs 2 --fork-server --store``, 600
  trials per campaign: the parent loop, spec/pipe dispatch, snapshot
  restores, trial ops and store commits on every job.
* ``fuzz-serial`` — ``repro fuzz --store`` (``--jobs 1``, the CLI
  default), 152 trials per campaign: no IPC and no snapshot cache,
  every trial boots a testbed.  The bypass workload for dispatch and
  restore changes.
* ``matrix-fork`` — ``repro campaign --jobs 2 --fork-server --store``
  over every registered use case: the snapshot cache is bypassed,
  every job boots and runs monitors, and pool start-up is paid per
  campaign.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import sqlite3
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import mean
from typing import Dict, List, Optional, Tuple

from benchmarks.perf.layers import (
    TimedStore,
    canonical,
    median,
    p75,
    replay_jobs,
    replay_metrics,
    store_metrics,
    timed_planners,
)
from repro.runner.events import JOB_FINISHED
from repro.runner.store import ResultStore

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

SERVICE_WORKLOAD = "service-tenants"

#: The Xen version every fuzz campaign targets.
FUZZ_VERSION = "4.13"
#: The default fuzz components but ``shared-pud``: about one in 40,000
#: shared-pud trials retypes the PUD slot that the M2P read goes
#: through into a linear-alias entry, and the read then raises an
#: unclassified ``MachineError`` (e.g. root seed 1227950264, trial 5)
#: instead of an outcome.  A benchmark workload must not fail.
FUZZ_COMPONENTS = ("idt", "m2p", "victim-pagetables", "victim-data")
#: ``--jobs 2``: the program's configuration, matching a 2-core host.
WORKERS = 2
#: Upper bound on any single campaign, seconds (a hang, not a slow run).
CAMPAIGN_TIMEOUT = 120.0
#: What :func:`host_probe` takes at the usual speed of the host the
#: benchmark was built on: 9 ms at its fastest, 11-20 ms most of the
#: time.  Scaled timings read as if the host had run at this speed.
PROBE_REF_S = 0.015


class BenchmarkError(RuntimeError):
    """The benchmark could not run a workload to completion."""


@dataclass(frozen=True)
class Sizes:
    """How much work one campaign plans, and how much checking a run does."""

    #: Fuzz trials per component in a fuzz-fork campaign (600 trials,
    #: ~2.5 s).  The host probe needs a gap every few seconds; pool
    #: start-up and teardown are ~10% of a campaign this long
    #: (``campaign.edge_share`` in a traced run).
    fork_runs: int = 150
    #: Fuzz trials per component in a fuzz-serial campaign (152 trials,
    #: ~2 s).
    serial_runs: int = 38
    #: ``runs`` of each plan a tenant submits (24 jobs).
    service_runs: int = 6
    #: Cold starts whose median is ``setup_s``.
    cold_starts: int = 5
    #: Jobs re-run in-process, step by step, in a traced run.
    replay: int = 200
    #: Jobs re-run serially by the correctness gate.
    gate: int = 24

    def fuzz_runs(self, workload: str) -> int:
        """Trials per component in one campaign of a fuzz workload."""
        return self.fork_runs if workload == "fuzz-fork" else self.serial_runs


FULL = Sizes()
#: About 1/20 of the work, for the smoke test.
SMOKE = Sizes(fork_runs=8, serial_runs=2, service_runs=1, cold_starts=1, replay=20)


@dataclass
class Measured:
    """Everything one run of one workload measured and checked."""

    workload: str
    end_to_end: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    per_layer: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: The end-to-end timings as measured, before host-speed scaling.
    raw: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    sizes: Dict[str, int] = field(default_factory=dict)
    load: Dict[str, int] = field(default_factory=dict)
    #: Every campaign's wall time and host factor, in finishing order.
    campaign_s: List[float] = field(default_factory=list)
    host_factor: List[float] = field(default_factory=list)


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    paths = [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or any reaped descendant, in MB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------


def another(deadline: float, last_s: float, done: int, minimum: int) -> bool:
    """Whether to start another campaign.

    At least ``minimum`` campaigns run; after that one starts when,
    taking as long as the last one (``last_s``), at least half of it
    falls before ``deadline``.  The campaigns run so add up to the
    window as closely as whole campaigns can.
    """
    return done < minimum or time.perf_counter() + last_s / 2 <= deadline


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    On the shared 2-core host the benchmark was built on, the CPU speed
    a process gets swings by up to ~45% within seconds and drifts as
    much over minutes.  A wall-clock timing inherits both; ten 18 s
    runs of a pure-CPU loop spread 15% (quartile distance over median).
    The probe runs between campaigns, while nothing else of the
    benchmark runs; it is the benchmark's own code, so no change to the
    program can move it.
    """
    started = time.perf_counter()
    table = {}
    for i in range(120000):
        table[i & 255] = i * i % 7
    return time.perf_counter() - started


@dataclass
class Sample:
    """One timed interval (a campaign, a round) and the probes around it."""

    jobs: int
    wall: float
    probes: Tuple[float, float]

    @property
    def host_factor(self) -> float:
        """How much slower than its usual speed the host ran."""
        return (self.probes[0] + self.probes[1]) / (2 * PROBE_REF_S)

    @property
    def scaled(self) -> float:
        """The wall time at the host's usual speed, by this interval's
        own probes."""
        return self.wall / self.host_factor


class Probed:
    """Back-to-back timed intervals with one host probe between neighbours."""

    def __init__(self) -> None:
        self._last = host_probe()

    def sample(self, jobs: int, wall: float) -> Sample:
        """Close the interval that just ended."""
        after = host_probe()
        sample = Sample(jobs, wall, (self._last, after))
        self._last = after
        return sample


def record_end_to_end(
    out: Measured, throughput: List[Sample], campaigns: List[Sample],
    setups: List[float], rss: float,
) -> None:
    """The end-to-end metrics, scaled by the run's host factor.

    As measured: ``jobs_per_s`` is the jobs of ``throughput`` over
    their summed walls, the campaign percentiles come from
    ``campaigns`` and ``setup_s`` is the median cold start.  The run's
    host factor is the mean of its campaigns' factors, and every timing
    is scaled by it, the cold starts too (they run just before the
    window).  One factor per run is steadier than one per campaign: a
    campaign's own two probes see the host at two instants only.  The
    figures as measured go to ``out.raw``.
    """
    walls = [s.wall for s in campaigns]
    out.campaign_s = walls
    out.host_factor = [s.host_factor for s in campaigns]
    factor = mean(out.host_factor)
    jobs = sum(s.jobs for s in throughput)
    measured = {
        "jobs_per_s": (jobs / sum(s.wall for s in throughput), "jobs/s", len(throughput)),
        "setup_s": (median(setups), "s", len(setups)),
        "campaign_p50_s": (median(walls), "s", len(walls)),
        "campaign_p75_s": (p75(walls), "s", len(walls)),
    }
    out.end_to_end = {
        name: (value * factor if unit == "jobs/s" else value / factor, unit, n)
        for name, (value, unit, n) in measured.items()
    }
    out.end_to_end["error_rate"] = (out.failed / out.attempted, "fraction", out.attempted)
    out.end_to_end["peak_rss_mb"] = (rss, "MB", 1)
    out.raw = dict(measured, host_factor=(factor, "ratio", len(walls)))


def overhead_pct(untraced: List[Sample], traced: List[Sample]) -> float:
    """Throughput lost to tracing, as a share of the untraced median.

    Traced and untraced campaigns alternate, so each is scaled by its
    own probes.
    """
    base = median([s.jobs / s.scaled for s in untraced])
    return 100.0 * (base - median([s.jobs / s.scaled for s in traced])) / base


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def gate(pairs: List[tuple], rng: random.Random, size: int) -> List[str]:
    """Re-run a seeded sample of jobs serially and byte-compare payloads.

    ``pairs`` are ``(JobSpec, stored_payload)``.  Returns one line per
    job whose stored payload differs from a fresh ``execute_job``.
    """
    from repro.runner import execute_job

    mismatches = []
    for spec, stored in rng.sample(pairs, min(size, len(pairs))):
        if canonical(execute_job(spec)) != canonical(stored):
            mismatches.append(
                f"{spec.job_id} ({spec.label}): stored payload differs from "
                "a serial re-run"
            )
    return mismatches


def worker_walls(store_path: str) -> List[float]:
    """The worker-measured ``wall_time`` of every completed job."""
    conn = sqlite3.connect(store_path)
    try:
        rows = conn.execute(
            "SELECT wall_time FROM jobs WHERE status = 'done'"
        ).fetchall()
    finally:
        conn.close()
    return [row[0] for row in rows if row[0] is not None]


# ----------------------------------------------------------------------
# Engine workloads: fuzz-fork, fuzz-serial, matrix-fork
# ----------------------------------------------------------------------


def make_engine(workload: str, on_event=None):
    """The runner ``--jobs 1`` or ``--jobs 2 --fork-server`` builds."""
    from repro.runner import ForkServerPool, SerialRunner

    if workload == "fuzz-serial":
        return SerialRunner(on_event=on_event)
    return ForkServerPool(jobs=WORKERS, on_event=on_event)


def _matrix():
    from repro.core.injections.registry import registered_names, resolve
    from repro.xen.versions import ALL_VERSIONS

    return [resolve(name) for name in registered_names()], ALL_VERSIONS


def planned_jobs(workload: str, sizes: Sizes) -> int:
    if workload == "matrix-fork":
        use_cases, versions = _matrix()
        return len(use_cases) * len(versions) * 2
    return len(FUZZ_COMPONENTS) * sizes.fuzz_runs(workload)


def run_campaign(workload: str, runner, sizes: Sizes, root_seed: int, store) -> None:
    """One campaign through the entry point the CLI uses."""
    from repro.core.campaign import Campaign
    from repro.core.fuzz import FuzzCampaign, default_components
    from repro.xen.versions import version_by_name

    if workload == "matrix-fork":
        use_cases, versions = _matrix()
        Campaign().run_matrix(use_cases, versions, runner=runner, store=store)
        return
    components = [c for c in default_components() if c.name in FUZZ_COMPONENTS]
    FuzzCampaign(
        version_by_name(FUZZ_VERSION), seed=root_seed, components=components
    ).run(sizes.fuzz_runs(workload), runner=runner, store=store)


@dataclass
class _Round:
    """One engine campaign, store open to store close."""

    sample: Sample
    traced: bool
    store_path: str
    failures: Dict[str, str]
    parent_cpu: float
    total_cpu: float
    #: Seconds from the start to the first job result, and from the
    #: last job result to the store's close (traced campaigns).
    first_result: Optional[float]
    last_result: Optional[float]
    stats: Dict[str, int]


def _engine_round(
    workload, index, root_seed, traced, sizes, workdir, spans, probed
) -> _Round:
    from repro.runner.pool import CampaignFailed

    path = os.path.join(workdir, f"campaign-{index}.sqlite")
    finished: List[float] = []

    def on_event(event) -> None:
        if event.kind == JOB_FINISHED:
            finished.append(time.perf_counter())

    failures: Dict[str, str] = {}
    self_cpu = cpu_seconds(resource.RUSAGE_SELF)
    children_cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(spans.span("campaign"))
            stack.enter_context(timed_planners(spans))
        store = TimedStore(path, spans) if traced else ResultStore(path)
        runner = make_engine(workload, on_event if traced else None)
        try:
            run_campaign(workload, runner, sizes, root_seed, store)
        except CampaignFailed as exc:
            failures = exc.failures
        finally:
            store.close()
    ended = time.perf_counter()
    parent_cpu = cpu_seconds(resource.RUSAGE_SELF) - self_cpu
    total_cpu = parent_cpu + cpu_seconds(resource.RUSAGE_CHILDREN) - children_cpu
    return _Round(
        sample=probed.sample(planned_jobs(workload, sizes), ended - started),
        traced=traced,
        store_path=path,
        failures=failures,
        parent_cpu=parent_cpu,
        total_cpu=total_cpu,
        first_result=finished[0] - started if finished else None,
        last_result=ended - finished[-1] if finished else None,
        stats=dict(getattr(runner, "stats", {})),
    )


def _engine_cold_starts(workload, sizes, workdir, env, log) -> List[float]:
    """Fresh interpreter -> ``import repro.cli`` -> engine -> first job."""
    times = []
    for index in range(sizes.cold_starts):
        target = os.path.join(workdir, f"cold-{index}")
        os.makedirs(target)
        args = [
            sys.executable, "-m", "benchmarks.perf.coldstart",
            workload, target, str(sizes.fuzz_runs(workload)),
        ]
        started = time.perf_counter()
        proc = subprocess.Popen(
            args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
            code = proc.wait(timeout=CAMPAIGN_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"first-job" or code != 0:
            raise BenchmarkError(
                f"{workload} cold start exited {code} before its first job"
            )
        times.append(elapsed)
    return times


def run_engine(workload, seed, seconds, trace, sizes, workdir, spans, log) -> Measured:
    rng = random.Random(f"{workload}:{seed}")
    out = Measured(workload=workload, load={"threads": 1, "connections": 0})
    setups = [] if trace else _engine_cold_starts(
        workload, sizes, workdir, child_env(), log
    )

    # A traced run alternates untraced and traced campaigns, so it runs
    # at least one of each.
    rounds: List[_Round] = []
    probed = Probed()
    deadline = time.perf_counter() + seconds
    while another(
        deadline, rounds[-1].sample.wall if rounds else 0.0, len(rounds), 2 if trace else 1
    ):
        traced = trace and len(rounds) % 2 == 1
        rounds.append(_engine_round(
            workload, len(rounds), rng.getrandbits(31), traced, sizes, workdir,
            spans, probed,
        ))
    rss = peak_rss_mb()

    # -- correctness: every planned job done, a sample re-run serially
    pairs = []
    walls: Dict[str, List[float]] = {}
    for r in rounds:
        out.attempted += r.sample.jobs
        out.failed += len(r.failures)
        with ResultStore(r.store_path) as store:
            summary = store.summary()
            pairs.extend(store.payloads())
        if summary.total != r.sample.jobs or summary.done != r.sample.jobs:
            out.errors.append(
                f"{r.store_path}: {summary.render()} (planned {r.sample.jobs})"
            )
        walls[r.store_path] = worker_walls(r.store_path)
    out.errors.extend(gate(pairs, rng, sizes.gate))
    out.sizes = {
        "jobs_per_campaign": rounds[0].sample.jobs,
        "campaigns": len(rounds),
        "jobs": out.attempted,
    }
    if out.errors:
        return out  # no metrics for a run whose outputs are wrong

    samples = [r.sample for r in rounds]
    if not trace:
        record_end_to_end(out, samples, samples, setups, rss)
        return out

    out.campaign_s = [s.wall for s in samples]
    out.host_factor = [s.host_factor for s in samples]
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    slots = 1 if workload == "fuzz-serial" else WORKERS
    layer = out.per_layer
    plans = spans.by_name().get("jobs.plan", [])
    layer["jobs.plan_ms"] = (median(plans) * 1e3, "ms", len(plans))
    layer["pool.parent_cpu_ms_per_job"] = (
        median([r.parent_cpu / r.sample.jobs for r in traced]) * 1e3,
        "ms", len(traced),
    )
    execs = [w for r in traced for w in walls[r.store_path]]
    layer["pool.worker_exec_ms_p50"] = (median(execs) * 1e3, "ms", len(execs))
    layer["pool.slot_idle_ms_per_job"] = (
        median([
            (r.sample.wall * slots - sum(walls[r.store_path])) / r.sample.jobs
            for r in traced
        ]) * 1e3,
        "ms", len(traced),
    )
    layer["pool.first_result_ms"] = (
        median([r.first_result for r in traced]) * 1e3, "ms", len(traced)
    )
    # What a campaign pays once rather than per job: engine and store
    # start-up, planning and the first job before the first result;
    # pool shutdown and store close after the last.
    layer["campaign.edge_share"] = (
        median([(r.first_result + r.last_result) / r.sample.wall for r in traced]),
        "fraction", len(traced),
    )
    if workload != "fuzz-serial":
        for metric, keys in (
            ("pool.restores", ("forkserver.restores",)),
            ("pool.cold_boots", ("forkserver.captures", "forkserver.cold_boots")),
            ("pool.recycles", ("forkserver.workers.recycled",)),
        ):
            counts = [sum(r.stats.get(k, 0) for k in keys) for r in traced]
            layer[metric] = (float(median(counts)), "count", len(counts))
    layer.update(store_metrics(
        spans, sum(r.sample.jobs for r in traced),
        busy_wall=sum(r.sample.wall for r in traced),
    ))
    layer["cpu.total_ms_per_job"] = (
        median([r.total_cpu / r.sample.jobs for r in untraced]) * 1e3,
        "ms", len(untraced),
    )
    layer["trace.overhead_pct"] = (
        overhead_pct([r.sample for r in untraced], [r.sample for r in traced]),
        "%", len(rounds),
    )
    sample = rng.sample(pairs, min(sizes.replay, len(pairs)))
    sizes_seen, mismatches = replay_jobs(
        sample, snapshot_cache=workload == "fuzz-fork", spans=spans
    )
    out.errors.extend(mismatches)
    layer.update(replay_metrics(spans, sizes_seen))
    return out
