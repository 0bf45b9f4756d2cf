"""The ``service-tenants`` workload: ``repro serve`` under two tenants.

The server runs as README starts it (``python -m repro serve
--data-dir D --jobs 2``), with quotas loose enough that a faster
server can never trip a 429.  Two tenant threads in the benchmark
process each run a closed loop with no think time: submit a fuzz plan,
stream its SSE events to the final frame, read the results back with
``GET /results`` (reads beside writes on the shard stores), repeat.
The tenants move in rounds: when both have read their results back,
the host probe runs while the server is idle, and both submit again.
The tenant that finished first waits for the other; a traced run
reports that wait as ``tenants.wait_share``.  Each thread holds at
most one open connection.  After the window the server is drained
with SIGTERM, which must exit 0, and ``compact_data_dir`` folds the
shards.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from benchmarks.perf.layers import (
    Spans,
    TimedStore,
    median,
    replay_jobs,
    replay_metrics,
    store_metrics,
    timed_planners,
)
from benchmarks.perf.workloads import (
    CAMPAIGN_TIMEOUT,
    FUZZ_COMPONENTS,
    FUZZ_VERSION,
    ROOT,
    SERVICE_WORKLOAD,
    WORKERS,
    BenchmarkError,
    Measured,
    Probed,
    Sample,
    another,
    child_env,
    cpu_seconds,
    gate,
    overhead_pct,
    peak_rss_mb,
    record_end_to_end,
    worker_walls,
)
from repro.runner.store import ResultStore

#: Tenant threads driving the service.
TENANTS = 2


def _proc_cpu(pid: int) -> Tuple[float, float]:
    """(own, own + reaped children) CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    tick = os.sysconf("SC_CLK_TCK")
    utime, stime, cutime, cstime = (int(v) for v in fields[11:15])
    return (utime + stime) / tick, (utime + stime + cutime + cstime) / tick


def _start_server(data_dir: str, env, log):
    """``repro serve`` as README runs it; returns (proc, client, seconds)."""
    from repro.service.client import ServiceClient

    started = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--data-dir", data_dir,
            "--jobs", str(WORKERS), "--quota-rate", "1000",
            "--quota-burst", "1000",
        ],
        cwd=ROOT, env=env, stdout=log, stderr=log,
    )
    ready = os.path.join(data_dir, "service.json")
    while True:
        if proc.poll() is not None:
            raise BenchmarkError(f"repro serve exited {proc.returncode} at start-up")
        try:
            client = ServiceClient.from_ready_file(ready, timeout=CAMPAIGN_TIMEOUT)
            if client.request("GET", "/healthz")[0] == 200:
                return proc, client, time.perf_counter() - started
        except (OSError, ValueError, KeyError):
            pass  # not listening yet, or the ready file is half-written
        if time.perf_counter() - started > CAMPAIGN_TIMEOUT:
            _kill(proc)
            raise BenchmarkError("repro serve never answered /healthz")
        time.sleep(0.005)


def _kill(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _drain(proc) -> int:
    """SIGTERM: the graceful drain; returns the exit code."""
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=CAMPAIGN_TIMEOUT)
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise BenchmarkError("repro serve did not drain after SIGTERM")


@dataclass
class _Submission:
    """One plan a tenant submitted, as the client saw it."""

    tenant: str
    plan: dict
    round: int
    traced: bool
    #: Seconds from submit to the last results read.
    busy: float = 0.0
    submitted: float = 0.0
    submit_s: float = 0.0
    campaign_id: str = ""
    total: int = 0
    #: (arrival time, event) per SSE frame.
    frames: List[Tuple[float, dict]] = field(default_factory=list)
    finished: float = 0.0
    results_s: float = 0.0
    requests: int = 0
    error: str = ""

    def job_frames(self, prefix: str = "job-") -> List[float]:
        return [
            t for t, event in self.frames
            if str(event.get("kind", "")).startswith(prefix)
        ]


def _span(spans: Spans, traced: bool, name: str):
    return spans.span(name) if traced else contextlib.nullcontext()


def _drive(client, sub: _Submission, spans: Spans) -> None:
    """Submit -> SSE to the final frame -> GET /results."""
    from repro.service.client import ServiceError

    try:
        with _span(spans, sub.traced, "service.campaign"):
            sub.submitted = time.perf_counter()
            with _span(spans, sub.traced, "http.submit"):
                status, payload = client.submit(sub.plan, sub.tenant)
            sub.submit_s = time.perf_counter() - sub.submitted
            sub.requests += 1
            if status != 202:
                sub.error = f"submit answered {status}: {payload}"
                return
            sub.campaign_id, sub.total = payload["id"], payload["total"]
            sub.requests += 1
            with _span(spans, sub.traced, "sse.stream"):
                for frame in client.stream(sub.campaign_id, timeout=CAMPAIGN_TIMEOUT):
                    sub.frames.append((time.perf_counter(), frame["event"]))
            final = sub.frames[-1][1] if sub.frames else {}
            if not final.get("final") or final.get("state") != "done":
                sub.error = f"campaign {sub.campaign_id} ended with {final}"
                return
            sub.finished = sub.frames[-1][0]
            sub.requests += 1
            started = time.perf_counter()
            with _span(spans, sub.traced, "http.results"):
                results = client.results(sub.campaign_id)
            sub.results_s = time.perf_counter() - started
            if len(results) != sub.total:
                sub.error = (
                    f"GET /results for {sub.campaign_id} returned "
                    f"{len(results)} of {sub.total} results"
                )
    except (ServiceError, OSError, KeyError, ValueError) as exc:
        sub.error = f"{type(exc).__name__}: {exc}"


class _Rounds:
    """Rounds of one campaign per tenant, with a host probe between them."""

    def __init__(self, deadline: float, minimum: int):
        #: One sample per completed round (its jobs are counted later).
        self.samples: List[Sample] = []
        self.stop = False
        self._probed = Probed()
        self._deadline = deadline
        self._minimum = minimum
        self._barrier = threading.Barrier(TENANTS, action=self._between)
        self._started = time.perf_counter()

    def _between(self) -> None:
        # Runs in one tenant thread while the others wait: the server
        # is idle, so the probe sees only the host.
        wall = time.perf_counter() - self._started
        self.samples.append(self._probed.sample(0, wall))
        self.stop = not another(self._deadline, wall, len(self.samples), self._minimum)
        self._started = time.perf_counter()

    def wait(self) -> None:
        self._barrier.wait()

    def abort(self) -> None:
        self._barrier.abort()


def _tenant_loop(client, tenant, rng, rounds, runs, trace, spans, out) -> None:
    """Submit, stream, read back, wait for the other tenant; repeat.

    A traced run alternates untraced and traced rounds, so it runs at
    least one of each.
    """
    try:
        while not rounds.stop:
            sub = _Submission(
                tenant=tenant,
                plan={
                    "kind": "fuzz", "version": FUZZ_VERSION,
                    "components": list(FUZZ_COMPONENTS), "runs": runs,
                    "seed": rng.getrandbits(31),
                },
                round=len(out),
                traced=trace and len(out) % 2 == 1,
            )
            started = time.perf_counter()
            _drive(client, sub, spans)
            sub.busy = time.perf_counter() - started
            out.append(sub)
            if sub.error:
                rounds.abort()
                return
            rounds.wait()
    except threading.BrokenBarrierError:
        return  # the other tenant failed; its error is recorded


def run_service(seed, seconds, trace, sizes, workdir, spans, log) -> Measured:
    from repro.service import compact_data_dir, iter_shards

    rng = random.Random(f"{SERVICE_WORKLOAD}:{seed}")
    out = Measured(
        workload=SERVICE_WORKLOAD,
        load={"threads": TENANTS, "connections": TENANTS},
    )
    env = child_env()
    setups = []
    cold = 1 if trace else sizes.cold_starts
    # The last cold-started server stays up and serves the workload.
    for index in range(cold):
        data_dir = os.path.join(workdir, f"service-{index}")
        children_cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
        proc, client, elapsed = _start_server(data_dir, env, log)
        setups.append(elapsed)
        if index < cold - 1 and _drain(proc) != 0:
            raise BenchmarkError("repro serve exited non-zero after a cold start")

    subs: Dict[str, List[_Submission]] = {}
    try:
        # CPU the server spent starting up is not the workload's.
        server_self_before, server_cpu_before = _proc_cpu(proc.pid)
        client_cpu = cpu_seconds(resource.RUSAGE_SELF)
        rounds = _Rounds(time.perf_counter() + seconds, 2 if trace else 1)
        threads = []
        for index in range(TENANTS):
            tenant = f"tenant-{index}"
            subs[tenant] = []
            threads.append(threading.Thread(
                target=_tenant_loop,
                args=(
                    client, tenant, random.Random(rng.getrandbits(64)), rounds,
                    sizes.service_runs, trace, spans, subs[tenant],
                ),
                name=f"perf-{tenant}",
                daemon=True,  # never keeps a failed run's process alive
            ))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 4 * CAMPAIGN_TIMEOUT)
        if any(thread.is_alive() for thread in threads):
            rounds.abort()
            raise BenchmarkError("a tenant thread did not finish its last campaign")
        server_self_after, _ = _proc_cpu(proc.pid)
        code = _drain(proc)
    finally:
        _kill(proc)
    client_cpu = cpu_seconds(resource.RUSAGE_SELF) - client_cpu
    server_cpu = (
        cpu_seconds(resource.RUSAGE_CHILDREN) - children_cpu - server_cpu_before
    )

    probed = Probed()
    started = time.perf_counter()
    report = compact_data_dir(data_dir)
    compaction = probed.sample(0, time.perf_counter() - started)
    rss = peak_rss_mb()

    # -- correctness: drain exit 0, every job done, counts agree, sample
    everyone = [sub for tenant in sorted(subs) for sub in subs[tenant]]
    done = [sub for sub in everyone if not sub.error]
    out.errors.extend(sub.error for sub in everyone if sub.error)
    if code != 0:
        out.errors.append(f"repro serve exited {code} after SIGTERM")
    total_jobs = sum(sub.total for sub in done)
    pairs = []
    walls: Dict[str, List[float]] = {}
    for _tenant, campaign_id, path in iter_shards(data_dir):
        with ResultStore(path) as store:
            summary = store.summary()
            pairs.extend(store.payloads())
        walls[campaign_id] = worker_walls(path)
        out.failed += summary.total - summary.done
        if summary.done != summary.total:
            out.errors.append(f"campaign {campaign_id}: {summary.render()}")
    if len(pairs) != total_jobs or report.ok != total_jobs or report.failed:
        out.errors.append(
            f"{len(pairs)} shard results and {report.ok} compacted for "
            f"{total_jobs} jobs acknowledged over HTTP"
        )
    if not done:
        raise BenchmarkError("no service campaign completed: " + "; ".join(out.errors))
    out.errors.extend(gate(pairs, rng, sizes.gate))
    out.attempted = total_jobs + sum(sub.requests for sub in everyone)
    out.failed += len(everyone) - len(done)
    out.sizes = {
        "jobs_per_campaign": done[0].total,
        "campaigns": len(everyone),
        "jobs": total_jobs,
    }
    if out.errors:
        return out  # no metrics for a run whose outputs are wrong

    campaigns = [
        Sample(sub.total, sub.finished - sub.submitted, rounds.samples[sub.round].probes)
        for sub in done
    ]
    jobs_by_round: Dict[int, int] = {}
    for sub in done:
        jobs_by_round[sub.round] = jobs_by_round.get(sub.round, 0) + sub.total
    throughput = [
        Sample(jobs_by_round[index], r.wall, r.probes)
        for index, r in enumerate(rounds.samples)
    ] + [compaction]
    if not trace:
        record_end_to_end(out, throughput, campaigns, setups, rss)
        return out

    out.campaign_s = [c.wall for c in campaigns]
    out.host_factor = [c.host_factor for c in campaigns]
    traced = [sub for sub in done if sub.traced]
    layer = out.per_layer
    # The lock-step rounds' cost to the load: time a tenant spent
    # waiting for the other one, as a share of all tenant time.
    round_walls = sum(r.wall for r in rounds.samples)
    layer["tenants.wait_share"] = (
        1.0 - sum(sub.busy for sub in done) / (TENANTS * round_walls),
        "fraction", len(rounds.samples),
    )
    layer["http.submit_ms"] = (
        median([sub.submit_s for sub in traced]) * 1e3, "ms", len(traced)
    )
    layer["http.results_ms"] = (
        median([sub.results_s for sub in traced]) * 1e3, "ms", len(traced)
    )
    # Job-started frames go out as jobs are queued to still-booting
    # workers, so the pool is up when the first job *finishes*.
    layer["sse.pool_start_ms"] = (
        median([
            sub.job_frames("job-finished")[0]
            - next(t for t, e in sub.frames if e.get("kind") == "campaign-started")
            for sub in traced
        ]) * 1e3,
        "ms", len(traced),
    )
    layer["sse.final_lag_ms"] = (
        median([sub.finished - sub.job_frames()[-1] for sub in traced]) * 1e3,
        "ms", len(traced),
    )
    layer["pool.first_result_ms"] = (
        median([
            sub.job_frames("job-finished")[0] - sub.submitted for sub in traced
        ]) * 1e3,
        "ms", len(traced),
    )
    execs = [w for values in walls.values() for w in values]
    layer["pool.worker_exec_ms_p50"] = (median(execs) * 1e3, "ms", len(execs))
    layer["pool.slot_idle_ms_per_job"] = (
        median([
            (
                (sub.finished - sub.submitted) * WORKERS
                - sum(walls[sub.campaign_id])
            ) / sub.total
            for sub in done
        ]) * 1e3,
        "ms", len(done),
    )
    layer["pool.parent_cpu_ms_per_job"] = (
        (server_self_after - server_self_before) / total_jobs * 1e3, "ms", 1
    )
    layer["cpu.total_ms_per_job"] = (
        (client_cpu + server_cpu) / total_jobs * 1e3, "ms", 1
    )
    layer["shards.compact_s"] = (compaction.wall, "s", 1)
    layer["trace.overhead_pct"] = (
        overhead_pct(
            [c for c, sub in zip(campaigns, done) if not sub.traced],
            [c for c, sub in zip(campaigns, done) if sub.traced],
        ),
        "%", len(done),
    )
    layer.update(_server_replays(data_dir, done, pairs, workdir, spans))
    sample = rng.sample(pairs, min(sizes.replay, len(pairs)))
    sizes_seen, mismatches = replay_jobs(sample, snapshot_cache=False, spans=spans)
    out.errors.extend(mismatches)
    layer.update(replay_metrics(spans, sizes_seen))
    return out


def _server_replays(data_dir, done, pairs, workdir, spans):
    """In-process replays of the server-side layers a client cannot time.

    Plan expansion, journal appends, event-log appends and the shard
    store's commit sequence run here on the inputs the server saw, in
    the order it saw them, against files in the benchmark's scratch
    directory.
    """
    from repro.service import (
        EventStream,
        ServiceJournal,
        canonical_plan,
        expand_plan,
        read_jsonl,
    )
    from repro.service.shards import event_log_path

    layer: Dict[str, Tuple[float, str, int]] = {}
    with timed_planners(spans):
        for sub in done:
            with spans.span("plans.expand"):
                expand_plan(canonical_plan(dict(sub.plan)))
    selfs = spans.by_name()
    for metric, name in (("plans.expand_ms", "plans.expand"), ("jobs.plan_ms", "jobs.plan")):
        layer[metric] = (median(selfs[name]) * 1e3, "ms", len(selfs[name]))

    records, _good = read_jsonl(os.path.join(data_dir, "journal.jsonl"))
    layer["journal.records_per_campaign"] = (len(records) / len(done), "count", len(done))
    journal = ServiceJournal(os.path.join(workdir, "replay-journal.jsonl"))
    try:
        for record in records:
            fields = {k: v for k, v in record.items() if k not in ("seq", "type", "at")}
            with spans.span("journal.append"):
                journal.append(record["type"], **fields)
    finally:
        journal.close()
    appends = spans.by_name()["journal.append"]
    layer["journal.append_ms"] = (median(appends) * 1e3, "ms", len(appends))

    logs = [
        read_jsonl(event_log_path(data_dir, sub.tenant, sub.campaign_id))[0]
        for sub in done
    ]
    layer["events.per_campaign"] = (
        float(median([len(log) for log in logs])), "count", len(logs)
    )
    stream = EventStream(os.path.join(workdir, "replay-events.jsonl"), lambda: None)
    try:
        for record in logs[0]:
            with spans.span("events.append"):
                stream.append(record["event"])
    finally:
        stream.close()
    appends = spans.by_name()["events.append"]
    layer["events.append_us"] = (median(appends) * 1e6, "us", len(appends))

    # The shard store's commit sequence as the server's pool drives it:
    # register the plan, then per job mark running, log the attempt,
    # record the result.
    payload_of = {spec.job_id: payload for spec, payload in pairs}
    replayed = 0
    for index, sub in enumerate(done[:2]):
        specs = expand_plan(canonical_plan(dict(sub.plan)))
        store = TimedStore(os.path.join(workdir, f"replay-store-{index}.sqlite"), spans)
        try:
            store.register(specs)
            for spec in specs:
                store.mark_running(spec.job_id)
                store.record_attempt(spec.job_id, 0, "done", "", 0.0)
                store.record_success(spec.job_id, payload_of[spec.job_id], 0.0)
                replayed += 1
        finally:
            store.close()
    layer.update(store_metrics(spans, replayed))
    return layer
