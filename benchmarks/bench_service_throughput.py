"""Extension experiment — campaign-service overhead and shed behaviour.

Runs the same fuzz-trial workload twice: straight on a worker pool
(the execution floor) and through the full campaign service stack —
admission control, fsynced journal acks, per-campaign shard stores,
event streams — with several tenants submitting concurrently.  The
difference is the price of crash-safety and multi-tenancy; the
invariant is that the price buys no divergence: both paths compact to
the same byte-identical aggregate store.

A second table measures the back-pressure path: a burst of
submissions against a tight quota, counting how many are admitted
versus shed with 429 + Retry-After.  Shedding is the service's
overload story, so the benchmark asserts the split exactly.

Both timed paths start their workers from the same warm state: one
untimed warm-up pool runs first and pays the process-wide one-time
cost (booting the stdlib forkserver that every later
:class:`~repro.runner.pool.WorkerPool` forks its workers from).
Without it the path that happens to run first carries that boot and
the ratio mostly measures run order.

The archived artefact is JSON with a fixed schema
(``benchmarks/output/service_throughput.json``) plus its rendered
table (``service_throughput.txt``).  Its ``host`` object records
``os.cpu_count()``, the CPUs this process may run on, the Python
version and the worker pool's start method; absolute rates vary with
the host, the parity verdict and shed counts must not.

Run directly for the full matrix (the CI artifact)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py

or through pytest-benchmark for the reduced matrix::

    pytest benchmarks/bench_service_throughput.py -s
"""

import json
import os
import pathlib
import platform
import shutil
import tempfile
import time

from repro.runner import WorkerPool, plan_fuzz
from repro.runner.pool import pool_context
from repro.service import (
    QuotaConfig,
    ServiceConfig,
    Supervisor,
    compact,
    compact_data_dir,
)

ROOT_SEED = 20230701
VERSION = "4.13"
RUNS_PER_COMPONENT = 8  # 5 components -> 40 jobs per campaign
TENANTS = ("alice", "bob", "charlie")
OUTPUT_PATH = pathlib.Path(__file__).parent / "output" / "service_throughput.json"


def _plan(seed):
    return {
        "kind": "fuzz",
        "version": VERSION,
        "runs": RUNS_PER_COMPONENT,
        "seed": seed,
    }


def _warm_up():
    """Untimed: pay the one-time worker start-up cost before timing."""
    outcome = WorkerPool(jobs=2).run(plan_fuzz(VERSION, ["idt"], 2, ROOT_SEED - 1))
    assert not outcome.failures, outcome.failures


def _direct_baseline(workdir):
    """The execution floor: the same jobs on a bare worker pool."""
    specs = []
    for offset, _tenant in enumerate(TENANTS):
        from repro.core.fuzz import default_components

        names = [component.name for component in default_components()]
        specs.extend(
            plan_fuzz(VERSION, names, RUNS_PER_COMPONENT, ROOT_SEED + offset)
        )
    from repro.runner import ResultStore

    store_path = str(pathlib.Path(workdir) / "direct.sqlite")
    started = time.perf_counter()
    with ResultStore(store_path) as store:
        store.register(specs)
        outcome = WorkerPool(jobs=2).run(specs, store=store)
    elapsed = time.perf_counter() - started
    assert not outcome.failures, outcome.failures
    out = str(pathlib.Path(workdir) / "direct-compacted.sqlite")
    report = compact([store_path], out)
    return len(specs), elapsed, report.sha256


def _through_service(workdir):
    """The same jobs submitted per-tenant through the supervisor."""
    data_dir = str(pathlib.Path(workdir) / "service")
    config = ServiceConfig(
        data_dir=data_dir,
        jobs=2,
        quota=QuotaConfig(rate=1000, burst=1000, max_active=2),
    )
    supervisor = Supervisor(config)
    campaign_ids = []
    started = time.perf_counter()
    try:
        for offset, tenant in enumerate(TENANTS):
            status, payload = supervisor.submit(_plan(ROOT_SEED + offset), tenant)
            assert status == 202, payload
            campaign_ids.append(payload["id"])
        assert supervisor.run_until_idle(600)
        elapsed = time.perf_counter() - started
        events = 0
        total_jobs = 0
        for cid in campaign_ids:
            final = supervisor.status(cid)
            assert final["state"] == "done", final
            total_jobs += final["total"]
            events += len(supervisor.stream(cid).read(0))
    finally:
        supervisor.close()
    report = compact_data_dir(data_dir)
    return total_jobs, elapsed, events, report.sha256


def _shed_burst(workdir, burst, submissions):
    """Back-pressure: a tight bucket against a submission storm."""
    data_dir = str(pathlib.Path(workdir) / f"shed-{burst}-{submissions}")
    config = ServiceConfig(
        data_dir=data_dir,
        quota=QuotaConfig(rate=0.001, burst=burst),
    )
    supervisor = Supervisor(config)
    admitted = shed = 0
    retry_after_ok = True
    try:
        for index in range(submissions):
            status, payload = supervisor.submit(
                _plan(90000 + burst * 1000 + index), "storm"
            )
            if status == 202:
                admitted += 1
            elif status == 429:
                shed += 1
                retry_after_ok = retry_after_ok and payload["retry_after"] > 0
            else:
                raise AssertionError((status, payload))
        supervisor.run_until_idle(600)
    finally:
        supervisor.close()
    return {
        "burst": burst,
        "submissions": submissions,
        "admitted": admitted,
        "shed_429": shed,
        "retry_after_present": retry_after_ok,
    }


def build_report(shed_cases=((2, 8), (4, 8))):
    workdir = tempfile.mkdtemp(prefix="bench-service-")
    try:
        _warm_up()
        direct_jobs, direct_wall, direct_sha = _direct_baseline(workdir)
        svc_jobs, svc_wall, events, svc_sha = _through_service(workdir)
        shed_rows = [
            _shed_burst(workdir, burst, submissions)
            for burst, submissions in shed_cases
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": {
            "version": VERSION,
            "tenants": list(TENANTS),
            "jobs": direct_jobs,
            "root_seed": ROOT_SEED,
        },
        "host": {
            "cpu_count": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "pool_start_method": pool_context().get_start_method(),
        },
        "direct": {
            "wall_s": round(direct_wall, 3),
            "jobs_per_s": round(direct_jobs / direct_wall, 1),
            "sha256": direct_sha,
        },
        "service": {
            "wall_s": round(svc_wall, 3),
            "jobs_per_s": round(svc_jobs / svc_wall, 1),
            "events_streamed": events,
            "sha256": svc_sha,
        },
        "overhead_ratio": round(svc_wall / direct_wall, 2),
        "parity": direct_sha == svc_sha,
        "shedding": shed_rows,
    }


def render(report):
    host = report["host"]
    lines = [
        f"campaign service vs bare pool on Xen {report['workload']['version']} "
        f"fuzz trials ({report['workload']['jobs']} jobs, "
        f"{len(report['workload']['tenants'])} tenants; "
        f"pool start method: {host['pool_start_method']}, "
        f"{host['cpus_available']}/{host['cpu_count']} CPUs, "
        f"Python {host['python']})",
        f"{'path':<16}{'wall (s)':<10}{'jobs/s':<9}{'sha256[:12]'}",
        "-" * 52,
        f"{'bare pool':<16}{report['direct']['wall_s']:<10.3f}"
        f"{report['direct']['jobs_per_s']:<9.1f}"
        f"{report['direct']['sha256'][:12]}",
        f"{'service':<16}{report['service']['wall_s']:<10.3f}"
        f"{report['service']['jobs_per_s']:<9.1f}"
        f"{report['service']['sha256'][:12]}",
        "",
        f"overhead ratio: {report['overhead_ratio']}x   "
        f"events streamed: {report['service']['events_streamed']}   "
        f"parity: {'ok' if report['parity'] else 'DIVERGED'}",
        "",
        f"{'burst':<7}{'submitted':<11}{'admitted':<10}{'shed 429':<10}"
        f"{'retry-after'}",
        "-" * 49,
    ]
    for row in report["shedding"]:
        lines.append(
            f"{row['burst']:<7}{row['submissions']:<11}{row['admitted']:<10}"
            f"{row['shed_429']:<10}"
            f"{'ok' if row['retry_after_present'] else 'MISSING'}"
        )
    return "\n".join(lines)


def write_artifact(report, path=OUTPUT_PATH):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    path.with_suffix(".txt").write_text(render(report) + "\n")
    return path


def check_report(report):
    """The claims the artefact must support, host speed aside."""
    assert report["parity"], (
        "the service path diverged from the bare pool: "
        f"{report['direct']['sha256']} != {report['service']['sha256']}"
    )
    assert report["service"]["events_streamed"] > report["workload"]["jobs"], (
        "every job must produce at least one streamed event"
    )
    for row in report["shedding"]:
        assert row["admitted"] == row["burst"], row
        assert row["shed_429"] == row["submissions"] - row["burst"], row
        assert row["retry_after_present"], row


def test_service_throughput(benchmark):
    """pytest-benchmark entry: reduced shed matrix, full parity checking."""
    from benchmarks.conftest import publish

    report = benchmark.pedantic(
        build_report,
        kwargs={"shed_cases": ((2, 6),)},
        rounds=1,
        iterations=1,
    )
    check_report(report)
    publish("service_throughput", render(report))


def main():
    report = build_report()
    check_report(report)
    path = write_artifact(report)
    print(render(report))
    print(f"\nartifact: {path}")


if __name__ == "__main__":
    main()
