"""Extension experiment — campaign execution-engine scaling curve.

Runs the same §IV-C fuzz-trial job set through every execution engine
the repository ships — the serial in-process loop, the per-campaign
worker pool, and the persistent snapshot-cached fork-server — across
campaign sizes (30 / 300 / 3000 jobs) and fork-server worker counts
(1 / 2 / 4 / 8).  Because every trial derives a private RNG seed from
the campaign root, all engines must produce byte-identical payloads;
the curve measures pure execution-engine overhead.

What the curve shows:

* the ``worker-pool`` row (a 4-worker :class:`WorkerPool`, timed
  after an untimed warm-up pool has booted the stdlib forkserver its
  workers fork from) measures the per-campaign pool cost: starting
  four workers, a testbed boot and a pipe round trip per job, and the
  teardown.  It still loses to serial on the 30-job campaign, 105.2 vs
  126.4 jobs/s in the archived run (0.29 s vs 0.24 s);
* the fork-server beats serial even at 30 jobs (fork start is ~2ms and
  trials restore a cached checkpoint instead of booting a testbed);
* fork-server throughput is not near-linear in workers.  The archived
  curve comes from a 2-CPU host: at 3000 jobs, 1 -> 2 workers went
  1143.1 -> 1799.1 jobs/s, and 4 and 8 workers on the same two CPUs
  gave 2021.8 and 2431.4.  Repeated runs on that host spread widely
  (2 workers 1268-1545, 8 workers 1329-1428 jobs/s in two more
  passes), so read a single curve against the ``host`` block it
  records, not as a scaling law.  Curves archived before the typed
  frame-table restore measured 1 -> 2 workers as 296.6 -> 571.9,
  322.6 -> 325.6, 335.0 -> 506.1 and 299.0 -> 597.9.

Beside the curve, ``restore_vs_boot`` records the layer the
fork-server's speed rests on: the median in-process
:meth:`~repro.core.checkpoint.TestbedCheckpoint.restore` of a bed a
trial has just dirtied (digest verification included) against the
median :func:`~repro.core.testbed.build_testbed` cold boot, in ms, with
the sample count.  The check asserts restore < boot.

The archived artefact is JSON with a fixed schema and canonical key
order (``benchmarks/output/runner_throughput.json``) plus its rendered
table (``runner_throughput.txt``).  Its ``host`` object records
``os.cpu_count()``, the CPUs this process may run on, the Python
version, the fork-server's start method and the start method of the
``worker-pool`` row's :class:`~repro.runner.pool.WorkerPool`
(``forkserver``); absolute rates vary with
the host, the schema and the parity verdicts must not.

Run directly for the full matrix (the CI artifact)::

    PYTHONPATH=src python benchmarks/bench_runner_throughput.py

or through pytest-benchmark for the reduced matrix::

    pytest benchmarks/bench_runner_throughput.py -s
"""

import json
import os
import pathlib
import platform
import statistics
import time

from repro.core.checkpoint import TestbedCheckpoint
from repro.core.fuzz import RandomErroneousStateCampaign
from repro.core.testbed import build_testbed
from repro.runner import ForkServerPool, SerialRunner, WorkerPool, plan_fuzz
from repro.runner.forkserver import preferred_context
from repro.runner.pool import pool_context
from repro.xen.versions import version_by_name

ROOT_SEED = 20230701
VERSION = "4.13"
COMPONENTS = ["idt", "shared-pud", "m2p", "victim-pagetables", "victim-data"]
SIZES = (30, 300, 3000)
WORKER_COUNTS = (1, 2, 4, 8)
#: Timed restores, and timed cold boots, behind ``restore_vs_boot``.
RESTORE_SAMPLES = 200
OUTPUT_PATH = pathlib.Path(__file__).parent / "output" / "runner_throughput.json"


def _specs(total):
    assert total % len(COMPONENTS) == 0
    return plan_fuzz(
        VERSION, COMPONENTS, total // len(COMPONENTS), ROOT_SEED
    )


def _measure(runner, specs):
    started = time.perf_counter()
    outcome = runner.run(specs)
    elapsed = time.perf_counter() - started
    assert not outcome.failures, outcome.failures
    payloads = [outcome.results[s.job_id] for s in specs]
    return elapsed, payloads


def _entry(mode, workers, specs, elapsed, parity, stats=None):
    total = len(specs)
    entry = {
        "mode": mode,
        "workers": workers,
        "jobs": total,
        "wall_s": round(elapsed, 3),
        "jobs_per_s": round(total / elapsed, 1),
        "jobs_per_s_per_worker": round(total / elapsed / max(workers, 1), 1),
        "parity": parity,
    }
    if stats is not None:
        entry["snapshot_restores"] = stats.get("forkserver.restores", 0)
        entry["cold_boots"] = (
            stats.get("forkserver.captures", 0)
            + stats.get("forkserver.cold_boots", 0)
        )
        entry["workers_recycled"] = stats.get(
            "forkserver.workers.recycled", 0
        )
    return entry


def _median_ms(samples):
    return round(statistics.median(samples) * 1000, 3)


def measure_restore_vs_boot(samples=RESTORE_SAMPLES):
    """Median restore of a trial-dirtied bed vs median cold boot (ms).

    Each restore follows one fuzz trial on the same bed, so it rewrites
    what a fork-server restore rewrites and pays the same digest check.
    """
    version = version_by_name(VERSION)
    campaign = RandomErroneousStateCampaign(version)
    bed = build_testbed(version)
    checkpoint = TestbedCheckpoint.capture(bed)
    restores = []
    for spec in _specs(samples):
        component = campaign.component_by_name(spec.use_case)
        campaign.run_trial_on(bed, component, spec.seed)
        started = time.perf_counter()
        checkpoint.restore(bed)
        restores.append(time.perf_counter() - started)
    boots = []
    for _ in range(samples):
        started = time.perf_counter()
        build_testbed(version)
        boots.append(time.perf_counter() - started)
    return {
        "samples": samples,
        "restore_ms_p50": _median_ms(restores),
        "boot_ms_p50": _median_ms(boots),
    }


def build_curve(sizes=SIZES, worker_counts=WORKER_COUNTS):
    """The scaling matrix: serial and worker-pool baselines + fork-server curve."""
    matrix = []
    reference = {}
    for total in sizes:
        specs = _specs(total)
        elapsed, payloads = _measure(SerialRunner(), specs)
        reference[total] = payloads
        matrix.append(_entry("serial", 1, specs, elapsed, parity=True))

    # A per-campaign pool on the smallest campaign.  The warm-up pays
    # the process's one-time forkserver boot, so the timed pool
    # measures what every later campaign pays.
    small = min(sizes)
    specs = _specs(small)
    _measure(WorkerPool(jobs=4), specs)
    elapsed, payloads = _measure(WorkerPool(jobs=4), specs)
    matrix.append(
        _entry("worker-pool", 4, specs, elapsed,
               parity=payloads == reference[small])
    )

    for total in sizes:
        specs = _specs(total)
        for workers in worker_counts:
            pool = ForkServerPool(jobs=workers)
            elapsed, payloads = _measure(pool, specs)
            matrix.append(
                _entry("fork-server", workers, specs, elapsed,
                       parity=payloads == reference[total],
                       stats=pool.stats)
            )
    return {
        "campaign": {
            "version": VERSION,
            "components": COMPONENTS,
            "root_seed": ROOT_SEED,
        },
        "host": {
            "cpu_count": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "start_method": preferred_context(),
            "pool_start_method": pool_context().get_start_method(),
        },
        "matrix": matrix,
        "restore_vs_boot": measure_restore_vs_boot(),
    }


def render(curve):
    host = curve["host"]
    lines = [
        "campaign execution engines on Xen "
        f"{curve['campaign']['version']} fuzz trials "
        f"(start method: {host['start_method']}, "
        f"worker-pool start method: {host['pool_start_method']}, "
        f"{host['cpus_available']}/{host['cpu_count']} CPUs, "
        f"Python {host['python']})",
        f"{'mode':<14}{'workers':<9}{'jobs':<7}{'wall (s)':<10}"
        f"{'jobs/s':<9}{'jobs/s/worker':<15}{'parity'}",
        "-" * 72,
    ]
    for row in curve["matrix"]:
        lines.append(
            f"{row['mode']:<14}{row['workers']:<9}{row['jobs']:<7}"
            f"{row['wall_s']:<10.3f}{row['jobs_per_s']:<9.1f}"
            f"{row['jobs_per_s_per_worker']:<15.1f}"
            f"{'ok' if row['parity'] else 'DIVERGED'}"
        )
    layer = curve["restore_vs_boot"]
    lines.append(
        f"\nverified checkpoint restore {layer['restore_ms_p50']:.3f} ms vs "
        f"cold boot {layer['boot_ms_p50']:.3f} ms "
        f"(medians of {layer['samples']} each)"
    )
    return "\n".join(lines)


def write_artifact(curve, path=OUTPUT_PATH):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(curve, indent=2, sort_keys=True) + "\n")
    path.with_suffix(".txt").write_text(render(curve) + "\n")
    return path


def _rows(curve, mode, jobs=None):
    return [
        row for row in curve["matrix"]
        if row["mode"] == mode and (jobs is None or row["jobs"] == jobs)
    ]


def check_curve(curve):
    """The claims the artefact must support, host speed aside."""
    assert all(row["parity"] for row in curve["matrix"]), (
        "an execution engine diverged from the serial reference"
    )
    smallest = min(row["jobs"] for row in curve["matrix"])
    serial_small = _rows(curve, "serial", smallest)[0]
    fork_small = max(
        _rows(curve, "fork-server", smallest),
        key=lambda row: row["jobs_per_s"],
    )
    assert fork_small["jobs_per_s"] > serial_small["jobs_per_s"], (
        f"fork-server ({fork_small['jobs_per_s']} jobs/s) must beat "
        f"serial ({serial_small['jobs_per_s']} jobs/s) on the "
        f"{smallest}-job campaign"
    )
    for row in _rows(curve, "fork-server"):
        if row["jobs"] >= 300:
            assert row["snapshot_restores"] > 0, (
                "fork-server ran a large campaign without its cache"
            )
    layer = curve["restore_vs_boot"]
    assert layer["restore_ms_p50"] < layer["boot_ms_p50"], (
        f"a checkpoint restore ({layer['restore_ms_p50']} ms) must beat a "
        f"cold boot ({layer['boot_ms_p50']} ms)"
    )


def test_runner_throughput(benchmark):
    """pytest-benchmark entry: reduced matrix, full parity checking."""
    from benchmarks.conftest import publish

    curve = benchmark.pedantic(
        build_curve,
        kwargs={"sizes": (30, 300), "worker_counts": (1, 4)},
        rounds=1,
        iterations=1,
    )
    check_curve(curve)
    publish("runner_throughput", render(curve))


def main():
    curve = build_curve()
    check_curve(curve)
    path = write_artifact(curve)
    print(render(curve))
    print(f"\nartifact: {path}")


if __name__ == "__main__":
    main()
