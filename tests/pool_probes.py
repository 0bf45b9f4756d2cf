"""Picklable job functions that report on a pool worker's own state.

Kept in a module of their own, importing nothing from ``repro`` but
the preload list: a worker unpickling one of these must not import
the test modules (and through them most of the package), or the
preload probe would see modules the forkserver never loaded.
"""

import sys
import time

from repro.runner.jobs import WORKER_PRELOAD

#: Rebound by a test in the parent; a worker must still read this.
MARKER = "pristine"

#: CPU seconds each :func:`burn_cpu` job spends.
BURN_CPU_S = 0.2


def report_preloaded(spec, attempt):
    """Which preload modules were imported before this job started."""
    return {"loaded": sorted(m for m in WORKER_PRELOAD if m in sys.modules)}


def report_marker(spec, attempt):
    """The worker's view of :data:`MARKER`."""
    return {"marker": MARKER}


def burn_cpu(spec, attempt):
    """Spend :data:`BURN_CPU_S` of this worker's CPU time."""
    started = time.process_time()
    while time.process_time() - started < BURN_CPU_S:
        pass
    return {}


def report_new_imports(cached, spec, attempt):
    """Which ``repro`` modules real jobs import inside a warm worker.

    Runs a classic fuzz trial, a default-topology matrix cell, a
    cross-domain cell, a benchmark case, a test case and a synthetic
    corpus trial through the configuration's executor
    (``execute_job_cached`` when ``cached``, else ``execute_job``) and
    reports every ``repro.*`` module that was not loaded when this job
    began: what a worker still imports after its fork point.
    """
    before = {name for name in sys.modules if name.startswith("repro")}
    from repro.core.topology import CROSS_DOMAIN_TOPOLOGY
    from repro.runner.forkserver import execute_job_cached
    from repro.runner.jobs import (
        JobSpec,
        execute_job,
        plan_benchmark,
        plan_campaign,
        plan_fuzz,
        plan_testcases,
    )

    run = execute_job_cached if cached else execute_job
    jobs = (
        plan_fuzz("4.13", ["idt"], 1, 7)
        + plan_campaign(["XSA-212-crash"], ["4.6"], ["exploit"])
        + plan_campaign(
            ["xdom-ring-tamper"], ["4.6"], ["exploit"],
            topology=CROSS_DOMAIN_TOPOLOGY.spec_value(),
        )
        + plan_benchmark(["interrupt-storm"], ["4.13"])
        + plan_testcases(["xsa-182-test"], "4.8")
        + [
            JobSpec(
                kind="fuzz-trial", use_case="syn-2023-0003-bounds-error",
                version="4.6", mode="bitflip", seed=3, trial=0, metrics=True,
            )
        ]
    )
    for job in jobs:
        run(job, 0)
    return {
        "imported": sorted(
            name for name in sys.modules
            if name.startswith("repro") and name not in before
        )
    }
