"""One cold start of an engine workload, in a fresh interpreter.

Run as ``python -m benchmarks.perf.coldstart WORKLOAD DIR RUNS``.  It
imports ``repro.cli`` as every CLI invocation does, builds the
workload's engine and store, plans a full campaign and prints
``first-job`` the moment the first job finishes; the parent times
process start to that line.  The campaign then stops as an
interrupted one would.
"""

from __future__ import annotations

import os
import sys


def main(argv) -> int:
    workload, workdir, runs = argv[0], argv[1], int(argv[2])
    import repro.cli  # noqa: F401  (the import state of a CLI invocation)
    from repro.runner import ResultStore
    from repro.runner.events import JOB_FINISHED
    from repro.runner.pool import CampaignInterrupted

    from benchmarks.perf.workloads import Sizes, make_engine, run_campaign

    announced: list = []

    def on_event(event) -> None:
        if event.kind == JOB_FINISHED and not announced:
            announced.append(event.job_id)
            print("first-job", flush=True)
            runner.request_stop()

    runner = make_engine(workload, on_event)
    store = ResultStore(os.path.join(workdir, "store.sqlite"))
    try:
        run_campaign(
            workload, runner, Sizes(fork_runs=runs, serial_runs=runs), 1, store
        )
    except CampaignInterrupted:
        pass
    finally:
        store.close()
    return 0 if announced else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
