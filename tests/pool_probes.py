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
