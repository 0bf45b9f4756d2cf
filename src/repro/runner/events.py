"""Structured progress events for campaign execution.

The pool emits one :class:`RunnerEvent` per lifecycle transition (job
started / finished / retried / timed out / failed, worker crashed,
campaign finished).  Consumers get the full picture — counts,
throughput, ETA — without parsing text; :class:`ConsoleRenderer` is
the plain-text consumer the CLI uses, writing to *stderr* so progress
never contaminates report output on stdout.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, TextIO

#: Event kinds.
JOB_STARTED = "job-started"
JOB_FINISHED = "job-finished"
JOB_RETRIED = "job-retried"
JOB_TIMEOUT = "job-timeout"
JOB_FAILED = "job-failed"
JOB_SKIPPED = "job-skipped"  # already done in the store (resume)
JOB_QUARANTINED = "job-quarantined"  # poisonous: kept killing workers
WORKER_CRASHED = "worker-crashed"
WORKER_UNRESPONSIVE = "worker-unresponsive"  # heartbeat stopped
WORKER_RECYCLED = "worker-recycled"  # fork-server health recycling
RESTORE_DIVERGED = "restore-diverged"  # cached snapshot failed its digest check
POOL_DEGRADED = "pool-degraded"  # fork-server fell back to spawn-per-job
CIRCUIT_OPEN = "circuit-open"  # too many consecutive worker deaths
CAMPAIGN_INTERRUPTED = "campaign-interrupted"  # SIGINT/SIGTERM, resumable
CAMPAIGN_FINISHED = "campaign-finished"
# Service-level lifecycle kinds (repro.service): same event vocabulary
# so one stream carries runner progress and campaign lifecycle.
CAMPAIGN_SUBMITTED = "campaign-submitted"  # accepted by the service
CAMPAIGN_STARTED = "campaign-started"  # picked up by a supervisor slot
CAMPAIGN_DEGRADED = "campaign-degraded"  # circuit opened; continuing on a fallback pool


@dataclass(frozen=True)
class RunnerEvent:
    """One progress observation from the execution engine."""

    kind: str
    job_id: str = ""
    label: str = ""
    worker: int = -1
    attempt: int = 0
    detail: str = ""
    #: Backoff delay chosen for a retry, seconds (JOB_RETRIED only) —
    #: recorded so replays can explain the schedule.
    delay: float = 0.0
    #: Jobs completed (done + failed) so far.
    done: int = 0
    total: int = 0
    elapsed: float = 0.0
    #: Completed jobs per second of campaign wall time.
    throughput: float = 0.0
    #: Estimated seconds until the campaign finishes (0 if unknown).
    eta: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON transport (event logs, SSE)."""
        return asdict(self)


EventCallback = Callable[[RunnerEvent], None]


class EventHub:
    """Computes campaign-level progress figures and fans events out."""

    def __init__(self, total: int, callback: Optional[EventCallback] = None):
        self.total = total
        self.callback = callback
        self.completed = 0
        self._started_at = time.monotonic()

    def emit(self, kind: str, **fields) -> None:
        """Count ``kind`` and, if someone listens, build and send its event."""
        if kind in (JOB_FINISHED, JOB_FAILED, JOB_SKIPPED, JOB_QUARANTINED):
            self.completed += 1
        if self.callback is None:
            return
        elapsed = time.monotonic() - self._started_at
        throughput = self.completed / elapsed if elapsed > 0 else 0.0
        remaining = self.total - self.completed
        eta = remaining / throughput if throughput > 0 else 0.0
        event = RunnerEvent(
            kind=kind,
            done=self.completed,
            total=self.total,
            elapsed=elapsed,
            throughput=throughput,
            eta=eta,
            **fields,
        )
        self.callback(event)


class ConsoleRenderer:
    """Plain-text progress lines for interactive campaign runs."""

    def __init__(self, stream: Optional[TextIO] = None, verbose: bool = False):
        self.stream = stream if stream is not None else sys.stderr
        self.verbose = verbose

    def __call__(self, event: RunnerEvent) -> None:
        line = self._format(event)
        if line is not None:
            print(line, file=self.stream)

    def _format(self, event: RunnerEvent) -> Optional[str]:
        progress = f"[{event.done}/{event.total}]"
        if event.kind == JOB_FINISHED:
            return (
                f"{progress} done {event.label} "
                f"({event.throughput:.1f} jobs/s, eta {event.eta:.0f}s)"
            )
        if event.kind == JOB_FAILED:
            return f"{progress} FAILED {event.label}: {event.detail}"
        if event.kind == JOB_TIMEOUT:
            return f"{progress} timeout {event.label} ({event.detail})"
        if event.kind == JOB_RETRIED:
            return (
                f"{progress} retry {event.label} (attempt {event.attempt}, "
                f"after {event.delay:.2f}s)"
            )
        if event.kind == JOB_QUARANTINED:
            return f"{progress} QUARANTINED {event.label}: {event.detail}"
        if event.kind == WORKER_CRASHED:
            return f"{progress} worker {event.worker} crashed on {event.label}"
        if event.kind == WORKER_UNRESPONSIVE:
            return (
                f"{progress} worker {event.worker} unresponsive on "
                f"{event.label} ({event.detail})"
            )
        if event.kind == WORKER_RECYCLED:
            return f"{progress} recycled worker {event.worker} ({event.detail})"
        if event.kind == RESTORE_DIVERGED:
            return (
                f"{progress} RESTORE DIVERGED on worker {event.worker}: "
                f"{event.detail} (evicted; cold-booting)"
            )
        if event.kind == POOL_DEGRADED:
            return f"{progress} DEGRADED to spawn-per-job pool: {event.detail}"
        if event.kind == CIRCUIT_OPEN:
            return f"{progress} HALTED: {event.detail}"
        if event.kind == CAMPAIGN_INTERRUPTED:
            return f"{progress} interrupted ({event.detail}); store is resumable"
        if event.kind == CAMPAIGN_DEGRADED:
            return f"{progress} campaign DEGRADED: {event.detail}"
        if event.kind == CAMPAIGN_FINISHED:
            return (
                f"{progress} campaign finished in {event.elapsed:.1f}s "
                f"({event.throughput:.1f} jobs/s)"
            )
        if self.verbose and event.kind in (JOB_STARTED, JOB_SKIPPED):
            verb = "start" if event.kind == JOB_STARTED else "skip"
            return f"{progress} {verb} {event.label}"
        return None


@dataclass
class EventRecorder:
    """Test helper: collect every emitted event."""

    events: List[RunnerEvent] = field(default_factory=list)

    def __call__(self, event: RunnerEvent) -> None:
        self.events.append(event)

    def kinds(self) -> List[str]:
        return [event.kind for event in self.events]
