"""``repro.runner`` — parallel, fault-tolerant, resumable campaigns.

The execution engine behind ``--jobs N``: experiments become
serializable :class:`JobSpec` jobs, a :class:`WorkerPool` (spawn or
fork-server configuration) runs them with per-job timeouts, crash
isolation and bounded retry, a SQLite :class:`ResultStore` makes
campaigns resumable (``--resume``), and :class:`RunnerEvent` streams
progress.
"""

from repro.runner.events import (
    ConsoleRenderer,
    EventRecorder,
    RunnerEvent,
)
from repro.runner.jobs import (
    BENCHMARK_CASE,
    CAMPAIGN_RUN,
    FUZZ_TRIAL,
    SELFTEST,
    TESTCASE,
    JobSpec,
    TransientJobError,
    by_spec_name,
    execute_job,
    plan_benchmark,
    plan_campaign,
    plan_coverage_round,
    plan_fuzz,
    plan_testcases,
)
from repro.runner.pool import (
    CampaignFailed,
    CampaignInterrupted,
    RunnerOutcome,
    SerialRunner,
    WorkerPool,
    engine_for,
    make_runner,
    seeded_backoff,
)
from repro.runner.forkserver import (
    ForkServerPool,
    execute_job_cached,
    preferred_context,
)
from repro.runner.store import (
    ResultStore,
    StoreBusy,
    StoreCorrupt,
    StoreSchemaMismatch,
    StoreSummary,
)

__all__ = [
    "BENCHMARK_CASE",
    "CAMPAIGN_RUN",
    "CampaignFailed",
    "CampaignInterrupted",
    "ConsoleRenderer",
    "EventRecorder",
    "FUZZ_TRIAL",
    "ForkServerPool",
    "JobSpec",
    "ResultStore",
    "RunnerEvent",
    "RunnerOutcome",
    "SELFTEST",
    "SerialRunner",
    "StoreBusy",
    "StoreCorrupt",
    "StoreSchemaMismatch",
    "StoreSummary",
    "TESTCASE",
    "TransientJobError",
    "WorkerPool",
    "by_spec_name",
    "engine_for",
    "execute_job",
    "execute_job_cached",
    "make_runner",
    "preferred_context",
    "plan_benchmark",
    "plan_campaign",
    "plan_coverage_round",
    "plan_fuzz",
    "plan_testcases",
    "seeded_backoff",
]
