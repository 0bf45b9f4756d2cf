"""Job specifications and campaign planners.

Every experiment the repository ships — a (use case × version × mode)
campaign cell, one randomized fuzz trial, one benchmark suite item,
one registered test case — can be described by a small, serializable
:class:`JobSpec`.  Planners expand a whole campaign into a flat list
of specs with **stable job IDs** (a content hash of the spec), which
is what makes stores resumable: the same campaign planned twice yields
the same IDs, so completed work is recognisable across processes and
across re-launches.

:func:`execute_job` is the one job interpreter, used by every engine:
given a spec (and nothing else — workers share no state with the
parent), it runs the experiment and returns a plain-dict payload that
survives pickling and JSON storage.  Every kind but the pool's
selftests gets its testbed through one lease call there: a fresh boot
by default, a restored snapshot under the fork-server's cache.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Sequence


class TransientJobError(Exception):
    """A retryable failure: the job may succeed if run again.

    Raised by job implementations for conditions that are not a
    property of the experiment itself (resource exhaustion, simulated
    flakiness).  The pool retries these with backoff; any other
    exception fails the job immediately.
    """


#: The recognised job kinds.
CAMPAIGN_RUN = "campaign-run"
FUZZ_TRIAL = "fuzz-trial"
BENCHMARK_CASE = "benchmark-case"
TESTCASE = "testcase"
#: Internal kind used by the pool's own tests and health checks; the
#: ``use_case`` field encodes the behaviour ("ok", "fail",
#: "hang:<seconds>", "crash", "crash-until:<n>", "stop", "flaky:<n>").
SELFTEST = "selftest"

KINDS = (CAMPAIGN_RUN, FUZZ_TRIAL, BENCHMARK_CASE, TESTCASE, SELFTEST)


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of experiment work."""

    kind: str
    #: Use-case / component / suite-item / test-case name.
    use_case: str
    version: str = ""
    #: Campaign mode ("exploit" / "injection"); empty otherwise.
    mode: str = ""
    #: Per-trial RNG seed (fuzz trials); ``None`` otherwise.
    seed: Optional[int] = None
    #: Trial index within its component (fuzz trials).
    trial: Optional[int] = None
    #: Run campaign cells under the microreboot recovery watchdog
    #: (campaign-run jobs only).  Part of the content hash: a
    #: ``--recover`` campaign is a different experiment from the same
    #: matrix without recovery, and resumes against its own store.
    recover: bool = False
    #: Directory for trace artefacts (``--trace``); ``None`` disables
    #: recording.  Deliberately EXCLUDED from the content hash: where
    #: traces land does not change the experiment, so a traced resume
    #: recognises work done by an untraced run and vice versa.
    trace_dir: Optional[str] = None
    #: Collect per-trial probe metrics (``--metrics``) on campaign
    #: runs.  Part of the content hash only when enabled: a metricless
    #: spec hashes exactly as it did before the field existed, so old
    #: stores stay resumable, while a metrics campaign is its own
    #: experiment (its payloads carry an extra key).
    metrics: bool = False
    #: Scenario topology as canonical JSON
    #: (:meth:`repro.core.topology.ScenarioTopology.spec_value`); the
    #: empty string is the paper default.  Same compatibility rule as
    #: ``metrics``: part of the content hash only when non-default, so
    #: every pre-topology job ID (and therefore every existing
    #: resumable store) is preserved, while each distinct topology is
    #: its own experiment with distinct IDs.
    topology: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; known: {KINDS}")

    @functools.cached_property
    def job_id(self) -> str:
        """Stable content-derived identifier.

        Computed once per instance: the pool loop, the store and the
        event stream read it many times per job.  The cached value lives
        in the instance ``__dict__``, outside the dataclass fields, so
        ``asdict``, :meth:`to_json`, equality and hashing never see it.
        """
        flat = self._flat()
        flat.pop("trace_dir")  # artefact destination, not experiment identity
        if not flat["metrics"]:
            flat.pop("metrics")  # keep pre-metrics job IDs stable
        if not flat["topology"]:
            flat.pop("topology")  # keep pre-topology job IDs stable
        blob = json.dumps(flat, sort_keys=True).encode()
        return f"{self.kind}:{hashlib.sha1(blob).hexdigest()[:16]}"

    def _flat(self) -> Dict[str, Any]:
        """The fields as a dict: ``asdict`` without its deep copy.

        Every field is a scalar, so a flat copy serializes to the same
        bytes as ``asdict`` at a tenth of the cost.
        """
        return {name: getattr(self, name) for name in _SPEC_FIELDS}

    def to_json(self) -> str:
        return json.dumps(self._flat(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        return cls(**json.loads(text))

    @property
    def label(self) -> str:
        """Short human-readable description for progress output."""
        parts = [self.use_case]
        if self.version:
            parts.append(f"xen-{self.version}")
        if self.mode:
            parts.append(self.mode)
        if self.trial is not None:
            parts.append(f"#{self.trial}")
        return "/".join(parts)


_SPEC_FIELDS = tuple(field.name for field in fields(JobSpec))


# ----------------------------------------------------------------------
# Planners
# ----------------------------------------------------------------------


def plan_campaign(
    use_cases: Sequence[str],
    versions: Sequence[str],
    modes: Sequence[str] = ("exploit", "injection"),
    recover: bool = False,
    trace_dir: Optional[str] = None,
    metrics: bool = False,
    topology: str = "",
) -> List[JobSpec]:
    """Expand a campaign matrix into jobs, in matrix iteration order.

    ``topology`` is a :class:`~repro.core.topology.ScenarioTopology`
    spec value (canonical JSON; empty string = paper default) applied
    to every cell of the matrix.
    """
    return [
        JobSpec(
            kind=CAMPAIGN_RUN,
            use_case=u,
            version=v,
            mode=m,
            recover=recover,
            trace_dir=trace_dir,
            metrics=metrics,
            topology=topology,
        )
        for u in use_cases
        for v in versions
        for m in modes
    ]


def plan_fuzz(
    version: str,
    components: Sequence[str],
    runs_per_component: int,
    root_seed: int,
) -> List[JobSpec]:
    """Expand a fuzz campaign into per-trial jobs with derived seeds."""
    from repro.core.fuzz import trial_seed

    return [
        JobSpec(
            kind=FUZZ_TRIAL,
            use_case=component,
            version=version,
            seed=trial_seed(root_seed, component, index),
            trial=index,
        )
        for component in components
        for index in range(runs_per_component)
    ]


def plan_coverage_round(version: str, trials: Sequence) -> List[JobSpec]:
    """Expand one coverage-guided scheduler round into jobs.

    ``trials`` are :class:`repro.vulngen.schedule.TrialPlan` objects
    (anything with ``entry_id`` / ``mutation`` / ``seed`` / ``slot``
    works).  The mapping reuses the FUZZ_TRIAL schema: the corpus id
    rides in ``use_case`` (workers re-derive the full spec from it),
    the mutation name in ``mode``, and ``metrics=True`` requests the
    coverage signature every scheduling decision feeds on.
    """
    return [
        JobSpec(
            kind=FUZZ_TRIAL,
            use_case=t.entry_id,
            version=version,
            mode=t.mutation,
            seed=t.seed,
            trial=t.slot,
            metrics=True,
        )
        for t in trials
    ]


def plan_benchmark(items: Sequence[str], versions: Sequence[str]) -> List[JobSpec]:
    """Expand the security benchmark: every suite item on every version."""
    return [
        JobSpec(kind=BENCHMARK_CASE, use_case=item, version=v)
        for v in versions
        for item in items
    ]


def plan_testcases(names: Sequence[str], version: str) -> List[JobSpec]:
    """Expand registered test cases against one version."""
    return [JobSpec(kind=TESTCASE, use_case=name, version=version) for name in names]


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------

#: Modules a worker needs for any job kind: the pool's worker loop,
#: this module, every module :func:`execute_job`'s branches import
#: lazily, and the modules a job first imports further down (the
#: snapshot cache's checkpoint, a testbed's scheduler and xenstore, the
#: split drivers of the cross-domain cells).  Every worker forks from a
#: process that already imported them: in the spawn configuration the
#: stdlib forkserver imports them once, and in the fork-server
#: configuration :class:`~repro.runner.pool.WorkerPool` imports them
#: in the parent before its first fork.  Keep it in step with the
#: imports in the job functions below.
WORKER_PRELOAD = (
    "repro.runner.forkserver",
    "repro.runner.pool",
    "repro.runner.jobs",
    "repro.analysis.report",
    "repro.core.benchmarking",
    "repro.core.campaign",
    "repro.core.checkpoint",
    "repro.core.fuzz",
    "repro.core.injections",
    "repro.core.testbed",
    "repro.core.testcases",
    "repro.core.topology",
    "repro.drivers",
    "repro.vulngen.corpus",
    "repro.vulngen.synthetic",
    "repro.xen.schedule",
    "repro.xen.versions",
    "repro.xen.xenstore",
)


#: How a job gets its testbed: ``lease(spec, attempt, boot)`` returns
#: the bed the job runs on, where ``boot()`` cold-boots one of the
#: spec's version and topology.
Lease = Callable[[JobSpec, int, Callable[[], Any]], Any]


def _boot_fresh(spec: JobSpec, attempt: int, boot: Callable[[], Any]) -> Any:
    """The default lease: every job boots its own fresh testbed."""
    return boot()


def execute_job(
    spec: JobSpec, attempt: int = 0, *, lease: Lease = _boot_fresh
) -> Dict[str, object]:
    """Run one job and return a picklable payload.

    The only code that decides what a job kind does, and the only code
    that gets a job its testbed: every kind but the pool's selftests
    runs on the one bed this function takes from ``lease``.  By default
    that is a fresh boot, so nothing is shared with the parent process,
    which is what gives the pool hard crash isolation; the fork-server
    passes its snapshot cache instead
    (:func:`~repro.runner.forkserver.execute_job_cached`).  Parallel
    execution resolves names against the default registries (use
    cases, fuzz components, test cases), so only default-configured
    experiments are parallelizable — custom closures stay on the serial
    path.
    """
    run_on = _ON_BED.get(spec.kind)
    if run_on is None:
        if spec.kind == SELFTEST:
            return _execute_selftest(spec, attempt)
        raise ValueError(f"unknown job kind {spec.kind!r}")
    from repro.core.testbed import build_testbed
    from repro.core.topology import ScenarioTopology
    from repro.xen.versions import version_by_name

    version = version_by_name(spec.version)
    topology = ScenarioTopology.from_spec_value(spec.topology)
    bed = lease(
        spec, attempt, lambda: build_testbed(version, topology=topology)
    )
    return run_on(spec, bed)


def _execute_campaign_run(spec: JobSpec, bed: Any) -> Dict[str, object]:
    from repro.analysis.report import result_to_dict
    from repro.core.campaign import Campaign, Mode
    from repro.core.injections import resolve

    result = Campaign(
        testbed_factory=lambda _version: bed,
        recover=spec.recover,
        trace_dir=spec.trace_dir,
        collect_metrics=spec.metrics,
        topology=bed.topology,
    ).run(resolve(spec.use_case), bed.xen.version, Mode(spec.mode))
    return result_to_dict(result)


def _execute_fuzz_trial(spec: JobSpec, bed: Any) -> Dict[str, object]:
    from repro.vulngen.corpus import is_synthetic_id

    seed = spec.seed if spec.seed is not None else 0
    if is_synthetic_id(spec.use_case):
        # Synthetic corpus trial: the id alone re-derives the full
        # spec, so workers need no shared state.  ``mode`` carries the
        # mutation, ``metrics`` requests the coverage signature.
        from repro.vulngen.corpus import spec_by_id
        from repro.vulngen.synthetic import run_synthetic_trial_on

        result = run_synthetic_trial_on(
            bed,
            spec_by_id(spec.use_case),
            seed,
            mutation=spec.mode or "baseline",
            collect_coverage=spec.metrics,
        )
        return asdict(result)
    from repro.core.fuzz import RandomErroneousStateCampaign

    campaign = RandomErroneousStateCampaign(bed.xen.version)
    component = campaign.component_by_name(spec.use_case)
    return asdict(campaign.run_trial_on(bed, component, seed))


def _execute_benchmark_case(spec: JobSpec, bed: Any) -> Dict[str, object]:
    from repro.core.benchmarking import default_suite

    item = {item.name: item for item in default_suite()}[spec.use_case]
    injected, violated = item.run(bed)
    return {
        "name": item.name,
        "attribute": item.attribute,
        "injected": injected,
        "violated": violated,
    }


def _execute_testcase(spec: JobSpec, bed: Any) -> Dict[str, object]:
    from repro.core.testcases import REGISTRY

    return asdict(REGISTRY[spec.use_case].run_on(bed))


#: What each bed-taking job kind runs on the bed :func:`execute_job`
#: leased for it.
_ON_BED: Dict[str, Callable[[JobSpec, Any], Dict[str, object]]] = {
    CAMPAIGN_RUN: _execute_campaign_run,
    FUZZ_TRIAL: _execute_fuzz_trial,
    BENCHMARK_CASE: _execute_benchmark_case,
    TESTCASE: _execute_testcase,
}


def _execute_selftest(spec: JobSpec, attempt: int) -> Dict[str, object]:
    behaviour, _, arg = spec.use_case.partition(":")
    if behaviour == "hang":
        time.sleep(float(arg or "3600"))
    elif behaviour == "crash":
        os._exit(17)  # simulate a worker dying mid-job
    elif behaviour == "crash-until":
        # Kills its worker on the first <n> attempts, then succeeds:
        # the shape that opens a circuit breaker yet completes on a
        # fresh pool (the service's degradation ladder exercises this).
        if attempt < int(arg or "1"):
            os._exit(17)
    elif behaviour == "stop":
        import signal

        # A wedged worker: the process stays alive (is_alive() == True)
        # but stops making progress — only the heartbeat can tell.
        os.kill(os.getpid(), signal.SIGSTOP)
    elif behaviour == "fail":
        raise RuntimeError("selftest: permanent failure")
    elif behaviour == "flaky":
        if attempt < int(arg or "1"):
            raise TransientJobError(f"selftest: flaky attempt {attempt}")
    elif behaviour != "ok":
        raise ValueError(f"unknown selftest behaviour {behaviour!r}")
    return {"status": "ok", "attempt": attempt, "pid": os.getpid()}
