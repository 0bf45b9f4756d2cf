"""Per-layer instrumentation, measured from outside the program.

Every span here wraps a call into one of the program's public entry
points from the benchmark's own files; nothing under ``src/`` knows it
is being timed.  A span carries a name, start, end, parent and job ID.
Spans stay in memory and are written out once, when the run ends.  A
layer's value is the *self* time of its spans: the span's duration
minus the part covered by its child spans.

This module provides three sources of spans; the workloads add their
own campaign and HTTP spans around them:

* :class:`TimedStore`, a :class:`~repro.runner.store.ResultStore`
  subclass that times its public methods;
* :func:`timed_planners`, which wraps the job planners that
  ``FuzzCampaign.run``, ``Campaign.run_matrix`` and the service's plan
  expansion look up at call time;
* :func:`replay_jobs`, an in-process re-run of sampled jobs that calls
  the worker's steps in order, each under its own span.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import asdict
from statistics import median, quantiles
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runner.jobs import FUZZ_TRIAL, JobSpec
from repro.runner.store import ResultStore


def canonical(payload: object) -> str:
    """The byte form results are compared in."""
    return json.dumps(payload, sort_keys=True)


def p75(values: Sequence[float]) -> float:
    """Upper quartile; a single sample is its own quartile."""
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=4)[2]


class Spans:
    """An in-memory span log that several threads may record into."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, job_id]`` per span, in
        #: the order the spans opened.
        self.records: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, job: str = "") -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.records)
            self.records.append([name, time.perf_counter(), None, parent, job])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.records[index][2] = time.perf_counter()

    def self_times(self) -> List[Tuple[str, float]]:
        """``(name, self_seconds)`` for every closed span."""
        covered = [0.0] * len(self.records)
        for _name, start, end, parent, _job in self.records:
            if parent >= 0 and end is not None:
                covered[parent] += end - start
        return [
            (name, end - start - covered[index])
            for index, (name, start, end, _parent, _job) in enumerate(self.records)
            if end is not None
        ]

    def by_name(self) -> Dict[str, List[float]]:
        grouped: Dict[str, List[float]] = {}
        for name, seconds in self.self_times():
            grouped.setdefault(name, []).append(seconds)
        return grouped

    def write(self, path: str) -> None:
        """Dump every span as one JSON line (times in seconds)."""
        selfs = dict(enumerate(seconds for _name, seconds in self.self_times()))
        with open(path, "w") as handle:
            for index, (name, start, end, parent, job) in enumerate(self.records):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "self": selfs.get(index),
                }) + "\n")


class TimedStore(ResultStore):
    """A result store whose public methods each record a span.

    Every method that ends in a commit records ``store.commit``, so
    the commit count per job and the time per commit come straight
    from the spans.
    """

    def __init__(self, path: str, spans: Spans):
        self.spans = spans
        with spans.span("store.open"):
            super().__init__(path)

    def register(self, specs) -> None:
        with self.spans.span("store.register"):
            super().register(specs)

    def mark_running(self, job_id: str) -> None:
        with self.spans.span("store.commit", job_id):
            super().mark_running(job_id)

    def record_attempt(self, job_id: str, *args, **kwargs) -> None:
        with self.spans.span("store.commit", job_id):
            super().record_attempt(job_id, *args, **kwargs)

    def record_success(self, job_id: str, *args, **kwargs) -> None:
        with self.spans.span("store.commit", job_id):
            super().record_success(job_id, *args, **kwargs)

    def record_failure(self, job_id: str, *args, **kwargs) -> None:
        with self.spans.span("store.commit", job_id):
            super().record_failure(job_id, *args, **kwargs)

    def close(self) -> None:
        with self.spans.span("store.close"):
            super().close()


@contextlib.contextmanager
def timed_planners(spans: Spans) -> Iterator[None]:
    """Record a ``jobs.plan`` span around every planner call.

    ``FuzzCampaign.run`` and ``Campaign.run_matrix`` import the
    planners from ``repro.runner`` when they are called, and the
    service's plan expansion holds its own references, so the wrappers
    go in both places and come out again on exit.
    """
    import repro.runner
    import repro.service.plans

    originals = []
    for module in (repro.runner, repro.service.plans):
        for name in ("plan_fuzz", "plan_campaign"):
            planner = getattr(module, name)

            def timed(*args, _planner=planner, **kwargs):
                with spans.span("jobs.plan"):
                    return _planner(*args, **kwargs)

            originals.append((module, name, planner))
            setattr(module, name, timed)
    try:
        yield
    finally:
        for module, name, planner in originals:
            setattr(module, name, planner)


def replay_jobs(
    pairs: Sequence[Tuple[JobSpec, dict]], snapshot_cache: bool, spans: Spans
) -> Tuple[List[int], List[str]]:
    """Re-run sampled jobs in-process, one span per worker step.

    The steps are the worker's, in its order: spec codec, then a
    testbed (``build_testbed``, or with ``snapshot_cache`` the
    fork-server's boot-and-capture once per testbed shape followed by
    ``TestbedCheckpoint.restore``), then the experiment
    (``run_trial_on`` or ``Campaign.run``), then payload encoding.
    Returns the encoded payload sizes and a description of every job
    whose replayed payload differs from the stored one.
    """
    from repro.analysis.report import result_to_dict
    from repro.core.campaign import Campaign, Mode
    from repro.core.checkpoint import TestbedCheckpoint
    from repro.core.fuzz import RandomErroneousStateCampaign
    from repro.core.injections import resolve
    from repro.core.testbed import build_testbed
    from repro.core.topology import ScenarioTopology
    from repro.xen.versions import version_by_name

    cache: Dict[str, tuple] = {}
    sizes: List[int] = []
    mismatches: List[str] = []
    for original, stored in pairs:
        job = original.job_id
        with spans.span("replay.job", job):
            with spans.span("jobs.spec_codec", job):
                spec = JobSpec.from_json(original.to_json())
            version = version_by_name(spec.version)
            topology = ScenarioTopology.from_spec_value(spec.topology)
            key = f"{spec.version}|{spec.topology}"
            if snapshot_cache and key in cache:
                bed, checkpoint = cache[key]
                with spans.span("checkpoint.restore", job):
                    checkpoint.restore(bed)
            else:
                with spans.span("testbed.boot", job):
                    bed = build_testbed(version, topology=topology)
                if snapshot_cache:
                    with spans.span("checkpoint.capture", job):
                        cache[key] = (bed, TestbedCheckpoint.capture(bed))
            if spec.kind == FUZZ_TRIAL:
                campaign = RandomErroneousStateCampaign(version)
                with spans.span("fuzz.trial", job):
                    result = campaign.run_trial_on(
                        bed, campaign.component_by_name(spec.use_case), spec.seed
                    )
                with spans.span("encode.payload", job):
                    payload = asdict(result)
                    encoded = json.dumps(payload)
            else:
                runner = Campaign(
                    testbed_factory=lambda _version: bed,
                    recover=spec.recover,
                    collect_metrics=spec.metrics,
                )
                with spans.span(f"campaign.{spec.mode}", job):
                    result = runner.run(
                        resolve(spec.use_case), version, Mode(spec.mode)
                    )
                with spans.span("encode.payload", job):
                    payload = result_to_dict(result)
                    encoded = json.dumps(payload)
        sizes.append(len(encoded))
        if canonical(payload) != canonical(stored):
            mismatches.append(
                f"{job} ({original.label}): in-process replay differs from "
                "the stored payload"
            )
    return sizes, mismatches


def replay_metrics(spans: Spans, sizes: List[int]) -> Dict[str, Tuple[float, str, int]]:
    """Per-layer values from the replay spans: ``name -> (value, unit, n)``."""
    selfs = spans.by_name()
    out: Dict[str, Tuple[float, str, int]] = {}

    def put(metric: str, span_names: Sequence[str], scale: float, unit: str) -> None:
        values = [v for name in span_names for v in selfs.get(name, [])]
        if values:
            out[metric] = (median(values) * scale, unit, len(values))

    put("jobs.spec_codec_us", ["jobs.spec_codec"], 1e6, "us")
    put("testbed.boot_ms", ["testbed.boot"], 1e3, "ms")
    put("checkpoint.capture_ms", ["checkpoint.capture"], 1e3, "ms")
    put("checkpoint.restore_ms", ["checkpoint.restore"], 1e3, "ms")
    put("fuzz.trial_ms", ["fuzz.trial"], 1e3, "ms")
    put("campaign.exploit_ms", ["campaign.exploit"], 1e3, "ms")
    put("campaign.injection_ms", ["campaign.injection"], 1e3, "ms")
    put(
        "job.exec_ms",
        ["fuzz.trial", "campaign.exploit", "campaign.injection"],
        1e3, "ms",
    )
    put("encode.payload_us", ["encode.payload"], 1e6, "us")
    if sizes:
        out["encode.payload_bytes"] = (float(median(sizes)), "bytes", len(sizes))
    return out


def store_metrics(
    spans: Spans, jobs: int, busy_wall: Optional[float] = None
) -> Dict[str, Tuple[float, str, int]]:
    """Per-layer store values from :class:`TimedStore` spans."""
    selfs = spans.by_name()
    commits = selfs.get("store.commit", [])
    registers = selfs.get("store.register", [])
    out: Dict[str, Tuple[float, str, int]] = {}
    if commits:
        out["store.commit_ms"] = (median(commits) * 1e3, "ms", len(commits))
        out["store.commits_per_job"] = (len(commits) / jobs, "count", jobs)
    if registers:
        out["store.register_ms"] = (median(registers) * 1e3, "ms", len(registers))
    if busy_wall:
        busy = sum(
            seconds for name, values in selfs.items() if name.startswith("store.")
            for seconds in values
        )
        out["store.busy_share"] = (busy / busy_wall, "fraction", len(commits))
    return out
