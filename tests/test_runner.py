"""Tests for ``repro.runner`` — the campaign execution engine.

The worker-pool tests exercise the fault-tolerance contract with
``selftest`` jobs (hang / crash / flaky) so they stay fast and
deterministic; the integration tests then prove the property the
engine exists for: parallel campaigns produce exactly the serial
results.
"""

import ast
import dataclasses
import hashlib
import inspect
import json
import pathlib
import os
import pickle
import resource
import signal
import sqlite3
import subprocess
import sys
import textwrap
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.fuzz import FuzzCampaign, trial_seed
from repro.core.topology import CROSS_DOMAIN_TOPOLOGY, ScenarioTopology
from repro.runner import (
    EventRecorder,
    JobSpec,
    ResultStore,
    SerialRunner,
    WorkerPool,
    execute_job,
    make_runner,
    plan_benchmark,
    plan_campaign,
    plan_fuzz,
    plan_testcases,
)
from repro.runner import events as ev
from repro.runner import jobs as jobs_module
from repro.runner import pool as pool_module
from repro.runner.pool import CampaignFailed, _Ledger, _Worker
from repro.runner.store import (
    SCHEMA_VERSION,
    StorePlanMismatch,
    StoreSchemaMismatch,
)
from repro.vulngen.corpus import derive_spec
from repro.xen.hypervisor import Xen
from repro.xen.versions import XEN_4_13
from tests import parity, pool_probes
from tests.conftest import CommitCountingStore


def selftest(behaviour: str) -> JobSpec:
    return JobSpec(kind="selftest", use_case=behaviour)


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(
            kind="fuzz-trial", use_case="idt", version="4.13", seed=99, trial=3
        )
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_job_id_is_stable_and_content_derived(self):
        a = JobSpec(kind="campaign-run", use_case="x", version="4.8", mode="exploit")
        b = JobSpec(kind="campaign-run", use_case="x", version="4.8", mode="exploit")
        c = JobSpec(kind="campaign-run", use_case="x", version="4.8", mode="injection")
        assert a.job_id == b.job_id
        assert a.job_id != c.job_id
        assert a.job_id.startswith("campaign-run:")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec(kind="nonsense", use_case="x")

    def test_label_mentions_the_work(self):
        spec = JobSpec(kind="fuzz-trial", use_case="idt", version="4.13", trial=2)
        assert "idt" in spec.label and "#2" in spec.label


def _recomputed_job_id(spec: JobSpec) -> str:
    """The content hash, recomputed from ``asdict`` on every call."""
    fields = dataclasses.asdict(spec)
    fields.pop("trace_dir")
    if not fields["metrics"]:
        fields.pop("metrics")
    if not fields["topology"]:
        fields.pop("topology")
    blob = json.dumps(fields, sort_keys=True).encode()
    return f"{spec.kind}:{hashlib.sha1(blob).hexdigest()[:16]}"


def _every_kind_of_spec():
    three_guests = ScenarioTopology.paper_default(3).spec_value()
    return [
        *plan_campaign(["XSA-212-priv"], ["4.6"], ["exploit"]),
        *plan_campaign(
            ["XSA-212-priv"], ["4.13"], ["injection"], recover=True,
            trace_dir="traces", metrics=True,
        ),
        *plan_campaign(["XSA-148-priv"], ["4.6"], topology=three_guests),
        *plan_fuzz("4.13", ["idt"], 2, 20230701),
        JobSpec(
            kind="fuzz-trial", use_case="syn-0001", version="4.13",
            mode="flip-bit", seed=5, trial=0, metrics=True,
        ),
        *plan_benchmark(["idt-integrity"], ["4.8"]),
        *plan_testcases(["tc-1"], "4.13"),
        selftest("ok"),
    ]


class TestJobIdMemo:
    """``job_id`` is computed once per instance and changes nothing
    observable: same value, same wire format, same equality."""

    def test_every_kind_matches_the_recomputed_hash(self):
        specs = _every_kind_of_spec()
        assert {s.kind for s in specs} == set(jobs_module.KINDS)
        for spec in specs:
            assert spec.job_id == _recomputed_job_id(spec)
            assert spec.job_id == _recomputed_job_id(spec)  # memoised read

    def test_wire_format_never_carries_the_memo(self):
        for spec in _every_kind_of_spec():
            fresh = JobSpec.from_json(spec.to_json())
            before = fresh.to_json()
            assert fresh.job_id
            assert fresh.to_json() == before
            assert "job_id" not in json.loads(before)
            assert dataclasses.asdict(fresh) == json.loads(before)

    def test_round_trips_keep_equality_and_id(self):
        for spec in _every_kind_of_spec():
            unread = JobSpec.from_json(spec.to_json())
            spec.job_id  # populate the memo on one side only
            for twin in (
                JobSpec.from_json(spec.to_json()),
                pickle.loads(pickle.dumps(spec)),
                pickle.loads(pickle.dumps(unread)),
            ):
                assert twin == spec == unread
                assert hash(twin) == hash(spec) == hash(unread)
                assert twin.job_id == spec.job_id == unread.job_id

    def test_replace_never_inherits_a_stale_id(self):
        spec = plan_fuzz("4.13", ["idt"], 1, 7)[0]
        other = dataclasses.replace(spec, seed=spec.seed + 1)
        assert spec.job_id != other.job_id == _recomputed_job_id(other)


class TestFlatCodec:
    """The spec codec copies the fields flat, yet writes ``asdict``'s bytes."""

    @given(
        kind=st.sampled_from(jobs_module.KINDS),
        text=st.text(max_size=12),
        seed=st.none() | st.integers(min_value=-(2**63), max_value=2**64),
        trial=st.none() | st.integers(min_value=0, max_value=10**6),
        recover=st.booleans(),
        metrics=st.booleans(),
        topology=st.sampled_from(
            ["", ScenarioTopology.paper_default(3).spec_value(),
             CROSS_DOMAIN_TOPOLOGY.spec_value()]
        ),
        trace_dir=st.none() | st.text(max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_codec_equals_the_asdict_derivation(
        self, kind, text, seed, trial, recover, metrics, topology, trace_dir
    ):
        spec = JobSpec(
            kind=kind, use_case=text, version=text[:3], mode=text[::-1],
            seed=seed, trial=trial, recover=recover, trace_dir=trace_dir,
            metrics=metrics, topology=topology,
        )
        # Neither the wire form nor the ID may deep-copy through asdict.
        with mock.patch.object(
            jobs_module, "asdict", side_effect=AssertionError("asdict")
        ):
            wire, job_id = spec.to_json(), spec.job_id
        assert wire == json.dumps(dataclasses.asdict(spec), sort_keys=True)
        assert job_id == _recomputed_job_id(spec)
        assert JobSpec.from_json(wire) == spec


class TestPlanners:
    def test_campaign_plan_matches_matrix_order(self):
        specs = plan_campaign(["a", "b"], ["4.6", "4.8"], ["injection"])
        assert [(s.use_case, s.version) for s in specs] == [
            ("a", "4.6"), ("a", "4.8"), ("b", "4.6"), ("b", "4.8"),
        ]

    def test_fuzz_plan_derives_per_trial_seeds(self):
        specs = plan_fuzz("4.13", ["idt"], 3, 7)
        assert [s.seed for s in specs] == [
            trial_seed(7, "idt", 0), trial_seed(7, "idt", 1), trial_seed(7, "idt", 2),
        ]
        assert len({s.seed for s in specs}) == 3

    def test_trial_seed_fits_sqlite_integer(self):
        assert 0 <= trial_seed(2**40, "idt", 10**6) < 2**63

    def test_benchmark_and_testcase_plans(self):
        bench = plan_benchmark(["i1", "i2"], ["4.6", "4.13"])
        assert len(bench) == 4 and bench[0].version == "4.6"
        cases = plan_testcases(["t1", "t2"], "4.8")
        assert [s.use_case for s in cases] == ["t1", "t2"]

    def test_replanning_yields_identical_ids(self):
        first = [s.job_id for s in plan_fuzz("4.13", ["idt", "m2p"], 2, 5)]
        second = [s.job_id for s in plan_fuzz("4.13", ["idt", "m2p"], 2, 5)]
        assert first == second


class TestResultStore:
    def test_register_is_idempotent(self, tmp_path):
        specs = [selftest("ok"), selftest("fail")]
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            store.register(specs)
            store.register(specs)
            assert len(store.specs()) == 2
            assert [s.job_id for s in store.specs()] == [s.job_id for s in specs]

    def test_success_and_payload_order(self):
        specs = plan_fuzz("4.13", ["idt", "m2p"], 1, 3)
        with ResultStore() as store:
            store.register(specs)
            # complete them out of plan order
            store.record_success(specs[1].job_id, {"n": 1})
            store.record_success(specs[0].job_id, {"n": 0})
            assert [p["n"] for _s, p in store.payloads()] == [0, 1]
            assert store.completed_ids() == {s.job_id for s in specs}

    def test_attempts_and_summary(self):
        spec = selftest("ok")
        with ResultStore() as store:
            store.register([spec])
            store.record_attempt(spec.job_id, 0, "timeout", "budget")
            store.record_attempt(spec.job_id, 1, "done", "")
            store.record_success(spec.job_id, {"status": "ok"})
            assert store.attempts_of(spec.job_id) == 2
            summary = store.summary()
            assert (summary.total, summary.done, summary.failed) == (1, 1, 0)
            assert "1/1 done" in summary.render()

    def test_failure_is_recorded(self):
        spec = selftest("fail")
        with ResultStore() as store:
            store.register([spec])
            store.record_failure(spec.job_id)
            assert store.summary().failed == 1
            assert store.payload(spec.job_id) is None

    def test_injected_clock_stamps_rows(self):
        spec = selftest("ok")
        with ResultStore(clock=lambda: 1234.5) as store:
            store.register([spec])
            row = store._conn.execute(
                "SELECT updated_at FROM jobs WHERE job_id = ?", (spec.job_id,)
            ).fetchone()
            assert row[0] == 1234.5


class TestGroupCommit:
    """State transitions join one transaction; the books commit it
    once per ``_COMMIT_INTERVAL``."""

    def test_serial_runner_commits_once_per_job(self, tmp_path, monkeypatch):
        """With no interval the books commit after every job."""
        monkeypatch.setattr(pool_module, "_COMMIT_INTERVAL", 0.0)
        specs = [selftest("ok"), selftest("fail"), selftest("flaky:1")]
        store = CommitCountingStore(str(tmp_path / "s.sqlite"))
        try:
            store.commits = 0  # opening stamps the schema version
            outcome = SerialRunner(retries=1).run(specs, store=store)
            assert len(outcome.results) == 2 and len(outcome.failures) == 1
            assert store.commits == 1 + len(specs)  # register + one per job
        finally:
            store.close()

    def test_serial_runner_commits_register_and_close_within_an_interval(
        self, tmp_path, monkeypatch
    ):
        """Inside one interval only registering and closing commit, so a
        reader sees no job done mid-run and every job done after it."""
        monkeypatch.setattr(pool_module, "_COMMIT_INTERVAL", 3600.0)
        specs = [selftest("ok"), selftest("ok:2"), selftest("ok:3")]
        path = str(tmp_path / "s.sqlite")
        mid_run: list = []

        def on_event(event) -> None:
            if event.kind == ev.JOB_FINISHED and event.job_id == specs[1].job_id:
                with ResultStore(path) as reader:
                    mid_run.append(reader.completed_ids())

        store = CommitCountingStore(path)
        try:
            store.commits = 0
            outcome = SerialRunner(on_event=on_event).run(specs, store=store)
            assert len(outcome.results) == 3
            assert store.commits == 2  # register + close
            with ResultStore(path) as reader:
                assert reader.completed_ids() == {s.job_id for s in specs}
        finally:
            store.close()
        assert mid_run == [set()]

    def test_escaping_base_exception_leaves_finished_jobs_committed(
        self, tmp_path, monkeypatch
    ):
        """A job fn raising past the runner (a BaseException is not a
        job error) still leaves every job finished before it durable."""
        monkeypatch.setattr(pool_module, "_COMMIT_INTERVAL", 3600.0)

        class Abort(BaseException):
            pass

        specs = [selftest("ok"), selftest("ok:2"), selftest("ok:3"), selftest("ok:4")]

        def job_fn(spec, attempt):
            if spec is specs[3]:
                raise Abort()
            return execute_job(spec, attempt)

        path = str(tmp_path / "s.sqlite")
        store = ResultStore(path)
        try:
            with pytest.raises(Abort):
                SerialRunner(job_fn=job_fn).run(specs, store=store)
            with ResultStore(path) as reader:
                assert reader.completed_ids() == {s.job_id for s in specs[:3]}
        finally:
            store.close()

    def test_serial_retry_commits_before_its_backoff_sleep(self, tmp_path):
        store = CommitCountingStore(str(tmp_path / "s.sqlite"))
        try:
            store.commits = 0
            SerialRunner(retries=1, backoff=0.01).run(
                [selftest("flaky:1")], store=store
            )
            assert store.commits == 1 + 2  # register, pre-sleep, terminal
        finally:
            store.close()

    def test_close_without_flush_keeps_every_transition(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        ok, bad, running = selftest("ok"), selftest("fail"), selftest("ok:2")
        store = ResultStore(path)
        store.register([ok, bad, running])
        store.mark_running(ok.job_id)
        store.record_attempt(ok.job_id, 0, "done", "", 0.5)
        store.record_success(ok.job_id, {"n": 1}, 0.5)
        store.record_attempt(bad.job_id, 0, "error", "boom")
        store.record_failure(bad.job_id)
        store.mark_running(running.job_id)
        store.close()
        with ResultStore(path) as reopened:
            assert reopened.statuses() == {
                ok.job_id: "done", bad.job_id: "failed",
                running.job_id: "running",
            }
            assert reopened.payload(ok.job_id) == {"n": 1}
            assert reopened.attempts_of(ok.job_id) == 1
            assert reopened.attempts_of(bad.job_id) == 1

    def test_unflushed_transitions_are_invisible_to_other_readers(
        self, tmp_path
    ):
        path = str(tmp_path / "s.sqlite")
        spec = selftest("ok")
        with ResultStore(path) as writer:
            writer.register([spec])
            writer.record_success(spec.job_id, {"n": 1})
            with ResultStore(path) as reader:
                assert reader.completed_ids() == set()
            writer.flush()
            with ResultStore(path) as reader:
                assert reader.completed_ids() == {spec.job_id}


class TestSerialParentSigkill:
    def test_sigkill_then_resume_reaches_the_golden_digest(
        self, tmp_path, capsys
    ):
        """A hard-killed serial parent loses only uncommitted jobs.

        The driver runs the golden ``fuzz`` plan and SIGKILLs itself
        from the event callback of the 10th finished job, after that
        job's result was recorded but before any later commit: fewer
        than 10 jobs may come back done, and ``--resume`` must finish
        the store to the golden digest.
        """
        root = pathlib.Path(__file__).resolve().parent.parent
        path = str(tmp_path / "killed.sqlite")
        driver = tmp_path / "driver.py"
        driver.write_text(textwrap.dedent(
            f"""
            import os
            import signal
            import sys

            sys.path.insert(0, {str(root / "src")!r})
            from repro.core.fuzz import RandomErroneousStateCampaign
            from repro.runner import ResultStore, SerialRunner
            from repro.runner import events as ev
            from repro.xen.versions import version_by_name

            finished = []

            def on_event(event):
                if event.kind == ev.JOB_FINISHED:
                    finished.append(event.job_id)
                    if len(finished) == 10:
                        os.kill(os.getpid(), signal.SIGKILL)

            RandomErroneousStateCampaign(
                version_by_name("4.13"), seed=2023
            ).run(
                runs_per_component=3,
                runner=SerialRunner(on_event=on_event),
                store=ResultStore({path!r}),
            )
            """
        ))
        proc = subprocess.run(
            [sys.executable, str(driver)], timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        assert proc.returncode == -signal.SIGKILL
        with ResultStore(path) as store:
            summary = store.summary()
        assert summary.total == 15
        assert summary.done < 10
        assert summary.failed == 0

        argv = ["fuzz", "--version", "4.13", "--runs", "3", "--resume", path]
        assert cli_main(argv) == 0
        assert "resuming: " in capsys.readouterr().err
        golden = parity.load_golden()["fuzz"]
        assert golden["plan"] == {
            "kind": "fuzz", "version": "4.13", "runs": 3, "seed": 2023
        }
        assert parity.store_sha256(path) == golden["sha256"]


class _FakeProcess:
    """A live worker process stand-in for liveness checks."""

    def __init__(self):
        self.alive = True

    def is_alive(self) -> bool:
        return self.alive

    def terminate(self) -> None:
        self.alive = False

    kill = terminate

    def join(self, timeout=None) -> None:
        del timeout


class _FakeConn:
    def close(self) -> None:
        pass


class TestBootGrace:
    """Both configurations give a not-ready worker the one boot allowance."""

    @pytest.mark.parametrize(
        "fork_server", [False, True], ids=["spawn", "fork-server"]
    )
    def test_not_ready_grace_derives_from_boot_constant(
        self, monkeypatch, fork_server
    ):
        monkeypatch.setattr(pool_module, "_BOOT_GRACE", 7.5)
        spec = selftest("ok")
        verdicts = []
        for stale in (5.0, 10.0):
            pool = WorkerPool(
                jobs=1, liveness_grace=0.5, retries=0, fork_server=fork_server
            )
            worker = _Worker(
                worker_id=0, process=_FakeProcess(), inbox=_FakeConn(),
                conn=_FakeConn(), started_at=time.monotonic() - stale,
                batch=[(0, 0)],
            )
            workers = {0: worker}
            recorder = EventRecorder()
            pool._check_workers(
                workers, [], _Ledger([spec], None, recorder, 0, 0.0, 0.0)
            )
            verdicts.append((bool(workers), [
                event.detail for event in recorder.events
                if event.kind == ev.WORKER_UNRESPONSIVE
            ]))
        assert verdicts[0] == (True, [])  # inside the 7.5 s boot grace
        kept, [detail] = verdicts[1]
        assert not kept and "grace 7.5s" in detail


class _Inbox(_FakeConn):
    def __init__(self):
        self.sent: list = []

    def send(self, batch) -> None:
        self.sent.append(batch)


class _CountingQueue(list):
    """A pending queue that counts the entries a scan reads."""

    read = 0

    def __iter__(self):
        for entry in super().__iter__():
            self.read += 1
            yield entry


class TestAssign:
    def test_takes_the_first_ready_entries_and_stops_scanning(self):
        specs = [selftest(f"ok:{i}") for i in range(40)]
        pool = WorkerPool(jobs=2, batch=3, fork_server=True)
        later = time.monotonic() + 3600.0
        pending = _CountingQueue(
            [(0.0, 0, 0), (later, 1, 1), (0.0, 2, 0), (0.0, 3, 0),
             (0.0, 4, 0), (later, 5, 1), (0.0, 6, 0)]
            + [(0.0, index, 0) for index in range(7, 40)]
        )
        workers = {
            worker_id: _Worker(
                worker_id=worker_id, process=_FakeProcess(), inbox=_Inbox(),
            )
            for worker_id in (0, 1)
        }
        pool._assign(
            pending, workers, _Ledger(specs, None, None, 0, 0.0, 0.0)
        )
        assert workers[0].inbox.sent == [[(0, 0), (2, 0), (3, 0)]]
        assert workers[1].inbox.sent == [[(4, 0), (6, 0), (7, 0)]]
        assert pending[:3] == [(later, 1, 1), (later, 5, 1), (0.0, 8, 0)]
        assert len(pending) == 34
        # Each scan stops at its batch's last member: 4 + 5 entries read
        # of the 40 and 37 then queued.
        assert pending.read == 4 + 5


class TestStorePlanGuard:
    """Resuming against the wrong store must fail loudly, not silently
    report another campaign's results."""

    def test_identical_plan_is_accepted(self, tmp_path):
        specs = [selftest("ok"), selftest("fail")]
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path) as store:
            store.register(specs)
        with ResultStore(path) as store:
            store.register(specs)
            assert len(store.specs()) == 2

    def test_growing_the_campaign_is_accepted(self, tmp_path):
        specs = [selftest("ok"), selftest("fail"), selftest("ok:more")]
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path) as store:
            store.register(specs[:2])
        with ResultStore(path) as store:
            store.register(specs)
            assert len(store.specs()) == 3

    def test_partial_rerun_is_accepted(self, tmp_path):
        specs = [selftest("ok"), selftest("fail")]
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path) as store:
            store.register(specs)
        with ResultStore(path) as store:
            store.register(specs[:1])

    def test_different_plan_is_rejected(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path) as store:
            store.register(plan_fuzz("4.13", ["idt"], 1, 3))
        with ResultStore(path) as store:
            with pytest.raises(StorePlanMismatch, match="different campaign"):
                store.register([selftest("ok"), selftest("fail")])

    def test_runner_surfaces_the_mismatch(self, tmp_path):
        """The guard fires through the normal resume path, not only on
        direct store use."""
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path) as store:
            SerialRunner().run([selftest("ok")], store=store)
        with ResultStore(path) as store:
            with pytest.raises(StorePlanMismatch):
                SerialRunner().run(
                    [selftest("flaky:0"), selftest("ok:other")], store=store
                )


class TestSerialRunner:
    def test_executes_and_reports_events(self):
        recorder = EventRecorder()
        outcome = SerialRunner(on_event=recorder).run([selftest("ok")])
        assert not outcome.failures
        assert recorder.kinds() == [
            ev.JOB_STARTED, ev.JOB_FINISHED, ev.CAMPAIGN_FINISHED,
        ]
        finished = recorder.events[1]
        assert (finished.done, finished.total) == (1, 1)

    def test_transient_failure_retried_to_success(self):
        outcome = SerialRunner(retries=2).run([selftest("flaky:2")])
        [payload] = outcome.results.values()
        assert payload["attempt"] == 2 and not outcome.failures

    def test_permanent_failure_not_retried(self):
        recorder = EventRecorder()
        outcome = SerialRunner(retries=3, on_event=recorder).run([selftest("fail")])
        assert len(outcome.failures) == 1
        assert ev.JOB_RETRIED not in recorder.kinds()

    def test_resume_skips_completed_jobs(self, tmp_path):
        specs = [selftest("ok"), selftest("flaky:0"), selftest("ok:again")]
        path = str(tmp_path / "resume.sqlite")
        with ResultStore(path) as store:
            SerialRunner().run(specs[:2], store=store)
        with ResultStore(path) as store:
            recorder = EventRecorder()
            outcome = SerialRunner(on_event=recorder).run(specs, store=store)
            assert outcome.skipped == {specs[0].job_id, specs[1].job_id}
            assert recorder.kinds().count(ev.JOB_SKIPPED) == 2
            # the done jobs were not re-attempted
            assert store.attempts_of(specs[0].job_id) == 1
            assert len(outcome.results) == 3

    def test_failed_jobs_requeued_on_resume(self, tmp_path):
        path = str(tmp_path / "requeue.sqlite")
        flaky = selftest("flaky:1")
        with ResultStore(path) as store:
            outcome = SerialRunner(retries=0).run([flaky], store=store)
            assert flaky.job_id in outcome.failures
        with ResultStore(path) as store:
            outcome = SerialRunner(retries=1).run([flaky], store=store)
            assert flaky.job_id in outcome.results

    def test_payloads_for_raises_on_failures(self):
        outcome = SerialRunner(retries=0).run([selftest("fail")])
        with pytest.raises(CampaignFailed, match="1 job"):
            outcome.payloads_for([selftest("fail")])

    def test_no_event_is_built_without_a_listener(self, monkeypatch):
        def no_events(**fields):
            raise AssertionError("built a RunnerEvent nobody listens to")

        monkeypatch.setattr(ev, "RunnerEvent", no_events)
        specs = [selftest("ok"), selftest("flaky:1"), selftest("fail")]
        outcome = SerialRunner(retries=1).run(specs)
        assert len(outcome.results) == 2 and len(outcome.failures) == 1
        hub = ev.EventHub(total=3)
        for kind in (ev.JOB_STARTED, ev.JOB_FINISHED, ev.JOB_FAILED):
            hub.emit(kind)
        assert hub.completed == 2


class TestWorkerPool:
    def test_timeout_kills_worker_and_campaign_survives(self):
        recorder = EventRecorder()
        pool = WorkerPool(jobs=2, timeout=1.0, retries=0, on_event=recorder)
        specs = [selftest("hang:60"), selftest("ok"), selftest("ok:2"),
                 selftest("ok:3")]
        outcome = pool.run(specs)
        assert specs[0].job_id in outcome.failures
        assert "wall-clock" in outcome.failures[specs[0].job_id]
        assert len(outcome.results) == 3
        assert ev.JOB_TIMEOUT in recorder.kinds()

    def test_worker_crash_fails_only_its_job(self):
        recorder = EventRecorder()
        pool = WorkerPool(jobs=2, retries=0, on_event=recorder)
        specs = [selftest("crash"), selftest("ok"), selftest("ok:2"),
                 selftest("ok:3")]
        outcome = pool.run(specs)
        assert "crashed" in outcome.failures[specs[0].job_id]
        assert len(outcome.results) == 3
        assert ev.WORKER_CRASHED in recorder.kinds()

    def test_transient_failure_retried_across_workers(self):
        pool = WorkerPool(jobs=2, retries=1)
        outcome = pool.run([selftest("flaky:1"), selftest("ok")])
        assert not outcome.failures
        flaky_payload = outcome.results[selftest("flaky:1").job_id]
        assert flaky_payload["attempt"] == 1

    def test_resume_completes_half_finished_store(self, tmp_path):
        specs = plan_fuzz("4.13", ["idt", "victim-data"], 2, 7)
        path = str(tmp_path / "half.sqlite")
        with ResultStore(path) as store:
            SerialRunner().run(specs[:2], store=store)
        with ResultStore(path) as store:
            outcome = WorkerPool(jobs=2).run(specs, store=store)
            assert not outcome.failures and len(outcome.results) == 4
            assert outcome.skipped == {s.job_id for s in specs[:2]}
            for spec in specs[:2]:
                assert store.attempts_of(spec.job_id) == 1
            assert store.summary().done == 4

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0)
        with pytest.raises(ValueError):
            make_runner(jobs=0)

    def test_make_runner_picks_implementation(self):
        assert isinstance(make_runner(jobs=1), SerialRunner)
        assert isinstance(make_runner(jobs=4), WorkerPool)


_ENGINES = {
    "serial": lambda recorder: SerialRunner(retries=1, on_event=recorder),
    "spawn": lambda recorder: WorkerPool(
        jobs=2, retries=1, on_event=recorder
    ),
    "fork-server": lambda recorder: WorkerPool(
        jobs=2, retries=1, fork_server=True, batch=2, on_event=recorder
    ),
}


class TestLedgerContract:
    """Every engine writes the same books for the same job history."""

    SPECS = [selftest("ok"), selftest("flaky:1"), selftest("fail")]

    @staticmethod
    def _books(engine, tmp_path):
        recorder = EventRecorder()
        path = str(tmp_path / f"{engine}.sqlite")
        with ResultStore(path) as store:
            _ENGINES[engine](recorder).run(TestLedgerContract.SPECS, store)
            statuses = store.statuses()
        with sqlite3.connect(path) as conn:
            attempts = conn.execute(
                "SELECT job_id, attempt, status, detail FROM attempts"
                " ORDER BY job_id, attempt"
            ).fetchall()
        kinds = {}
        for event in recorder.events:
            if event.job_id:
                kinds.setdefault(event.job_id, []).append(event.kind)
        return attempts, statuses, kinds

    @pytest.mark.parametrize("engine", sorted(_ENGINES))
    def test_same_attempt_rows_statuses_and_events(self, engine, tmp_path):
        ok, flaky, fail = (spec.job_id for spec in self.SPECS)
        attempts, statuses, kinds = self._books(engine, tmp_path)
        assert attempts == sorted([
            (ok, 0, "done", ""),
            (flaky, 0, "error",
             "TransientJobError: selftest: flaky attempt 0"),
            (flaky, 1, "done", ""),
            (fail, 0, "error", "RuntimeError: selftest: permanent failure"),
        ])
        assert statuses == {ok: "done", flaky: "done", fail: "failed"}
        assert kinds == {
            ok: [ev.JOB_STARTED, ev.JOB_FINISHED],
            flaky: [
                ev.JOB_STARTED, ev.JOB_RETRIED, ev.JOB_STARTED,
                ev.JOB_FINISHED,
            ],
            fail: [ev.JOB_STARTED, ev.JOB_FAILED],
        }
        if engine != "serial":
            assert (attempts, statuses, kinds) == self._books(
                "serial", tmp_path
            )


class TestWorkerStartMethod:
    """Workers fork from a preloaded stdlib forkserver, yet start as
    free of parent state as spawn workers."""

    def test_workers_fork_from_the_forkserver(self):
        assert WorkerPool(jobs=1)._ctx.get_start_method() == "forkserver"

    def test_workers_start_with_the_preload_imported(self):
        spec = selftest("ok")
        outcome = WorkerPool(
            jobs=1, job_fn=pool_probes.report_preloaded
        ).run([spec])
        assert outcome.results[spec.job_id]["loaded"] == sorted(
            jobs_module.WORKER_PRELOAD
        )

    def test_parent_module_state_does_not_reach_workers(self, monkeypatch):
        monkeypatch.setattr(pool_probes, "MARKER", "patched-in-parent")
        spec = selftest("ok")
        outcome = WorkerPool(jobs=1, job_fn=pool_probes.report_marker).run(
            [spec]
        )
        assert outcome.results[spec.job_id] == {"marker": "pristine"}

    def test_worker_cpu_reaches_the_parents_child_usage(self):
        # A process that ran a pool reaps its forkserver at exit, so
        # whoever reaps that process sees the workers' CPU time in
        # RUSAGE_CHILDREN, as it would for direct children.
        root = pathlib.Path(__file__).resolve().parent.parent
        code = (
            f"import sys; sys.path[:0] = [{str(root / 'src')!r}, {str(root)!r}]\n"
            "import resource\n"
            "from repro.runner import WorkerPool, JobSpec\n"
            "from tests import pool_probes\n"
            "specs = [JobSpec(kind='selftest', use_case=str(i)) for i in range(2)]\n"
            "WorkerPool(jobs=2, job_fn=pool_probes.burn_cpu).run(specs)\n"
            "own = resource.getrusage(resource.RUSAGE_SELF)\n"
            "print(own.ru_utime + own.ru_stime)\n"
        )
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=True,
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        children = (after.ru_utime + after.ru_stime) - (
            before.ru_utime + before.ru_stime
        )
        own = float(proc.stdout.strip())
        assert children - own >= 2 * pool_probes.BURN_CPU_S

    @pytest.mark.parametrize(
        "fork_server", [False, True], ids=["spawn", "fork-server"]
    )
    def test_jobs_import_nothing_past_the_warm_fork_point(self, fork_server):
        # A clean interpreter, so the fork-server parent holds only what
        # the pool itself imports before its first fork.
        root = pathlib.Path(__file__).resolve().parent.parent
        code = (
            f"import sys; sys.path[:0] = [{str(root / 'src')!r}, {str(root)!r}]\n"
            "import functools, json\n"
            "from repro.runner import JobSpec, WorkerPool\n"
            "from tests import pool_probes\n"
            "spec = JobSpec(kind='selftest', use_case='ok')\n"
            f"probe = functools.partial(pool_probes.report_new_imports, {fork_server})\n"
            f"pool = WorkerPool(jobs=1, fork_server={fork_server}, job_fn=probe)\n"
            "print(json.dumps(pool.run([spec]).results[spec.job_id]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert json.loads(proc.stdout) == {"imported": []}

    def test_preload_covers_every_lazy_worker_import(self):
        tree = ast.parse(inspect.getsource(jobs_module))
        lazy = {
            node.module
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.ImportFrom) and node.module.startswith("repro")
        }
        assert lazy and lazy <= set(jobs_module.WORKER_PRELOAD)
        assert "__main__" not in jobs_module.WORKER_PRELOAD


class TestParallelFuzzParity:
    def test_parallel_fuzz_matches_serial_counter(self):
        serial = FuzzCampaign(XEN_4_13, seed=11).run(runs_per_component=2)
        parallel = FuzzCampaign(XEN_4_13, seed=11).run(
            runs_per_component=2, runner=WorkerPool(jobs=2)
        )
        assert Counter(r.outcome for r in serial.results) == Counter(
            r.outcome for r in parallel.results
        )
        assert [(r.component, r.mfn, r.word, r.value, r.seed)
                for r in serial.results] == \
               [(r.component, r.mfn, r.word, r.value, r.seed)
                for r in parallel.results]
        assert serial.render() == parallel.render()

    def test_trial_is_replayable_standalone_from_its_seed(self):
        campaign = FuzzCampaign(XEN_4_13, seed=5)
        report = campaign.run(runs_per_component=1)
        for result in report.results:
            replayed = campaign.replay(result.component, result.seed)
            assert replayed == result

    def test_custom_components_rejected_on_parallel_path(self):
        from repro.core.fuzz import ComponentTarget

        campaign = FuzzCampaign(
            XEN_4_13,
            components=[ComponentTarget("custom", lambda bed: [1])],
        )
        with pytest.raises(ValueError, match="custom"):
            campaign.run(runs_per_component=1, runner=SerialRunner())


class TestExecuteJob:
    def test_campaign_run_payload_shape(self):
        spec = JobSpec(
            kind="campaign-run", use_case="XSA-182-test", version="4.8",
            mode="injection",
        )
        payload = execute_job(spec)
        assert payload["use_case"] == "XSA-182-test"
        assert payload["erroneous_state"]["achieved"] is True

    def test_testcase_payload_shape(self):
        spec = JobSpec(kind="testcase", use_case="xsa-182-test", version="4.13")
        payload = execute_job(spec)
        assert payload["name"] == "xsa-182-test"
        assert "violation" in payload

    def test_benchmark_payload_shape(self):
        spec = JobSpec(
            kind="benchmark-case", use_case="interrupt-storm", version="4.13"
        )
        payload = execute_job(spec)
        assert payload["attribute"] == "availability"


#: One job of every kind that runs on a testbed.
BED_JOBS = {
    "matrix-cell": plan_campaign(["XSA-212-crash"], ["4.6"], ["exploit"])[0],
    "cross-domain-cell": plan_campaign(
        ["xdom-ring-tamper"], ["4.6"], ["exploit"],
        topology=CROSS_DOMAIN_TOPOLOGY.spec_value(),
    )[0],
    "fuzz-trial": plan_fuzz("4.13", ["idt"], 1, 7)[0],
    "synthetic-trial": JobSpec(
        kind="fuzz-trial", use_case=derive_spec(2023, 3).id, version="4.8",
        mode="bitflip", seed=5, trial=0, metrics=True,
    ),
    "benchmark-case": plan_benchmark(["host-hang"], ["4.13"])[0],
    "testcase": plan_testcases(["xsa-148-priv"], "4.6")[0],
}


class TestOneLeasePerJob:
    """``execute_job`` gets every job its bed, through one lease call."""

    @staticmethod
    def _run(spec):
        leases, boots = [], []
        original_init = Xen.__init__

        def counting_init(self, *args, **kwargs):
            boots.append(spec.job_id)
            original_init(self, *args, **kwargs)

        def counting_lease(leased_spec, attempt, boot):
            leases.append(leased_spec.job_id)
            return boot()

        with mock.patch.object(Xen, "__init__", counting_init):
            payload = execute_job(spec, lease=counting_lease)
        return payload, leases, boots

    @pytest.mark.parametrize("name", sorted(BED_JOBS))
    def test_every_bed_job_leases_once_and_boots_only_through_it(self, name):
        spec = BED_JOBS[name]
        payload, leases, boots = self._run(spec)
        assert leases == [spec.job_id]
        assert boots == [spec.job_id]  # the lease's boot, and no other
        assert payload == execute_job(spec)

    def test_selftests_take_no_bed(self):
        payload, leases, boots = self._run(selftest("ok"))
        assert payload["status"] == "ok"
        assert leases == boots == []

    def test_unknown_names_raise_key_error(self):
        for spec in (
            JobSpec(kind="benchmark-case", use_case="nope", version="4.13"),
            JobSpec(kind="testcase", use_case="nope", version="4.13"),
        ):
            with pytest.raises(KeyError):
                execute_job(spec)


class TestCliIntegration:
    def run_fuzz(self, capsys, *extra) -> str:
        code = cli_main(
            ["fuzz", "--runs", "2", "--seed", "7", "--version", "4.13", *extra]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_jobs_4_matches_jobs_1(self, capsys):
        serial = self.run_fuzz(capsys, "--jobs", "1")
        parallel = self.run_fuzz(capsys, "--jobs", "4")
        assert parallel == serial

    def test_store_then_resume_skips_done_jobs(self, capsys, tmp_path):
        path = str(tmp_path / "cli.sqlite")
        first = self.run_fuzz(capsys, "--store", path)
        with ResultStore(path) as store:
            attempts = {
                spec.job_id: store.attempts_of(spec.job_id)
                for spec in store.specs()
            }
            assert all(count == 1 for count in attempts.values())
        resumed = self.run_fuzz(capsys, "--resume", path)
        assert resumed == first
        with ResultStore(path) as store:
            for job_id, count in attempts.items():
                assert store.attempts_of(job_id) == count  # no re-execution

    def test_testcase_suite_accepts_runner_flags(self, capsys, tmp_path):
        path = str(tmp_path / "suite.sqlite")
        code = cli_main(["testcase", "suite", "--store", path])
        assert code == 0
        plain = capsys.readouterr().out
        assert "handled" in plain
        with ResultStore(path) as store:
            assert store.summary().done == len(store.specs()) > 0


class TestStoreSchemaVersion:
    """Stores stamp their schema version on creation; opening a store
    written under a different version fails with a typed error instead
    of silently misreading its specs and payloads."""

    def test_fresh_store_is_stamped_and_reopens(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path) as store:
            store.register([selftest("ok")])
        with ResultStore(path) as store:  # same build: resume is fine
            assert len(store.specs()) == 1
        conn = sqlite3.connect(path)
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        conn.close()
        assert row == (str(SCHEMA_VERSION),)

    def test_unstamped_populated_store_counts_as_version_one(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path) as store:
            store.register([selftest("ok")])
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM meta WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaMismatch) as excinfo:
            ResultStore(path)
        assert excinfo.value.found == 1
        assert excinfo.value.expected == SCHEMA_VERSION
        assert "older" in str(excinfo.value)

    def test_newer_store_is_rejected(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaMismatch) as excinfo:
            ResultStore(path)
        assert excinfo.value.found == 99
        assert "newer" in str(excinfo.value)

    def test_mismatch_is_importable_from_the_package(self):
        from repro.runner import StoreSchemaMismatch as exported

        assert exported is StoreSchemaMismatch
