"""Tests for fork-server execution: checkpoints, cache, pool, shutdown.

Three layers of coverage:

* :class:`~repro.core.checkpoint.TestbedCheckpoint` — capture/restore
  is an exact inverse (a hypothesis property over ≥3 consecutive
  reuses), and a corrupted checkpoint is *detected*, never silently
  used;
* frame-table fidelity — a restored bed's frame table equals the
  capture-time table record for record, and no record is shared
  between the live table and the checkpoint;
* the worker-side snapshot cache (``execute_job_cached``) — byte
  parity with the cold-boot executor, divergence eviction and
  cold-boot fallback;
* :class:`~repro.runner.forkserver.ForkServerPool` — batch dispatch,
  crash/timeout recovery mid-batch, worker recycling, degradation to
  the spawn pool, graceful interruption with exact resume, and the
  no-orphan-survives-parent-SIGKILL regression.
"""

import copy
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.checkpoint import CheckpointDiverged, TestbedCheckpoint
from repro.core.fuzz import RandomErroneousStateCampaign
from repro.core.testbed import build_testbed
from repro.resilience import RECOVERED, RecoveryManager
from repro.runner import (
    EventRecorder,
    ForkServerPool,
    JobSpec,
    ResultStore,
    SerialRunner,
    execute_job,
    execute_job_cached,
    plan_fuzz,
)
from repro.runner import events as ev
from repro.runner import forkserver
from repro.runner.forkserver import _reset_worker_cache, preferred_context
from repro.xen.frames import PageType
from repro.xen.snapshot import machine_digest
from repro.xen.versions import XEN_4_13
from tests.conftest import CommitCountingStore, churn_frames, frame_table

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def selftest(behaviour: str, tag: str = "") -> JobSpec:
    return JobSpec(kind="selftest", use_case=behaviour, version=tag)


def no_orphans() -> bool:
    return multiprocessing.active_children() == []


def _instant_job(spec: JobSpec, attempt: int) -> dict:
    return {"use_case": spec.use_case, "attempt": attempt}


def _corrupt(checkpoint: TestbedCheckpoint, word: int = 0) -> None:
    """Flip one bit of the checkpoint's cached snapshot bytes."""
    frames = checkpoint.snapshot._frames
    mfn = min(frames)
    frames[mfn][word] = frames[mfn][word] ^ type(frames[mfn][word])(0x1)


class TestTestbedCheckpoint:
    def test_restore_is_digest_exact_after_a_trial(self):
        campaign = RandomErroneousStateCampaign(XEN_4_13)
        bed = build_testbed(XEN_4_13)
        checkpoint = TestbedCheckpoint.capture(bed)
        campaign.run_trial_on(bed, campaign.components[0], seed=42)
        assert not checkpoint.verify(bed)  # the trial really mutated state
        rewritten = checkpoint.restore(bed)
        assert rewritten > 0
        assert checkpoint.verify(bed)
        assert machine_digest(bed.xen.machine) == checkpoint.digest

    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**63 - 1),
            min_size=3, max_size=5,
        ),
        component_index=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_reused_bed_matches_fresh_boots(self, seeds, component_index):
        """≥3 consecutive restore-reuses are byte-exact.

        Each seed's trial on the restored bed must equal the same
        seed's trial on a fresh-booted bed, and every intermediate
        restore must reproduce the capture digest (restore verifies
        internally; a divergence would raise).
        """
        campaign = RandomErroneousStateCampaign(XEN_4_13)
        component = campaign.components[component_index]
        expected = [campaign.run_trial(component, seed) for seed in seeds]
        bed = build_testbed(XEN_4_13)
        checkpoint = TestbedCheckpoint.capture(bed)
        for seed, want in zip(seeds, expected):
            checkpoint.restore(bed)
            assert campaign.run_trial_on(bed, component, seed) == want
        checkpoint.restore(bed)
        assert machine_digest(bed.xen.machine) == checkpoint.digest

    def test_corruption_is_detected_not_silently_used(self):
        campaign = RandomErroneousStateCampaign(XEN_4_13)
        component = campaign.components[0]
        reference = campaign.run_trial(component, seed=7)

        bed = build_testbed(XEN_4_13)
        checkpoint = TestbedCheckpoint.capture(bed)
        checkpoint.restore(bed)  # healthy restore first
        _corrupt(checkpoint)
        with pytest.raises(CheckpointDiverged) as excinfo:
            checkpoint.restore(bed)
        assert excinfo.value.expected != excinfo.value.actual
        # the cold-boot fallback path yields the identical result
        fresh = build_testbed(XEN_4_13)
        assert campaign.run_trial_on(fresh, component, seed=7) == reference

    def test_unverified_restore_can_be_checked_explicitly(self):
        bed = build_testbed(XEN_4_13)
        checkpoint = TestbedCheckpoint.capture(bed)
        _corrupt(checkpoint)
        checkpoint.restore(bed, verify=False)  # caller opted out
        assert not checkpoint.verify(bed)


class TestFrameTableFidelity:
    def test_restored_table_equals_capture_and_fresh_boot(self):
        campaign = RandomErroneousStateCampaign(XEN_4_13)
        bed = build_testbed(XEN_4_13)
        checkpoint = TestbedCheckpoint.capture(bed)
        captured = frame_table(bed)
        for seed in (3, 4):
            campaign.run_trial_on(bed, campaign.components[0], seed)
            churn_frames(bed)
            assert frame_table(bed) != captured  # the churn really moved it
            checkpoint.restore(bed)
            restored = frame_table(bed)
            assert restored.keys() == captured.keys()
            for mfn, fields in captured.items():
                assert restored[mfn] == fields, mfn
        assert frame_table(build_testbed(XEN_4_13)) == captured

    def test_no_record_is_shared_with_the_checkpoint(self):
        bed = build_testbed(XEN_4_13)
        checkpoint = TestbedCheckpoint.capture(bed)
        captured = frame_table(bed)
        for _ in range(2):  # capture-time records, then restored ones
            for record in bed.xen.frames._info.values():
                record.count += 7
                record.type = PageType.WRITABLE
                record.pinned = not record.pinned
                record.owner = 99
            checkpoint.restore(bed)
            assert frame_table(bed) == captured
        live = bed.xen.frames._info
        assert all(live[mfn] is not checkpoint.frame_info[mfn] for mfn in live)

    def test_hot_path_never_deep_copies(self, monkeypatch):
        """Capture, restore and microreboot recovery copy the frame
        table with the typed record copy, never ``copy.deepcopy``."""
        campaign = RandomErroneousStateCampaign(XEN_4_13)
        bed = build_testbed(XEN_4_13)

        def forbidden(*args, **kwargs):
            raise AssertionError("copy.deepcopy on the checkpoint path")

        with monkeypatch.context() as patch:
            patch.setattr(copy, "deepcopy", forbidden)
            checkpoint = TestbedCheckpoint.capture(bed)
            manager = RecoveryManager(bed)
            manager.checkpoint()
        campaign.run_trial_on(bed, campaign.components[0], seed=5)
        with monkeypatch.context() as patch:
            patch.setattr(copy, "deepcopy", forbidden)
            assert manager.recover().outcome == RECOVERED
            assert checkpoint.restore(bed) == 0  # recovery already rolled back


class TestExecuteJobCached:
    def setup_method(self):
        _reset_worker_cache()

    def test_parity_with_cold_executor(self):
        specs = plan_fuzz("4.13", ["idt", "victim-data"], 3, 20230701)
        reference = [execute_job(spec) for spec in specs]
        assert [execute_job_cached(spec) for spec in specs] == reference
        assert forkserver._CACHE_STATS["forkserver.captures"] == 1
        assert forkserver._CACHE_STATS["forkserver.restores"] == len(specs) - 1

    def test_rotten_cache_evicts_and_cold_boots_identically(self):
        spec = plan_fuzz("4.13", ["idt"], 2, 99)[0]
        reference = execute_job(spec)
        assert execute_job_cached(spec) == reference  # populates the cache
        _corrupt(forkserver._CACHE[spec.version].checkpoint)
        assert execute_job_cached(spec) == reference  # detected, cold-booted
        assert forkserver._CACHE_STATS["forkserver.restore.diverged"] == 1
        assert forkserver._CACHE_STATS["forkserver.cold_boots"] == 1
        assert [e["kind"] for e in forkserver._INFRA] == ["restore-diverged"]
        # the evicted entry was re-captured: the next trial restores again
        assert execute_job_cached(spec) == reference
        assert forkserver._CACHE_STATS["forkserver.captures"] == 2

    def test_non_fuzz_jobs_fall_through(self):
        spec = selftest("ok")
        payload = execute_job_cached(spec)
        assert payload["status"] == "ok"
        assert forkserver._CACHE == {}


@dataclass
class _CorruptEveryRestore:
    """Test-only restore chaos: rot the cache before every warm restore."""

    def before_restore(self, entry, job_id: str, attempt: int) -> None:
        _corrupt(entry.checkpoint)


class _RottenCachePool(ForkServerPool):
    def _restore_chaos(self):
        return _CorruptEveryRestore()


class TestForkServerPool:
    def test_fuzz_parity_with_serial(self):
        specs = plan_fuzz("4.13", ["idt", "m2p"], 4, 20230701)
        reference = SerialRunner().run(specs)
        pool = ForkServerPool(jobs=2, batch=3)
        outcome = pool.run(specs)
        assert not outcome.failures
        for spec in specs:
            assert outcome.results[spec.job_id] == reference.results[spec.job_id]
        assert pool.stats["forkserver.restores"] > 0
        served = (
            pool.stats["forkserver.restores"]
            + pool.stats["forkserver.captures"]
        )
        assert served == len(specs)
        assert no_orphans()

    def test_trailing_batch_done_counters_are_never_lost(self):
        """Every worker's last ``batch-done`` frame (its restore and
        capture counters) is accounted before ``run`` returns, however
        the final batches land relative to each other."""
        for round_ in range(20):
            specs = plan_fuzz("4.13", ["idt", "m2p"], 3, 20230701 + round_)
            pool = ForkServerPool(jobs=2, batch=1 + round_ % 3)
            outcome = pool.run(specs)
            assert not outcome.failures
            served = pool.stats.get("forkserver.restores", 0) + pool.stats.get(
                "forkserver.captures", 0
            )
            assert served == len(specs), (round_, pool.stats)
        assert no_orphans()

    def test_crash_mid_batch_salvages_streamed_results(self):
        recorder = EventRecorder()
        specs = (
            [selftest("ok", f"a{i}") for i in range(3)]
            + [selftest("crash", "x")]
            + [selftest("ok", f"b{i}") for i in range(3)]
        )
        pool = ForkServerPool(
            jobs=1, batch=len(specs), retries=0, poison_threshold=99,
            on_event=recorder,
        )
        outcome = pool.run(specs)
        # members before the crash completed; members after it were
        # re-queued onto the replacement worker and completed too
        assert len(outcome.results) == 6
        assert set(outcome.failures) == {selftest("crash", "x").job_id}
        assert ev.WORKER_CRASHED in recorder.kinds()
        assert no_orphans()

    def test_timeout_mid_batch_charges_only_the_stuck_member(self):
        recorder = EventRecorder()
        specs = [
            selftest("ok", "t1"), selftest("hang:60", "t2"),
            selftest("ok", "t3"),
        ]
        pool = ForkServerPool(
            jobs=1, batch=3, timeout=1.0, retries=0, poison_threshold=99,
            on_event=recorder,
        )
        outcome = pool.run(specs)
        assert set(outcome.failures) == {specs[1].job_id}
        assert len(outcome.results) == 2
        assert ev.JOB_TIMEOUT in recorder.kinds()
        assert no_orphans()

    def test_workers_recycled_after_serving_limit(self):
        recorder = EventRecorder()
        specs = [selftest("ok", f"r{i}") for i in range(10)]
        pool = ForkServerPool(
            jobs=1, batch=2, recycle_after=4, on_event=recorder
        )
        outcome = pool.run(specs)
        assert not outcome.failures and len(outcome.results) == 10
        assert ev.WORKER_RECYCLED in recorder.kinds()
        assert pool.stats["forkserver.workers.recycled"] >= 2
        assert pool.metrics.counters["forkserver.workers.recycled"] >= 2
        # recycled workers were actually replaced by fresh processes
        assert len({p["pid"] for p in outcome.results.values()}) >= 2
        assert no_orphans()

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_restore_divergence_evicts_and_stays_correct(self):
        recorder = EventRecorder()
        specs = plan_fuzz("4.13", ["idt"], 6, 20230701)
        reference = SerialRunner().run(specs)
        pool = _RottenCachePool(jobs=1, batch=2, on_event=recorder)
        outcome = pool.run(specs)
        assert not outcome.failures
        for spec in specs:
            assert outcome.results[spec.job_id] == reference.results[spec.job_id]
        assert ev.RESTORE_DIVERGED in recorder.kinds()
        assert pool.stats["forkserver.restore.diverged"] > 0
        assert pool.stats["forkserver.cold_boots"] > 0
        assert (
            pool.metrics.counters["forkserver.restore.diverged"]
            == pool.stats["forkserver.restore.diverged"]
        )
        assert no_orphans()

    def test_circuit_open_degrades_to_spawn_pool(self):
        recorder = EventRecorder()
        specs = [selftest("crash", f"c{i}") for i in range(4)] + [
            selftest("ok", f"d{i}") for i in range(4)
        ]
        pool = ForkServerPool(
            jobs=2, batch=1, retries=0, poison_threshold=99,
            circuit_threshold=3, on_event=recorder,
        )
        outcome = pool.run(specs)
        assert ev.POOL_DEGRADED in recorder.kinds()
        assert pool.stats["forkserver.degraded"] == 1
        # every healthy job completed despite the open circuit
        for spec in specs:
            if spec.use_case == "ok":
                assert spec.job_id in outcome.results
        assert no_orphans()

    def test_degrade_false_fails_fast_like_the_base_pool(self):
        recorder = EventRecorder()
        specs = [selftest("crash", f"c{i}") for i in range(3)] + [
            selftest("ok", "tail")
        ]
        pool = ForkServerPool(
            jobs=1, batch=1, retries=0, poison_threshold=99,
            circuit_threshold=2, degrade=False, on_event=recorder,
        )
        outcome = pool.run(specs)
        assert ev.POOL_DEGRADED not in recorder.kinds()
        assert specs[-1].job_id in outcome.failures
        assert no_orphans()

    def test_resume_skips_completed_jobs(self, tmp_path):
        specs = [selftest("ok", f"s{i}") for i in range(6)]
        path = str(tmp_path / "fs.sqlite")
        with ResultStore(path) as store:
            SerialRunner(job_fn=_instant_job).run(specs[:3], store=store)
        with ResultStore(path) as store:
            recorder = EventRecorder()
            outcome = ForkServerPool(
                jobs=1, batch=2, on_event=recorder
            ).run(specs, store=store)
            assert outcome.skipped == {s.job_id for s in specs[:3]}
            assert store.summary().done == 6
            for spec in specs[:3]:
                assert store.attempts_of(spec.job_id) == 1  # not re-run
        assert no_orphans()


class TestGroupCommit:
    def test_fuzz_run_commits_once_per_round_and_readers_see_a_prefix(
        self, tmp_path
    ):
        specs = plan_fuzz("4.13", ["idt", "m2p"], 100, 11)
        assert len(specs) == 200
        path = str(tmp_path / "gc.sqlite")
        finished: list = []
        observed: list = []

        def on_event(event) -> None:
            if event.kind != ev.JOB_FINISHED:
                return
            finished.append(event.job_id)
            if len(finished) == 50:
                # Mid-round: the writer holds an open transaction.
                with ResultStore(path) as reader:
                    observed.append(reader.completed_ids())

        store = CommitCountingStore(path)
        try:
            store.commits = 0
            outcome = ForkServerPool(jobs=2, on_event=on_event).run(
                specs, store=store
            )
            assert not outcome.failures and len(outcome.results) == 200
            assert store.commits / len(specs) <= 1.25
        finally:
            store.close()
        # The reader saw the jobs committed by earlier rounds: a prefix
        # of the completion order, never the current round's tail.
        [done] = observed
        assert 0 < len(done) < 50
        assert done == set(finished[:len(done)])
        assert no_orphans()


class TestGracefulShutdown:
    def test_sigterm_flushes_batch_back_and_resumes_exactly(self, tmp_path):
        """In-flight batch members are never recorded: resume is exact."""
        specs = [
            selftest("ok", "g1"), selftest("hang:60", "g2"),
            selftest("ok", "g3"),
        ]
        path = str(tmp_path / "int.sqlite")

        def sigterm_once_workers_exist() -> None:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if multiprocessing.active_children():
                    break
                time.sleep(0.05)
            time.sleep(0.3)  # let the first batch member complete
            os.kill(os.getpid(), signal.SIGTERM)

        threading.Thread(target=sigterm_once_workers_exist, daemon=True).start()
        with ResultStore(path) as store:
            outcome = ForkServerPool(jobs=1, batch=3, retries=0).run(
                specs, store=store
            )
            assert outcome.interrupted
            assert outcome.interrupt_signal == "SIGTERM"
            summary = store.summary()
            assert summary.failed == 0  # abandoned members are NOT failures
            assert summary.done <= 2
        assert no_orphans()
        with ResultStore(path) as store:
            resumed = SerialRunner(job_fn=_instant_job).run(specs, store=store)
            assert not resumed.failures and not resumed.interrupted
            assert store.summary().done == 3
            # completed members were skipped, not re-executed
            for job_id in resumed.skipped:
                assert store.attempts_of(job_id) == 1

    def test_no_worker_survives_parent_sigkill(self, tmp_path):
        """Persistent workers must not outlive a hard-killed parent.

        SIGKILL skips atexit and daemon teardown entirely; the workers'
        parent-death watchdog (the heartbeat thread) is what must catch
        the orphaning.  This is the regression test for the
        fork-server's graceful-shutdown coverage.
        """
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        driver = tmp_path / "driver.py"
        driver.write_text(textwrap.dedent(
            f"""
            import multiprocessing
            import sys
            import threading
            import time

            sys.path.insert(0, {os.path.abspath(src)!r})
            from repro.runner.forkserver import ForkServerPool
            from repro.runner.jobs import JobSpec

            specs = [
                JobSpec(kind="selftest", use_case="hang:300", version=str(i))
                for i in range(2)
            ]
            pool = ForkServerPool(jobs=2, batch=1, retries=0,
                                  beat_interval=0.1)
            thread = threading.Thread(
                target=pool.run, args=(specs,), daemon=True
            )
            thread.start()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                children = multiprocessing.active_children()
                if len(children) >= 2:
                    print(" ".join(str(p.pid) for p in children), flush=True)
                    break
                time.sleep(0.05)
            time.sleep(600)
            """
        ))
        proc = subprocess.Popen(
            [sys.executable, str(driver)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            worker_pids = [int(token) for token in line.split()]
            assert len(worker_pids) >= 2
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not any(self._alive(pid) for pid in worker_pids):
                    break
                time.sleep(0.1)
            survivors = [pid for pid in worker_pids if self._alive(pid)]
            assert survivors == [], (
                f"workers {survivors} outlived their SIGKILLed parent"
            )
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

    def test_parent_sigkill_mid_round_then_resume_matches_serial(
        self, tmp_path, capsys
    ):
        """A hard-killed parent loses at most its uncommitted round.

        The driver SIGKILLs itself from the event callback of the 30th
        finished job, after that job's result was recorded but before
        the round's commit: the store must come back with fewer than
        30 done jobs, and ``--resume`` must finish the campaign with
        output identical to a serial run.
        """
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = str(tmp_path / "killed.sqlite")
        driver = tmp_path / "driver.py"
        driver.write_text(textwrap.dedent(
            f"""
            import os
            import signal
            import sys

            sys.path.insert(0, {os.path.abspath(src)!r})
            from repro.core.fuzz import RandomErroneousStateCampaign
            from repro.runner import ForkServerPool, ResultStore
            from repro.runner import events as ev
            from repro.xen.versions import version_by_name

            finished = []

            def on_event(event):
                if event.kind == ev.JOB_FINISHED:
                    finished.append(event.job_id)
                    if len(finished) == 30:
                        os.kill(os.getpid(), signal.SIGKILL)

            if __name__ == "__main__":
                RandomErroneousStateCampaign(
                    version_by_name("4.13"), seed=7
                ).run(
                    runs_per_component=12,
                    runner=ForkServerPool(jobs=2, on_event=on_event),
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
        assert summary.total == 60
        assert 0 < summary.done < 30
        assert summary.failed == 0

        argv = ["fuzz", "--runs", "12", "--seed", "7", "--version", "4.13"]
        assert cli_main(
            argv + ["--jobs", "2", "--fork-server", "--resume", path]
        ) == 0
        resumed = capsys.readouterr()
        assert "resuming: " in resumed.err
        assert cli_main(argv) == 0
        assert resumed.out == capsys.readouterr().out
        with ResultStore(path) as store:
            assert store.summary().done == 60

    @staticmethod
    def _alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        return True


class TestPreferredContext:
    def test_prefers_fork_where_available(self):
        expected = "fork" if HAS_FORK else "spawn"
        assert preferred_context() == expected

    def test_pool_validates_parameters(self):
        with pytest.raises(ValueError, match="batch"):
            ForkServerPool(batch=0)
        with pytest.raises(ValueError, match="recycle_after"):
            ForkServerPool(recycle_after=0)
