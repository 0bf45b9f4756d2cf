"""Tests for fork-server execution: checkpoints, cache, pool, shutdown.

Four layers of coverage:

* :class:`~repro.core.checkpoint.TestbedCheckpoint` — capture/restore
  is an exact inverse (a hypothesis property over ≥3 consecutive
  reuses), and a corrupted checkpoint is *detected*, never silently
  used;
* frame-table fidelity — a restored bed's frame table equals the
  capture-time table record for record, and no record is shared
  between the live table and the checkpoint;
* the worker-side snapshot cache (``execute_job_cached``) — byte
  parity with the cold-boot executor over fuzz trials and the whole
  campaign matrix, divergence eviction and cold-boot fallback;
* the serial runner's per-run cache — counters, divergence events,
  and two concurrent runs that never share a bed;
* :class:`~repro.runner.forkserver.ForkServerPool` (the pool's
  fork-server configuration) — batch dispatch, crash/timeout recovery
  mid-batch, worker recycling, degradation to the spawn configuration,
  graceful interruption with exact resume, and the
  no-orphan-survives-parent-SIGKILL regression.
"""

import copy
import gc
import math
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.benchmarking import default_suite
from repro.core.checkpoint import CheckpointDiverged, TestbedCheckpoint
from repro.core.fuzz import RandomErroneousStateCampaign
from repro.core.injections.registry import registered_names
from repro.core.testbed import build_testbed
from repro.core.testcases import REGISTRY
from repro.resilience import RECOVERED, RecoveryManager
from repro.resilience.chaos import ChaosPlan, ChaosPool
from repro.runner import (
    EventRecorder,
    ForkServerPool,
    JobSpec,
    ResultStore,
    SerialRunner,
    WorkerPool,
    execute_job,
    execute_job_cached,
    make_runner,
    plan_benchmark,
    plan_campaign,
    plan_coverage_round,
    plan_fuzz,
    plan_testcases,
)
from repro.runner import events as ev
from repro.runner import forkserver
from repro.runner import pool as pool_module
from repro.runner.forkserver import _reset_worker_cache, preferred_context
from repro.service.plans import canonical_plan, expand_plan
from repro.vulngen.corpus import generate_corpus
from repro.vulngen.schedule import CoverageGuidedScheduler
from repro.xen.frames import PageType
from repro.xen.snapshot import machine_digest
from repro.xen.versions import ALL_VERSIONS, XEN_4_13
from tests import parity
from tests.conftest import CommitCountingStore, churn_frames, frame_table


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
        # the trial really mutated state
        assert machine_digest(bed.xen.machine) != checkpoint.digest
        rewritten = checkpoint.restore(bed)
        assert rewritten > 0
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
        # The rotten snapshot frame differs from the bed's, so the next
        # restore rewrites it; its capture-time sha1 catches the rot.
        _corrupt(checkpoint)
        with pytest.raises(CheckpointDiverged) as excinfo:
            checkpoint.restore(bed)
        assert excinfo.value.expected != excinfo.value.actual
        # the cold-boot fallback path yields the identical result
        fresh = build_testbed(XEN_4_13)
        assert campaign.run_trial_on(fresh, component, seed=7) == reference

    @pytest.mark.parametrize("rot", ["frame", "blob"])
    def test_rot_the_restore_copies_in_is_caught(self, rot):
        """Rot in a snapshot frame or blob the restore rewrites lands in
        the bed byte for byte; the capture-time frame sha1 or blob
        fingerprints catch it."""
        bed = build_testbed(XEN_4_13)
        checkpoint = TestbedCheckpoint.capture(bed)
        machine = bed.xen.machine
        if rot == "frame":
            _corrupt(checkpoint)
            mfn = min(checkpoint.snapshot._frames)
            machine.write_word(mfn, 1, machine.read_word(mfn, 1) + 1)
        else:
            blobs = checkpoint.snapshot._blobs
            blobs[min(blobs)] = object()
        with pytest.raises(CheckpointDiverged) as excinfo:
            checkpoint.restore(bed)
        assert excinfo.value.expected != excinfo.value.actual

    def test_a_frame_lost_from_the_snapshot_is_caught(self):
        """A snapshot that lost a frame drops it from the bed; the
        capture-time frame set catches the loss."""
        bed = build_testbed(XEN_4_13)
        checkpoint = TestbedCheckpoint.capture(bed)
        del checkpoint.snapshot._frames[max(checkpoint.snapshot._frames)]
        with pytest.raises(CheckpointDiverged) as excinfo:
            checkpoint.restore(bed)
        assert excinfo.value.expected != excinfo.value.actual

    def test_an_untracked_write_is_undone(self):
        """A write that bypasses the machine's write paths still differs
        from the snapshot, so the compare-driven restore rewrites it."""
        bed = build_testbed(XEN_4_13)
        checkpoint = TestbedCheckpoint.capture(bed)
        frames = bed.xen.machine._frames
        mfn = max(frames)
        frames[mfn][5] = frames[mfn][5] ^ type(frames[mfn][5])(0x1)
        assert checkpoint.restore(bed) == 1  # the poked word
        assert machine_digest(bed.xen.machine) == checkpoint.digest


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
            for mfn in list(bed.xen.frames._info):
                record = bed.xen.frames.info(mfn)
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
        assert forkserver._WORKER_CACHE.stats["forkserver.captures"] == 1
        assert forkserver._WORKER_CACHE.stats["forkserver.restores"] == len(specs) - 1

    def test_rotten_cache_evicts_and_cold_boots_identically(self):
        spec = plan_fuzz("4.13", ["idt"], 2, 99)[0]
        reference = execute_job(spec)
        assert execute_job_cached(spec) == reference  # populates the cache
        _corrupt(forkserver._WORKER_CACHE.entries[spec.version].checkpoint)
        assert execute_job_cached(spec) == reference  # detected, cold-booted
        assert forkserver._WORKER_CACHE.stats["forkserver.restore.diverged"] == 1
        assert forkserver._WORKER_CACHE.stats["forkserver.cold_boots"] == 1
        assert [e["kind"] for e in forkserver._WORKER_CACHE.infra] == ["restore-diverged"]
        # the evicted entry was re-captured: the next trial restores again
        assert execute_job_cached(spec) == reference
        assert forkserver._WORKER_CACHE.stats["forkserver.captures"] == 2

    def test_campaign_matrix_parity_with_cold_executor(self):
        """The 42-cell matrix on three warm beds, one per version."""
        specs = plan_campaign(
            list(registered_names()), [v.name for v in ALL_VERSIONS]
        )
        assert len(specs) == 42
        for spec in specs:
            assert execute_job_cached(spec) == execute_job(spec), spec.label
        assert forkserver._WORKER_CACHE.stats["forkserver.captures"] == 3
        assert forkserver._WORKER_CACHE.stats["forkserver.restores"] == 39

    def test_traced_recovering_metrics_cells_match_cold_runs(self, tmp_path):
        """Trace files byte-equal; payloads equal but for the recovery
        wall time, which differs between two cold runs as well."""

        def plan(trace_dir):
            return plan_campaign(
                list(registered_names()), ["4.6"], recover=True,
                trace_dir=str(trace_dir), metrics=True,
            )

        def untimed(payload):
            if payload.get("recovery"):
                payload["recovery"]["wall_time"] = None
            return payload

        cold = [untimed(execute_job(s)) for s in plan(tmp_path / "cold")]
        warm = [untimed(execute_job_cached(s)) for s in plan(tmp_path / "warm")]
        assert warm == cold
        assert any("recovery" in p for p in cold)
        assert forkserver._WORKER_CACHE.stats["forkserver.restores"] == len(cold) - 1
        names = sorted(os.listdir(tmp_path / "cold"))
        assert names and names == sorted(os.listdir(tmp_path / "warm"))
        for name in names:
            assert (tmp_path / "warm" / name).read_bytes() == (
                tmp_path / "cold" / name
            ).read_bytes(), name

    def test_rotten_cache_cold_boots_a_campaign_cell_identically(self):
        spec = plan_campaign(["xdom-ring-tamper"], ["4.6"], ["exploit"])[0]
        reference = execute_job(spec)
        assert execute_job_cached(spec) == reference  # populates the cache
        _corrupt(forkserver._WORKER_CACHE.entries[spec.version].checkpoint)
        assert execute_job_cached(spec) == reference  # detected, cold-booted
        assert forkserver._WORKER_CACHE.stats["forkserver.restore.diverged"] == 1
        assert forkserver._WORKER_CACHE.stats["forkserver.cold_boots"] == 1
        assert [e["kind"] for e in forkserver._WORKER_CACHE.infra] == ["restore-diverged"]

    def test_benchmark_testcase_and_coverage_jobs_match_cold_runs(self):
        """The newly leased kinds on warm beds: one capture per version,
        a restore for every other job."""
        corpus = generate_corpus(2023, 10)
        trials = CoverageGuidedScheduler(corpus.ids, 2023).plan_round(0, 12, "")
        specs = (
            plan_benchmark(
                [item.name for item in default_suite()],
                [v.name for v in ALL_VERSIONS],
            )
            + plan_testcases(list(REGISTRY), "4.13")
            + plan_coverage_round("4.6", trials)
        )
        for spec in specs:
            assert execute_job_cached(spec) == execute_job(spec), spec.label
        assert forkserver._WORKER_CACHE.stats["forkserver.captures"] == len(ALL_VERSIONS)
        assert forkserver._WORKER_CACHE.stats["forkserver.restores"] == (
            len(specs) - len(ALL_VERSIONS)
        )

    def test_non_fuzz_jobs_fall_through(self):
        """Selftests are the one kind that takes no bed."""
        spec = selftest("ok")
        payload = execute_job_cached(spec)
        assert payload["status"] == "ok"
        assert forkserver._WORKER_CACHE.entries == {}


@dataclass
class _CorruptEveryRestore:
    """Test-only worker faults: rot the cache before every warm restore."""

    def before_job(self, job_id: str, attempt: int) -> None:
        pass

    def before_restore(self, entry, job_id: str, attempt: int) -> None:
        _corrupt(entry.checkpoint)


class _RottenCachePool(ForkServerPool):
    def _worker_faults(self):
        return _CorruptEveryRestore()


class _RotFirstRestoreCache(forkserver.SnapshotCache):
    """A serial run's cache whose first warm restore finds rot; every
    instance is remembered weakly, to see when the run drops it."""

    built: list = []

    def __init__(self):
        super().__init__(faults=self)
        self.rotted = False
        _RotFirstRestoreCache.built.append(weakref.ref(self))

    def before_restore(self, entry, job_id: str, attempt: int) -> None:
        if not self.rotted:
            self.rotted = True
            _corrupt(entry.checkpoint)


class TestSerialSnapshotCache:
    """``SerialRunner()`` leases every bed from a cache of its own run."""

    def setup_method(self):
        _reset_worker_cache()

    def test_restores_match_cold_boots_and_are_counted(self):
        specs = plan_fuzz("4.13", ["idt", "victim-data"], 3, 20230701)
        runner = SerialRunner()
        outcome = runner.run(specs)
        cold = SerialRunner(job_fn=execute_job).run(specs)
        assert outcome.results == cold.results
        assert runner.stats == {
            "forkserver.captures": 1,
            "forkserver.restores": len(specs) - 1,
        }
        # the run's cache is its own: this process's worker cache is untouched
        assert forkserver._WORKER_CACHE.entries == {}

    def test_explicit_job_fn_runs_without_a_cache(self):
        specs = plan_fuzz("4.13", ["idt"], 2, 7)
        runner = SerialRunner(job_fn=execute_job)
        runner.run(specs)
        assert runner.stats == {}
        assert make_runner(jobs=1).job_fn is None

    def test_rotten_restore_evicts_cold_boots_and_emits_once(self, monkeypatch):
        monkeypatch.setattr(_RotFirstRestoreCache, "built", [])
        monkeypatch.setattr(forkserver, "SnapshotCache", _RotFirstRestoreCache)
        specs = plan_fuzz("4.13", ["idt", "m2p"], 3, 99)
        recorder = EventRecorder()
        runner = SerialRunner(on_event=recorder)
        outcome = runner.run(specs)
        assert not outcome.failures
        assert [outcome.results[s.job_id] for s in specs] == [
            execute_job(spec) for spec in specs
        ]
        assert runner.stats == {
            "forkserver.captures": 2,
            "forkserver.restores": len(specs) - 2,
            "forkserver.restore.diverged": 1,
            "forkserver.cold_boots": 1,
        }
        diverged = [e for e in recorder.events if e.kind == ev.RESTORE_DIVERGED]
        assert len(diverged) == 1
        assert diverged[0].job_id == specs[1].job_id
        assert diverged[0].worker == -1
        assert diverged[0].detail.startswith("xen-4.13: restored digest ")
        # one cache per run, and none outlives its run
        gc.collect()
        assert [ref() for ref in _RotFirstRestoreCache.built] == [None]

    def test_concurrent_runs_never_share_a_bed(self, tmp_path, monkeypatch):
        """Two serial runs at once on two threads, as the campaign
        service runs them: each store compacts to the golden digest,
        and no bed is leased by both runs.  A short switch interval
        interleaves the threads mid-trial."""
        entry = parity.load_golden()["fuzz"]
        specs = expand_plan(canonical_plan(entry["plan"]))
        paths = [str(tmp_path / f"thread-{i}.sqlite") for i in range(2)]
        barrier = threading.Barrier(2)
        errors = []
        leased = {}  # thread -> every bed it leased (kept alive: ids stay unique)
        lease = forkserver.SnapshotCache.lease

        def recording_lease(cache, spec, attempt, boot):
            bed = lease(cache, spec, attempt, boot)
            leased.setdefault(threading.get_ident(), []).append(bed)
            return bed

        monkeypatch.setattr(forkserver.SnapshotCache, "lease", recording_lease)

        def run(path):
            try:
                with ResultStore(path) as store:
                    barrier.wait()
                    outcome = SerialRunner().run(specs, store=store)
                assert not outcome.failures
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(p,)) for p in paths]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for path in paths:
            assert parity.store_sha256(path) == entry["sha256"], path
        first, second = ({id(bed) for bed in beds} for beds in leased.values())
        assert len(first) == len(second) == 1  # one bed per run, restored
        assert not first & second


class TestForkServerPool:
    def test_fuzz_parity_with_serial(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_BATCH", 3)
        specs = plan_fuzz("4.13", ["idt", "m2p"], 4, 20230701)
        reference = SerialRunner().run(specs)
        pool = ForkServerPool(jobs=2)
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

    def test_final_batches_count_every_trial(self, monkeypatch):
        """Every trial's restore or capture is counted before ``run``
        returns, however the final batches land relative to each other:
        the counters ride on the results, so the last result of a run
        carries the last counters."""
        for round_ in range(20):
            specs = plan_fuzz("4.13", ["idt", "m2p"], 3, 20230701 + round_)
            monkeypatch.setattr(pool_module, "_BATCH", 1 + round_ % 3)
            pool = ForkServerPool(jobs=2)
            outcome = pool.run(specs)
            assert not outcome.failures
            served = pool.stats.get("forkserver.restores", 0) + pool.stats.get(
                "forkserver.captures", 0
            )
            assert served == len(specs), (round_, pool.stats)
        assert no_orphans()

    def test_recycled_workers_account_every_batch(self, monkeypatch):
        """A worker is retired when the batch that takes it to
        ``_RECYCLE_AFTER`` trials is acked, before it gets another: no
        counters are lost, no worker serves more than ``_RECYCLE_AFTER
        + _BATCH - 1`` trials, and every worker that served
        ``_RECYCLE_AFTER`` trials is recycled exactly once."""
        for round_ in range(24):
            recycle_after = 2 + round_ % 3
            batch = 2 + round_ % 2
            monkeypatch.setattr(pool_module, "_RECYCLE_AFTER", recycle_after)
            monkeypatch.setattr(pool_module, "_BATCH", batch)
            specs = plan_fuzz("4.13", ["idt", "m2p"], 5, 20231101 + round_)
            recorder = EventRecorder()
            pool = ForkServerPool(jobs=2, on_event=recorder)
            outcome = pool.run(specs)
            assert not outcome.failures
            served = pool.stats.get("forkserver.restores", 0) + pool.stats.get(
                "forkserver.captures", 0
            )
            assert served == len(specs), (round_, pool.stats)
            per_worker = Counter(
                event.worker for event in recorder.events
                if event.kind == ev.JOB_FINISHED
            )
            assert max(per_worker.values()) <= recycle_after + batch - 1, (
                round_, per_worker,
            )
            expected = sum(n >= recycle_after for n in per_worker.values())
            assert expected > 0
            recycled = pool.stats.get("forkserver.workers.recycled", 0)
            assert recycled == expected, (round_, per_worker, pool.stats)
            assert recorder.kinds().count(ev.WORKER_RECYCLED) == expected
        assert no_orphans()

    def test_crash_mid_batch_keeps_finished_members_counters(self):
        """A worker that dies mid-batch already sent the counters of the
        members it finished, with their results."""
        trials = plan_fuzz("4.13", ["idt", "m2p"], 3, 20230701)
        specs = trials[:3] + [selftest("crash-until:1", "x")] + trials[3:]
        pool = ForkServerPool(jobs=1, retries=1)
        outcome = pool.run(specs)
        assert not outcome.failures
        served = pool.stats.get("forkserver.restores", 0) + pool.stats.get(
            "forkserver.captures", 0
        )
        assert served == 6, pool.stats
        assert no_orphans()

    def test_duplicated_frames_count_once(self, monkeypatch):
        """Every result frame is delivered twice: each copy carries the
        same counters and infra records, and only the acked copy's are
        applied."""
        plan = ChaosPlan(
            seed=3, kill_rate=0.0, hang_rate=0.0, dup_rate=1.0,
            delay_rate=0.5, tear_rate=0.0, corrupt_rate=0.3, wedge_rate=0.0,
        )
        specs = plan_fuzz("4.13", ["idt", "m2p"], 6, 777)
        recorder = EventRecorder()
        monkeypatch.setattr(pool_module, "_BATCH", 3)
        pool = ChaosPool(
            plan, fork_server=True, jobs=2, retries=0, on_event=recorder,
        )
        outcome = pool.run(specs)
        assert not outcome.failures
        served = pool.stats.get("forkserver.restores", 0) + pool.stats.get(
            "forkserver.captures", 0
        )
        assert served == len(specs), pool.stats
        finished = Counter(
            event.job_id for event in recorder.events
            if event.kind == ev.JOB_FINISHED
        )
        assert finished == Counter(spec.job_id for spec in specs)
        diverged = recorder.kinds().count(ev.RESTORE_DIVERGED)
        assert diverged > 0
        assert diverged == pool.stats["forkserver.restore.diverged"]
        assert no_orphans()

    def test_crash_mid_batch_salvages_streamed_results(self, monkeypatch):
        recorder = EventRecorder()
        specs = (
            [selftest("ok", f"a{i}") for i in range(3)]
            + [selftest("crash", "x")]
            + [selftest("ok", f"b{i}") for i in range(3)]
        )
        monkeypatch.setattr(pool_module, "_BATCH", len(specs))
        monkeypatch.setattr(pool_module, "_POISON_THRESHOLD", 99)
        pool = ForkServerPool(jobs=1, retries=0, on_event=recorder)
        outcome = pool.run(specs)
        # members before the crash completed; members after it were
        # re-queued onto the replacement worker and completed too
        assert len(outcome.results) == 6
        assert set(outcome.failures) == {selftest("crash", "x").job_id}
        assert ev.WORKER_CRASHED in recorder.kinds()
        assert no_orphans()

    def test_timeout_mid_batch_charges_only_the_stuck_member(
        self, monkeypatch
    ):
        recorder = EventRecorder()
        specs = [
            selftest("ok", "t1"), selftest("hang:60", "t2"),
            selftest("ok", "t3"),
        ]
        monkeypatch.setattr(pool_module, "_BATCH", 3)
        monkeypatch.setattr(pool_module, "_POISON_THRESHOLD", 99)
        pool = ForkServerPool(
            jobs=1, timeout=1.0, retries=0, on_event=recorder,
        )
        outcome = pool.run(specs)
        assert set(outcome.failures) == {specs[1].job_id}
        assert len(outcome.results) == 2
        assert ev.JOB_TIMEOUT in recorder.kinds()
        assert no_orphans()

    def test_workers_recycled_after_serving_limit(self, monkeypatch):
        recorder = EventRecorder()
        specs = [selftest("ok", f"r{i}") for i in range(10)]
        monkeypatch.setattr(pool_module, "_BATCH", 2)
        monkeypatch.setattr(pool_module, "_RECYCLE_AFTER", 4)
        pool = ForkServerPool(jobs=1, on_event=recorder)
        outcome = pool.run(specs)
        assert not outcome.failures and len(outcome.results) == 10
        assert ev.WORKER_RECYCLED in recorder.kinds()
        assert pool.stats["forkserver.workers.recycled"] >= 2
        # recycled workers were actually replaced by fresh processes
        assert len({p["pid"] for p in outcome.results.values()}) >= 2
        assert no_orphans()

    def test_restore_divergence_evicts_and_stays_correct(self, monkeypatch):
        recorder = EventRecorder()
        specs = plan_fuzz("4.13", ["idt"], 6, 20230701)
        reference = SerialRunner().run(specs)
        monkeypatch.setattr(pool_module, "_BATCH", 2)
        pool = _RottenCachePool(jobs=1, on_event=recorder)
        outcome = pool.run(specs)
        assert not outcome.failures
        for spec in specs:
            assert outcome.results[spec.job_id] == reference.results[spec.job_id]
        assert ev.RESTORE_DIVERGED in recorder.kinds()
        assert pool.stats["forkserver.restore.diverged"] > 0
        assert pool.stats["forkserver.cold_boots"] > 0
        assert no_orphans()

    def test_circuit_open_degrades_to_spawn_pool(self, monkeypatch):
        recorder = EventRecorder()
        specs = [selftest("crash", f"c{i}") for i in range(4)] + [
            selftest("ok", f"d{i}") for i in range(4)
        ]
        monkeypatch.setattr(pool_module, "_BATCH", 1)
        monkeypatch.setattr(pool_module, "_POISON_THRESHOLD", 99)
        pool = ForkServerPool(
            jobs=2, retries=0, circuit_threshold=3, on_event=recorder,
        )
        outcome = pool.run(specs)
        assert ev.POOL_DEGRADED in recorder.kinds()
        assert pool.stats["forkserver.degraded"] == 1
        # every healthy job completed despite the open circuit
        for spec in specs:
            if spec.use_case == "ok":
                assert spec.job_id in outcome.results
        # degrading continues the same run: one campaign end, counting
        # every job of the plan, and no job event restarts the count
        [finished] = [
            e for e in recorder.events if e.kind == ev.CAMPAIGN_FINISHED
        ]
        assert finished.done == finished.total == len(specs)
        degraded_at = recorder.kinds().index(ev.POOL_DEGRADED)
        job_events = [
            e for e in recorder.events[degraded_at:] if e.job_id
        ]
        assert job_events
        assert all(e.total == len(specs) for e in job_events)
        assert no_orphans()

    def test_degraded_pass_keeps_each_jobs_attempt(self, tmp_path, monkeypatch):
        """The jobs that opened the circuit resume at their next attempt
        in the degraded pass: the crashers succeed on attempt 1, every
        job is done, and no (job_id, attempt) row repeats."""
        specs = [selftest("crash-until:1", f"c{i}") for i in range(2)] + [
            selftest("ok", f"d{i}") for i in range(4)
        ]
        path = str(tmp_path / "degrade.sqlite")
        recorder = EventRecorder()
        monkeypatch.setattr(pool_module, "_BATCH", 1)
        monkeypatch.setattr(pool_module, "_POISON_THRESHOLD", 99)
        with ResultStore(path) as store:
            outcome = ForkServerPool(
                jobs=1, retries=1, circuit_threshold=2, on_event=recorder,
            ).run(specs, store=store)
            assert store.summary().done == len(specs), outcome.failures
        assert ev.POOL_DEGRADED in recorder.kinds()
        assert not outcome.failures
        with sqlite3.connect(path) as conn:
            rows = conn.execute("SELECT job_id, attempt FROM attempts").fetchall()
        assert len(rows) == len(set(rows)), Counter(rows)
        assert no_orphans()

    def test_spawn_configuration_fails_fast_on_open_circuit(self, monkeypatch):
        recorder = EventRecorder()
        specs = [selftest("crash", f"c{i}") for i in range(3)] + [
            selftest("ok", "tail")
        ]
        monkeypatch.setattr(pool_module, "_POISON_THRESHOLD", 99)
        pool = WorkerPool(
            jobs=1, retries=0, circuit_threshold=2, on_event=recorder,
        )
        outcome = pool.run(specs)
        assert ev.POOL_DEGRADED not in recorder.kinds()
        assert specs[-1].job_id in outcome.failures
        assert no_orphans()

    def test_resume_skips_completed_jobs(self, tmp_path, monkeypatch):
        specs = [selftest("ok", f"s{i}") for i in range(6)]
        path = str(tmp_path / "fs.sqlite")
        monkeypatch.setattr(pool_module, "_BATCH", 2)
        with ResultStore(path) as store:
            SerialRunner(job_fn=_instant_job).run(specs[:3], store=store)
        with ResultStore(path) as store:
            recorder = EventRecorder()
            outcome = ForkServerPool(jobs=1, on_event=recorder).run(
                specs, store=store
            )
            assert outcome.skipped == {s.job_id for s in specs[:3]}
            assert store.summary().done == 6
            for spec in specs[:3]:
                assert store.attempts_of(spec.job_id) == 1  # not re-run
        assert no_orphans()


class TestGroupCommit:
    def test_fuzz_run_commits_once_per_round_and_readers_see_a_prefix(
        self, tmp_path, monkeypatch
    ):
        """With no interval the books commit every scheduling round."""
        monkeypatch.setattr(pool_module, "_COMMIT_INTERVAL", 0.0)
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

    def test_fuzz_run_commits_register_and_close_within_an_interval(
        self, tmp_path, monkeypatch
    ):
        """Inside one interval only registering and closing commit: a
        mid-run reader sees no job done, a reader after the run all."""
        monkeypatch.setattr(pool_module, "_COMMIT_INTERVAL", 3600.0)
        specs = plan_fuzz("4.13", ["idt", "m2p"], 100, 11)
        path = str(tmp_path / "gc.sqlite")
        finished: list = []
        observed: list = []

        def on_event(event) -> None:
            if event.kind != ev.JOB_FINISHED:
                return
            finished.append(event.job_id)
            if len(finished) == 50:
                with ResultStore(path) as reader:
                    observed.append(reader.completed_ids())

        store = CommitCountingStore(path)
        try:
            store.commits = 0
            outcome = ForkServerPool(jobs=2, on_event=on_event).run(
                specs, store=store
            )
            assert not outcome.failures and len(outcome.results) == 200
            assert store.commits == 2  # register + close
            with ResultStore(path) as reader:
                assert reader.completed_ids() == {s.job_id for s in specs}
        finally:
            store.close()
        [done] = observed
        assert done == set()
        assert done == set(finished[:len(done)])
        assert no_orphans()

    def test_commits_are_bounded_by_the_interval(self, tmp_path):
        """Over a 600-trial run the books commit at most once per
        ``_COMMIT_INTERVAL`` of wall time, plus registering and closing."""
        specs = plan_fuzz("4.13", ["idt", "m2p"], 300, 11)
        assert len(specs) == 600
        store = CommitCountingStore(str(tmp_path / "gc.sqlite"))
        try:
            store.commits = 0
            started = time.monotonic()
            outcome = ForkServerPool(jobs=2).run(specs, store=store)
            wall = time.monotonic() - started
            assert not outcome.failures and len(outcome.results) == 600
            bound = 2 + math.ceil(wall / pool_module._COMMIT_INTERVAL)
            assert store.commits <= bound, (store.commits, wall)
        finally:
            store.close()
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
            outcome = ForkServerPool(jobs=1, retries=0).run(specs, store=store)
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
            from repro.runner import pool as pool_module
            from repro.runner.forkserver import ForkServerPool
            from repro.runner.jobs import JobSpec

            specs = [
                JobSpec(kind="selftest", use_case="hang:300", version=str(i))
                for i in range(2)
            ]
            pool_module._BATCH = 1
            pool_module._BEAT_INTERVAL = 0.1
            pool = ForkServerPool(jobs=2, retries=0)
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

        With no commit interval the books commit every scheduling
        round.  The driver SIGKILLs itself from the event callback of
        the 30th finished job, after that job's result was recorded but
        before the round's commit: the store must come back with fewer
        than 30 done jobs, some of them committed by earlier rounds,
        and ``--resume`` must finish the campaign with output identical
        to a serial run.
        """
        done = self._sigkill_at_30th_job_then_resume(tmp_path, capsys, 0.0)
        assert 0 < done < 30

    def test_parent_sigkill_at_the_commit_interval_then_resume_matches_serial(
        self, tmp_path, capsys
    ):
        """The same kill under the shipped interval: the 30 jobs may all
        fall inside one interval, so none need be done, and resume is
        still exact."""
        interval = pool_module._COMMIT_INTERVAL
        done = self._sigkill_at_30th_job_then_resume(tmp_path, capsys, interval)
        assert done < 30

    def _sigkill_at_30th_job_then_resume(self, tmp_path, capsys, interval) -> int:
        """Kill a fork-server fuzz run at its 30th finished job under the
        commit ``interval``, resume it, and return the jobs the killed
        run left done."""
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
            from repro.runner import pool
            from repro.xen.versions import version_by_name

            pool._COMMIT_INTERVAL = {interval!r}
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
        return summary.done

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
        assert preferred_context() == "fork"

    def test_pool_validates_parameters(self):
        with pytest.raises(ValueError, match="jobs"):
            ForkServerPool(jobs=0)
        with pytest.raises(ValueError, match="timeout"):
            ForkServerPool(timeout=0.0)
