"""Tests for the campaign service: quotas, journal, shards, supervisor,
HTTP server, and the graceful-shutdown ladders.

The headline properties:

* **Crash safety** — a supervisor drained mid-campaign (even between a
  batch ack and the next journal flush) resumes after "restart" and
  compacts to a byte-identical aggregate store.
* **Tenant isolation** — a tenant exceeding its quota is shed with
  429 + Retry-After while other tenants complete unimpeded.
* **Graceful degradation** — a circuit-open marks the campaign
  degraded and finishes it on a fallback pool; SIGTERM drains, a
  second SIGTERM exits immediately.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.runner import (
    ForkServerPool,
    ResultStore,
    SerialRunner,
    plan_fuzz,
    plan_testcases,
)
from repro.runner.store import StoreCorrupt
from repro.service import (
    QuotaConfig,
    ServiceConfig,
    Supervisor,
    campaign_id_for,
    canonical_plan,
    compact_data_dir,
    expand_plan,
)
from repro.service import http as svc_http
from repro.service import journal as jn
from repro.service import shards
from repro.service.client import ServiceClient
from repro.service.plans import PlanError
from repro.service.quotas import AdmissionController, TokenBucket
from repro.service.supervisor import EventStream


def fast_quota(**overrides):
    defaults = dict(rate=1000.0, burst=1000)
    defaults.update(overrides)
    return QuotaConfig(**defaults)


def make_supervisor(tmp_path, **overrides):
    defaults = dict(data_dir=str(tmp_path / "data"), quota=fast_quota())
    defaults.update(overrides)
    return Supervisor(ServiceConfig(**defaults))


TESTCASE_PLAN = {"kind": "testcase", "version": "4.13"}


# ----------------------------------------------------------------------
# Quotas
# ----------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_deny(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: clock[0])
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        wait = bucket.try_take()
        assert wait > 0.0

    def test_refills_at_rate(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=1, clock=lambda: clock[0])
        assert bucket.try_take() == 0.0
        assert bucket.try_take() > 0.0
        clock[0] = 0.5  # one token refilled at 2/s
        assert bucket.try_take() == 0.0


class TestAdmissionController:
    def test_rate_gate_gives_retry_after(self):
        clock = [0.0]
        ctl = AdmissionController(
            QuotaConfig(rate=1.0, burst=1), clock=lambda: clock[0]
        )
        assert ctl.admit("a", 1).ok
        verdict = ctl.admit("a", 1)
        assert not verdict.ok
        assert verdict.status == 429
        assert verdict.retry_after > 0.0

    def test_tenants_have_independent_buckets(self):
        ctl = AdmissionController(QuotaConfig(rate=0.001, burst=1))
        assert ctl.admit("a", 1).ok
        assert not ctl.admit("a", 1).ok
        assert ctl.admit("b", 1).ok

    def test_job_budget_gate(self):
        ctl = AdmissionController(QuotaConfig(rate=1000, burst=1000, max_tenant_jobs=10))
        assert ctl.admit("a", 8).ok
        verdict = ctl.admit("a", 8)
        assert not verdict.ok and "budget" in verdict.reason
        ctl.release("a", 8)
        assert ctl.admit("a", 8).ok

    def test_global_governor_sheds_everyone(self):
        ctl = AdmissionController(
            QuotaConfig(rate=1000, burst=1000, max_active=1, queue_depth=1)
        )
        assert ctl.admit("a", 1).ok
        assert ctl.admit("b", 1).ok
        verdict = ctl.admit("c", 1)
        assert not verdict.ok and "capacity" in verdict.reason

    def test_resumed_campaigns_bypass_bucket_but_count(self):
        ctl = AdmissionController(QuotaConfig(rate=0.001, burst=1, max_active=1, queue_depth=0))
        ctl.admit_resumed("a", 5)
        assert ctl.snapshot()["in_flight"] == 1
        assert not ctl.admit("b", 1).ok  # governor full


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------


class TestJournal:
    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = jn.ServiceJournal(path)
        journal.append("submitted", campaign={"x": 1})
        journal.append("state", id="c-1", state="running")
        journal.close()
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 3, "type": "state", "id"')  # torn
        reopened = jn.ServiceJournal(path)
        assert [r["type"] for r in reopened.replayed] == ["submitted", "state"]
        record = reopened.append("state", id="c-1", state="done")
        assert record["seq"] == 3  # seq continues past the replayed max
        reopened.close()
        records, _good = jn.read_jsonl(path)
        assert len(records) == 3

    def test_replay_folds_latest_state(self):
        base = {
            "campaign_id": "c-1", "tenant": "t", "plan": {}, "total_jobs": 4,
        }
        entries = [
            {"seq": 1, "type": "submitted", "campaign": dict(base)},
            {"seq": 2, "type": "state", "id": "c-1", "state": "running"},
            {"seq": 3, "type": "batch", "id": "c-1", "ok": 3, "failed": 1},
            {"seq": 4, "type": "degraded", "id": "c-1", "detail": "circuit"},
            {"seq": 5, "type": "state", "id": "c-1", "state": "done"},
        ]
        records = jn.replay_records(entries)
        record = records["c-1"]
        assert record.state == "done"
        assert record.degraded is True
        assert (record.ok_jobs, record.failed_jobs) == (3, 1)

    def test_boot_recovers_registry_only_campaigns_as_interrupted(self, tmp_path):
        jpath = str(tmp_path / "j.jsonl")
        rpath = str(tmp_path / "r.sqlite")
        state = jn.boot(jpath, rpath)
        record = jn.CampaignRecord(
            campaign_id="c-lost", tenant="t", plan={}, total_jobs=2,
            state=jn.RUNNING,
        )
        state.registry.upsert(record)
        state.journal.close()
        state.registry.close()
        # Simulate the journal losing everything (tear to empty).
        os.truncate(jpath, 0)
        rebooted = jn.boot(jpath, rpath)
        recovered = rebooted.records["c-lost"]
        assert recovered.state == jn.INTERRUPTED
        assert "journal tear" in recovered.detail
        rebooted.journal.close()
        rebooted.registry.close()

    def test_corrupt_registry_is_moved_aside(self, tmp_path):
        rpath = str(tmp_path / "r.sqlite")
        with open(rpath, "wb") as handle:
            handle.write(b"not sqlite at all")
        registry = jn.CampaignRegistry(rpath)
        assert registry.all() == []
        registry.close()
        assert os.path.exists(rpath + ".corrupt")


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


class TestPlans:
    def test_canonical_materializes_defaults(self):
        canonical = canonical_plan({"kind": "testcase", "version": "4.13"})
        assert canonical["names"]  # defaults filled in

    def test_unknown_kind_and_names_are_typed_errors(self):
        with pytest.raises(PlanError):
            canonical_plan({"kind": "nope"})
        with pytest.raises(PlanError):
            canonical_plan({"kind": "campaign", "use_cases": ["missing"]})
        with pytest.raises(PlanError):
            canonical_plan({"kind": "fuzz", "version": "9.9"})

    def test_campaign_id_is_content_derived_and_tenant_scoped(self):
        canonical = canonical_plan(dict(TESTCASE_PLAN))
        assert campaign_id_for("a", canonical) == campaign_id_for("a", canonical)
        assert campaign_id_for("a", canonical) != campaign_id_for("b", canonical)

    def test_expanded_jobs_match_cli_planners(self):
        """Service jobs carry the same content-derived IDs as CLI jobs —
        the identity the compaction sha comparison rides on."""
        canonical = canonical_plan(dict(TESTCASE_PLAN))
        service_ids = [s.job_id for s in expand_plan(canonical)]
        from repro.xen.versions import version_by_name

        version_by_name("4.13")  # the version exists
        cli_ids = [
            s.job_id for s in plan_testcases(canonical["names"], "4.13")
        ]
        assert service_ids == cli_ids


# ----------------------------------------------------------------------
# HTTP primitives
# ----------------------------------------------------------------------


class TestHttpPrimitives:
    def test_error_response_carries_retry_after(self):
        raw = svc_http.error_response(429, "slow down", retry_after=2.3)
        assert b"Retry-After: 3" in raw
        assert b'"retry_after": 3' in raw

    def test_sse_frame_shape(self):
        frame = svc_http.sse_frame(7, {"kind": "x"})
        assert frame == b'id: 7\ndata: {"kind": "x"}\n\n'

    @staticmethod
    def _parse(raw):
        import asyncio

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await svc_http.read_request(reader)

        return asyncio.run(go())

    def test_read_request_parses_query_and_body(self):
        request = self._parse(
            b"POST /v1/campaigns?x=1 HTTP/1.1\r\n"
            b"Content-Length: 8\r\nX-Tenant: bob\r\n\r\n"
            b'{"a": 1}'
        )
        assert request.method == "POST"
        assert request.path == "/v1/campaigns"
        assert request.query == {"x": "1"}
        assert request.headers["x-tenant"] == "bob"
        assert request.json() == {"a": 1}

    def test_malformed_request_line_is_400(self):
        with pytest.raises(svc_http.ProtocolError) as err:
            self._parse(b"garbage\r\n\r\n")
        assert err.value.status == 400


# ----------------------------------------------------------------------
# Shards + compaction
# ----------------------------------------------------------------------


class TestCompaction:
    def _populate(self, data_dir, tenant="a", cid="c-x"):
        path = shards.shard_store_path(data_dir, tenant, cid)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        specs = plan_testcases(["xsa-212-crash"], "4.13")
        with ResultStore(path) as store:
            store.register(specs)
            for spec in specs:
                store.record_success(spec.job_id, {"v": spec.job_id}, 1.23)
        return specs

    def test_compaction_is_deterministic_across_dirs(self, tmp_path):
        first, second = str(tmp_path / "one"), str(tmp_path / "two")
        self._populate(first)
        self._populate(second)
        assert (
            compact_data_dir(first).sha256 == compact_data_dir(second).sha256
        )

    def test_duplicate_jobs_first_wins_without_divergence(self, tmp_path):
        data_dir = str(tmp_path / "d")
        self._populate(data_dir, tenant="a", cid="c-1")
        self._populate(data_dir, tenant="b", cid="c-2")
        report = compact_data_dir(data_dir)
        assert report.sources == 2
        assert report.jobs == 1  # same job id deduped
        assert report.ok == 1

    #: Compacted store of ``plan_fuzz("4.13", ["idt", "m2p"], 20, 5)``,
    #: recorded from a serial store before commits were grouped per
    #: scheduling round.  Compaction's commit cadence is part of the
    #: file bytes, so this pins it.
    PINNED_FUZZ_SHA256 = (
        "66fff96c556aa95607d3ea64cec838661bb309a1bb012246a7aa51eb4a99d847"
    )

    @pytest.mark.parametrize("pool", ["serial", "fork-server"])
    def test_compacted_fuzz_store_sha256_is_pinned(self, tmp_path, pool):
        specs = plan_fuzz("4.13", ["idt", "m2p"], 20, 5)
        runner = SerialRunner() if pool == "serial" else ForkServerPool(jobs=2)
        path = str(tmp_path / "shard.sqlite")
        with ResultStore(path) as store:
            outcome = runner.run(specs, store=store)
        assert not outcome.failures
        report = shards.compact([path], str(tmp_path / "compacted.sqlite"))
        assert report.sha256 == self.PINNED_FUZZ_SHA256

    def test_trace_dir_is_normalized_out(self, tmp_path):
        from dataclasses import replace

        plain, traced = str(tmp_path / "p"), str(tmp_path / "t")
        self._populate(plain)
        path = shards.shard_store_path(traced, "a", "c-x")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        specs = [
            replace(s, trace_dir=str(tmp_path / "traces"))
            for s in plan_testcases(["xsa-212-crash"], "4.13")
        ]
        with ResultStore(path) as store:
            store.register(specs)
            for spec in specs:
                store.record_success(spec.job_id, {"v": spec.job_id}, 0.5)
        assert (
            compact_data_dir(plain).sha256 == compact_data_dir(traced).sha256
        )


# ----------------------------------------------------------------------
# Event streams
# ----------------------------------------------------------------------


class TestEventStream:
    def test_seq_continues_across_reopen(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        stream = EventStream(path, lambda: None)
        assert stream.append({"kind": "a"}) == 1
        assert stream.append({"kind": "b"}) == 2
        stream.close()
        reopened = EventStream(path, lambda: None)
        assert reopened.append({"kind": "c"}) == 3
        assert [r["event"]["kind"] for r in reopened.read(1)] == ["b", "c"]
        reopened.close()

    def test_torn_tail_dropped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        stream = EventStream(path, lambda: None)
        stream.append({"kind": "a"})
        stream.close()
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 2, "event"')
        reopened = EventStream(path, lambda: None)
        assert reopened.append({"kind": "b"}) == 2
        reopened.close()


# ----------------------------------------------------------------------
# Supervisor (in-process)
# ----------------------------------------------------------------------


class TestSupervisor:
    def test_submit_run_and_idempotent_resubmit(self, tmp_path):
        sup = make_supervisor(tmp_path)
        try:
            status, payload = sup.submit(dict(TESTCASE_PLAN), "alice")
            assert status == 202
            assert sup.run_until_idle(60)
            assert sup.status(payload["id"])["state"] == "done"
            again, echoed = sup.submit(dict(TESTCASE_PLAN), "alice")
            assert again == 200
            assert echoed["id"] == payload["id"]
        finally:
            sup.close()

    def test_bad_plan_and_bad_tenant_are_400(self, tmp_path):
        sup = make_supervisor(tmp_path)
        try:
            assert sup.submit({"kind": "nope"}, "alice")[0] == 400
            assert sup.submit(dict(TESTCASE_PLAN), "../escape")[0] == 400
        finally:
            sup.close()

    def test_quota_429_leaves_other_tenants_unimpeded(self, tmp_path):
        sup = make_supervisor(tmp_path, quota=QuotaConfig(rate=0.001, burst=1))
        try:
            first, _ = sup.submit(dict(TESTCASE_PLAN), "greedy")
            assert first == 202
            shed, payload = sup.submit(
                {"kind": "testcase", "version": "4.6"}, "greedy"
            )
            assert shed == 429
            assert payload["retry_after"] > 0
            ok, polite = sup.submit(
                {"kind": "testcase", "version": "4.8"}, "polite"
            )
            assert ok == 202
            assert sup.run_until_idle(60)
            assert sup.status(polite["id"])["state"] == "done"
        finally:
            sup.close()

    def test_submissions_get_503_while_draining(self, tmp_path):
        sup = make_supervisor(tmp_path)
        try:
            sup.begin_drain()
            status, payload = sup.submit(dict(TESTCASE_PLAN), "alice")
            assert status == 503
            assert "draining" in payload["error"]
        finally:
            sup.close()

    def test_events_have_monotonic_seq_and_final_marker(self, tmp_path):
        sup = make_supervisor(tmp_path)
        try:
            _, payload = sup.submit(dict(TESTCASE_PLAN), "alice")
            assert sup.run_until_idle(60)
            records = sup.stream(payload["id"]).read(0)
            seqs = [r["seq"] for r in records]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
            kinds = [r["event"]["kind"] for r in records]
            assert kinds[0] == "campaign-submitted"
            assert kinds[-1] == "campaign-finished"
            assert records[-1]["event"]["final"] is True
            assert all(not r["event"].get("final") for r in records[:-1])
        finally:
            sup.close()

    def test_healing_boot_reruns_done_campaign_with_torn_shard(self, tmp_path):
        data_dir = str(tmp_path / "data")
        sup = make_supervisor(tmp_path)
        try:
            _, payload = sup.submit(dict(TESTCASE_PLAN), "alice")
            assert sup.run_until_idle(60)
        finally:
            sup.close()
        cid = payload["id"]
        baseline = compact_data_dir(data_dir).sha256
        shard = shards.shard_store_path(data_dir, "alice", cid)
        with open(shard, "r+b") as handle:
            handle.truncate(os.path.getsize(shard) // 3)
        with pytest.raises(StoreCorrupt):
            ResultStore(shard)
        rebooted = make_supervisor(tmp_path)
        try:
            assert cid in rebooted.resume_pending()
            assert rebooted.run_until_idle(60)
            assert rebooted.status(cid)["state"] == "done"
        finally:
            rebooted.close()
        assert compact_data_dir(data_dir).sha256 == baseline


class TestSupervisorResume:
    """The crash-safety headline: drain mid-campaign, restart, resume."""

    FUZZ_PLAN = {"kind": "fuzz", "version": "4.6", "runs": 10, "seed": 3}

    def _run_uninterrupted(self, tmp_path):
        data_dir = str(tmp_path / "reference")
        sup = Supervisor(
            ServiceConfig(data_dir=data_dir, ack_every=4, quota=fast_quota())
        )
        try:
            status, payload = sup.submit(dict(self.FUZZ_PLAN), "alice")
            assert status == 202
            assert sup.run_until_idle(120)
            assert sup.status(payload["id"])["state"] == "done"
        finally:
            sup.close()
        return compact_data_dir(data_dir).sha256

    def test_drain_between_batch_ack_and_journal_flush_resumes_exactly(
        self, tmp_path
    ):
        reference = self._run_uninterrupted(tmp_path)
        data_dir = str(tmp_path / "chaos")
        config = ServiceConfig(data_dir=data_dir, ack_every=4, quota=fast_quota())
        sup = Supervisor(config)
        try:
            status, payload = sup.submit(dict(self.FUZZ_PLAN), "alice")
            assert status == 202
            cid = payload["id"]
            stream = sup.stream(cid)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                finished = [
                    r for r in stream.read(0)
                    if r["event"]["kind"] == "job-finished"
                ]
                if len(finished) >= 5:
                    break
                time.sleep(0.002)
            assert sup.drain(60)
            interrupted = sup.status(cid)
            assert interrupted["state"] == "interrupted"
        finally:
            sup.close()

        # The journal's last batch ack may lag the shard store (the
        # drain landed between an ack and the next flush): the store
        # is the source of truth and must be ahead or equal, never
        # behind.
        records, _ = jn.read_jsonl(os.path.join(data_dir, "journal.jsonl"))
        acked = max(
            (r["ok"] for r in records if r["type"] == "batch"), default=0
        )
        shard = shards.shard_store_path(data_dir, "alice", cid)
        with ResultStore(shard) as store:
            store_done = store.summary().done
        assert 0 < store_done < 50  # genuinely mid-campaign
        assert acked <= store_done

        rebooted = Supervisor(config)
        try:
            assert cid in rebooted.resume_pending()
            assert rebooted.run_until_idle(120)
            assert rebooted.status(cid)["state"] == "done"
        finally:
            rebooted.close()
        assert compact_data_dir(data_dir).sha256 == reference


class TestAckDurability:
    def test_batch_ack_never_runs_ahead_of_the_durable_store(self, tmp_path):
        """Every journalled ``batch`` count is already committed."""
        sup = make_supervisor(tmp_path, ack_every=1)
        checks = []
        append = sup.journal.append

        def checked_append(kind, **fields):
            if kind == "batch":
                shard = shards.shard_store_path(
                    sup.config.data_dir, "alice", fields["id"]
                )
                with ResultStore(shard) as reader:  # a second connection
                    checks.append((fields["ok"], reader.summary().done))
            return append(kind, **fields)

        sup.journal.append = checked_append
        try:
            plan = {"kind": "fuzz", "version": "4.13", "runs": 2, "seed": 3}
            status, payload = sup.submit(plan, "alice")
            assert status == 202
            assert sup.run_until_idle(60)
            assert sup.status(payload["id"])["state"] == "done"
        finally:
            sup.close()
        assert len(checks) > 1
        assert all(acked <= durable for acked, durable in checks), checks


class TestDegradationLadder:
    def test_circuit_open_degrades_then_completes(self, tmp_path):
        sup = make_supervisor(
            tmp_path, jobs=2, circuit_threshold=2, retries=0
        )
        plan = {
            "kind": "selftest",
            "behaviours": ["crash-until:1"] * 4 + ["ok"] * 2,
        }
        try:
            status, payload = sup.submit(plan, "alice")
            assert status == 202
            assert sup.run_until_idle(120)
            final = sup.status(payload["id"])
            assert final["state"] == "done"
            assert final["degraded"] is True
            kinds = {
                r["event"]["kind"]
                for r in sup.stream(payload["id"]).read(0)
            }
            assert "circuit-open" in kinds
            assert "campaign-degraded" in kinds
        finally:
            sup.close()


# ----------------------------------------------------------------------
# HTTP server (subprocess): graceful-shutdown edge cases
# ----------------------------------------------------------------------


def spawn_server(tmp_path, *extra):
    data_dir = str(tmp_path / "svc")
    ready = str(tmp_path / "ready.json")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--data-dir", data_dir, "--ready-file", ready,
            "--quota-rate", "100", "--quota-burst", "100", *extra,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(f"server died: {process.returncode}")
        if os.path.exists(ready):
            try:
                return process, ServiceClient.from_ready_file(ready), data_dir
            except (ValueError, KeyError):
                pass
        time.sleep(0.02)
    process.kill()
    raise AssertionError("server not ready in time")


# The hang keeps one job on the pool for ~1.5s after SIGTERM (stop is
# cooperative — the in-flight job finishes), giving the shutdown tests
# a real drain window to probe.
SLOW_PLAN = {"kind": "selftest", "behaviours": ["hang:1.5"] * 6}


class TestGracefulShutdown:
    def test_sigterm_during_active_sse_stream_delivers_final_frame(
        self, tmp_path
    ):
        process, client, _ = spawn_server(tmp_path)
        try:
            status, payload = client.submit(dict(SLOW_PLAN), "alice")
            assert status == 202
            frames = []
            terminated = False
            for frame in client.stream(payload["id"], timeout=60):
                frames.append(frame)
                if len(frames) == 3 and not terminated:
                    process.send_signal(signal.SIGTERM)
                    terminated = True
            # The stream was held open through the drain and closed
            # with a final service-level frame.
            assert frames[-1]["event"]["final"] is True
            assert frames[-1]["event"]["kind"] == "campaign-interrupted"
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()

    def test_draining_server_sheds_new_submissions_with_503(self, tmp_path):
        process, client, _ = spawn_server(tmp_path)
        try:
            status, payload = client.submit(dict(SLOW_PLAN), "alice")
            assert status == 202
            # SIGTERM before the runner is live drains instantly; wait
            # until a job is actually in flight so the drain has a
            # window (the 1.5s hang job pins it open).
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                kinds = [
                    e["event"]["kind"]
                    for e in client.events(payload["id"])["events"]
                ]
                if "job-started" in kinds:
                    break
                time.sleep(0.02)
            process.send_signal(signal.SIGTERM)
            time.sleep(0.2)
            shed, body = client.submit(dict(TESTCASE_PLAN), "bob")
            assert shed == 503, (shed, body)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()

    def test_second_sigterm_forces_immediate_exit(self, tmp_path):
        process, client, _ = spawn_server(tmp_path)
        try:
            status, payload = client.submit(dict(SLOW_PLAN), "alice")
            assert status == 202
            # Wait for a job to actually be in flight ("running" state is
            # journaled before the pool dispatches): the 1.5s hang job
            # then pins the drain well past the signal gap.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                kinds = [
                    e["event"]["kind"]
                    for e in client.events(payload["id"])["events"]
                ]
                if "job-started" in kinds:
                    break
                time.sleep(0.02)
            process.send_signal(signal.SIGTERM)
            time.sleep(0.1)
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=10) == 130
        finally:
            if process.poll() is None:
                process.kill()

    def test_sigkill_then_restart_resumes_to_done(self, tmp_path):
        process, client, data_dir = spawn_server(tmp_path)
        try:
            status, payload = client.submit(
                {"kind": "fuzz", "version": "4.6", "runs": 20, "seed": 5},
                "alice",
            )
            assert status == 202
            cid = payload["id"]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if client.status(cid)["ok"] >= 5:
                    break
                time.sleep(0.02)
            process.kill()
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
        os.remove(str(tmp_path / "ready.json"))
        process, client, _ = spawn_server(tmp_path)
        try:
            final = client.wait(cid, timeout=120)
            assert final["state"] == "done"
            assert final["ok"] == final["total"]
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()


# ----------------------------------------------------------------------
# Service chaos (one seed; CI runs three)
# ----------------------------------------------------------------------


class TestServiceChaos:
    def test_kill_and_restart_invariant_one_seed(self, tmp_path):
        from repro.resilience.chaos import run_service_chaos

        report = run_service_chaos(seed=1, workdir=str(tmp_path))
        assert report.identical, report.to_dict()
        assert report.quota_shed
        assert report.tenants_done
        assert report.drained_cleanly
        assert report.passed
        payload = json.dumps(report.to_dict())
        assert "sha_reference" in payload
