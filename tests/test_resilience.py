"""Tests for ``repro.resilience`` — microreboot recovery (simulator
layer) and the quarantine/backoff guards the hardened runner uses.

The chaos-harness half of the package is covered by
``tests/test_chaos.py``; this file stays on the in-process pieces:
checkpoint/recover, the crash watchdog, campaigns under ``--recover``,
and the deterministic scheduling primitives.
"""

import pytest

from repro.analysis.report import (
    render_markdown_report,
    result_to_dict,
    run_result_from_dict,
)
from repro.core.campaign import Campaign, Mode
from repro.core.monitor import ViolationReport, recovery_violation
from repro.errors import DoubleFault, HypervisorCrash
from repro.exploits import XSA212Crash
from repro.resilience import (
    DEGRADED,
    RECOVERED,
    UNRECOVERABLE,
    CircuitBreaker,
    CrashWatchdog,
    PoisonTracker,
    RecoveryManager,
    RecoveryReport,
    frame_type_census,
)
from repro.runner import EventRecorder, SerialRunner, seeded_backoff
from repro.runner import events as ev
from repro.runner.jobs import JobSpec
from repro.core.testbed import build_testbed
from repro.xen.frames import PageType
from repro.xen.versions import XEN_4_6, XEN_4_8, XEN_4_13
from tests.conftest import churn_frames, frame_table

CRASHES = (HypervisorCrash, DoubleFault)


def crash_the_hypervisor(bed) -> XSA212Crash:
    """Drive the XSA-212 crash use case until the hypervisor is down."""
    use_case = XSA212Crash()
    use_case.prepare(bed)
    with pytest.raises(CRASHES):
        use_case.run_exploit(bed)
    assert bed.xen.crashed
    return use_case


class TestRecoveryManager:
    def test_microreboot_recovers_a_real_crash(self, bed46):
        manager = RecoveryManager(bed46)
        manager.checkpoint()
        crash_the_hypervisor(bed46)

        report = manager.recover(offender=bed46.attacker_domain)

        assert report.outcome == RECOVERED
        assert not bed46.xen.crashed
        assert report.restored_words > 0
        assert report.census_ok and report.integrity_ok
        assert report.quarantined == [bed46.attacker_domain.id]
        assert bed46.attacker_domain.dead
        assert any("MICROREBOOT" in line for line in bed46.xen.console)
        assert report.crash_banner  # the banner survives the rollback

    def test_recovery_without_checkpoint_is_unrecoverable(self, bed46):
        manager = RecoveryManager(bed46)
        crash_the_hypervisor(bed46)
        report = manager.recover()
        assert report.outcome == UNRECOVERABLE
        assert any("no checkpoint" in line for line in report.evidence)

    def test_reboot_budget_is_bounded(self, bed46):
        manager = RecoveryManager(bed46, max_reboots=1)
        manager.checkpoint()
        crash_the_hypervisor(bed46)
        assert manager.recover().outcome == RECOVERED

        second = manager.recover()
        assert second.outcome == UNRECOVERABLE
        assert any("budget exhausted" in line for line in second.evidence)

    def test_census_counts_typed_frames(self, bed48):
        census = frame_type_census(bed48.xen)
        assert census and all(count > 0 for count in census.values())
        assert census == frame_type_census(bed48.xen)  # pure observation


class TestRecoveryFrameTable:
    """Reintegration restores the checkpointed frame table exactly, and
    the checkpoint never shares a record with the live table."""

    def test_recover_restores_the_checkpointed_table(self, bed46):
        manager = RecoveryManager(bed46)
        manager.checkpoint()
        captured = frame_table(bed46)
        churn_frames(bed46)
        crash_the_hypervisor(bed46)
        assert frame_table(bed46) != captured

        assert manager.recover(offender=bed46.attacker_domain).recovered
        restored = frame_table(bed46)
        assert restored.keys() == captured.keys()
        for mfn, fields in captured.items():
            assert restored[mfn] == fields, mfn
        assert frame_table(build_testbed(XEN_4_6)) == captured

    def test_mutated_records_never_reach_the_checkpoint(self, bed46):
        manager = RecoveryManager(bed46, max_reboots=2)
        checkpoint = manager.checkpoint()
        captured = frame_table(bed46)
        for _ in range(2):  # capture-time records, then restored ones
            for record in bed46.xen.frames._info.values():
                record.count += 7
                record.type = PageType.WRITABLE
                record.pinned = not record.pinned
                record.owner = 99
            manager.recover()
            assert frame_table(bed46) == captured
        live = bed46.xen.frames._info
        assert all(live[mfn] is not checkpoint.frame_info[mfn] for mfn in live)


class TestCrashWatchdog:
    def test_clean_phase_reports_no_crash(self, bed46):
        watchdog = CrashWatchdog(bed46)
        watchdog.checkpoint()
        verdict = watchdog.guard(lambda: None)
        assert not verdict.crashed and verdict.recovery is None

    def test_crash_is_intercepted_and_recovered(self, bed46):
        use_case = XSA212Crash()
        use_case.prepare(bed46)
        watchdog = CrashWatchdog(bed46)
        watchdog.checkpoint()
        crashed_at_hook = []

        verdict = watchdog.guard(
            lambda: use_case.run_exploit(bed46),
            on_crash=lambda: crashed_at_hook.append(bed46.xen.crashed),
        )

        assert verdict.crashed and verdict.recovered
        # the on_crash hook ran between the crash and the rollback,
        # while the corrupted state was still observable
        assert crashed_at_hook == [True]
        assert not bed46.xen.crashed

    def test_unrelated_exceptions_pass_through(self, bed46):
        watchdog = CrashWatchdog(bed46)
        watchdog.checkpoint()

        def phase():
            raise ValueError("not a hypervisor crash")

        with pytest.raises(ValueError):
            watchdog.guard(phase)


class TestRecoverCampaign:
    def test_crash_becomes_crash_then_recovered(self):
        result = Campaign(recover=True).run(XSA212Crash, XEN_4_6, Mode.EXPLOIT)
        assert result.recovery is not None and result.recovery.recovered
        assert result.violation.occurred
        assert result.violation.kind == "hypervisor crash (crash-then-recovered)"
        assert result.crashed
        assert result.recovery.restored_words > 0
        assert "recovery:recovered" in result.summary

    def test_pre_rollback_audit_preserves_erroneous_state(self):
        """The rollback un-corrupts memory; the result must still say
        the erroneous state landed (it demonstrably did)."""
        plain = Campaign().run(XSA212Crash, XEN_4_6, Mode.EXPLOIT)
        recovered = Campaign(recover=True).run(XSA212Crash, XEN_4_6, Mode.EXPLOIT)
        assert plain.erroneous_state.achieved
        assert recovered.erroneous_state.achieved

    @pytest.mark.parametrize("version", [XEN_4_8, XEN_4_13], ids=lambda v: v.name)
    def test_non_crashing_cells_unchanged_by_recover(self, version):
        """``--recover`` must be invisible wherever the watchdog never
        fires: the fixed versions stop the exploit before any crash, so
        those cells serialize byte-identically with and without it."""
        plain = result_to_dict(Campaign().run(XSA212Crash, version, Mode.EXPLOIT))
        guarded = result_to_dict(
            Campaign(recover=True).run(XSA212Crash, version, Mode.EXPLOIT)
        )
        assert not plain["crashed"]
        assert guarded == plain
        assert "recovery" not in guarded

    def test_injection_crash_on_fixed_version_recovers_too(self):
        """Injection bypasses the fix, so even 4.13 double-faults when
        the injected gate fires — and the watchdog recovers it."""
        result = Campaign(recover=True).run(XSA212Crash, XEN_4_13, Mode.INJECTION)
        assert result.recovery is not None and result.recovery.recovered

    def test_serialization_round_trip_with_recovery(self):
        result = Campaign(recover=True).run(XSA212Crash, XEN_4_6, Mode.EXPLOIT)
        data = result_to_dict(result)
        assert data["recovery"]["outcome"] == RECOVERED
        rebuilt = run_result_from_dict(data)
        assert rebuilt.recovery is not None
        assert result_to_dict(rebuilt) == data

    def test_markdown_report_gains_recovery_section(self):
        result = Campaign(recover=True).run(XSA212Crash, XEN_4_6, Mode.EXPLOIT)
        text = render_markdown_report([result], "t")
        assert "## Recovery (microreboot runs)" in text
        assert "crash-then-recovered" in text
        # runs without recovery don't grow the section
        plain = Campaign().run(XSA212Crash, XEN_4_8, Mode.INJECTION)
        assert "## Recovery" not in render_markdown_report([plain], "t")


class TestRecoveryReport:
    def test_dict_round_trip(self):
        report = RecoveryReport(
            outcome=DEGRADED,
            crash_banner="FATAL PAGE FAULT",
            wall_time=0.25,
            restored_words=7,
            integrity_ok=True,
            census_ok=False,
            quarantined=[2],
            reboots=1,
            evidence=["census drifted"],
        )
        assert RecoveryReport.from_dict(report.to_dict()) == report

    def test_outcome_classes(self):
        assert RecoveryReport(outcome=RECOVERED).outcome_class == "crash-then-recovered"
        assert RecoveryReport(outcome=DEGRADED).outcome_class == "crash-then-degraded"
        assert (
            RecoveryReport(outcome=UNRECOVERABLE).outcome_class
            == "crash-unrecoverable"
        )
        assert RecoveryReport(outcome=RECOVERED).recovered
        assert not RecoveryReport(outcome=DEGRADED).recovered

    def test_recovery_violation_folds_base_report(self):
        recovery = RecoveryReport(
            outcome=RECOVERED, crash_banner="PANIC", evidence=["rolled back"]
        )
        base = ViolationReport(
            occurred=True, kind="rogue write", evidence=["idt gate"]
        )
        verdict = recovery_violation(recovery, base=base)
        assert verdict.occurred
        assert verdict.kind == "hypervisor crash (crash-then-recovered)"
        assert "crash banner: PANIC" in verdict.evidence
        assert "post-recovery violation: rogue write" in verdict.evidence
        assert "idt gate" in verdict.evidence


class TestQuarantineGuards:
    def test_poison_tracker_quarantines_exactly_once(self):
        tracker = PoisonTracker(threshold=3)
        assert tracker.record_death("j") is None
        assert tracker.record_death("j") is None
        verdict = tracker.record_death("j")
        assert verdict is not None and verdict.deaths == 3
        assert "killed 3 workers" in verdict.render()
        assert tracker.is_quarantined("j")
        assert tracker.record_death("j") is None  # verdict fires once
        assert tracker.deaths_of("j") == 4
        assert not tracker.is_quarantined("other")

    def test_circuit_breaker_opens_on_consecutive_deaths(self):
        breaker = CircuitBreaker(threshold=3)
        assert not breaker.record_death()
        assert not breaker.record_death()
        assert breaker.record_death()  # third consecutive: opens
        assert breaker.opened
        assert not breaker.record_death()  # opens only once
        assert "circuit breaker open" in breaker.render()

    def test_any_success_closes_the_window(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_death()
        breaker.record_success()
        assert not breaker.record_death()  # count restarted
        assert not breaker.opened


class TestSeededBackoff:
    def test_deterministic_and_capped(self):
        first = seeded_backoff(0.1, 3, "job:a", 5.0)
        assert first == seeded_backoff(0.1, 3, "job:a", 5.0)
        assert seeded_backoff(1.0, 30, "job:a", 5.0) <= 5.0

    def test_exponential_within_jitter_band(self):
        for attempt in (1, 2, 3, 4):
            raw = 0.1 * 2 ** (attempt - 1)
            delay = seeded_backoff(0.1, attempt, "job:b", 60.0)
            assert 0.85 * raw <= delay <= 1.15 * raw

    def test_jitter_varies_by_job_not_by_replay(self):
        delays = {seeded_backoff(0.1, 1, f"job:{i}", 5.0) for i in range(32)}
        assert len(delays) > 1  # jitter desynchronises workers

    def test_zero_base_means_no_delay(self):
        assert seeded_backoff(0.0, 5, "job:c", 5.0) == 0.0

    def test_serial_retry_event_carries_the_delay(self):
        spec = JobSpec(kind="selftest", use_case="flaky:1")
        recorder = EventRecorder()
        outcome = SerialRunner(
            retries=1, backoff=0.01, on_event=recorder
        ).run([spec])
        assert not outcome.failures
        [retried] = [e for e in recorder.events if e.kind == ev.JOB_RETRIED]
        assert retried.delay == seeded_backoff(0.01, 1, spec.job_id, 5.0)


class TestWatchdogHookGuard:
    """A broken ``on_crash`` observer must never mask the crash outcome
    it was called to observe — recovery proceeds, and the hook's
    exception is reported on the verdict, chained to the crash."""

    def test_failing_hook_does_not_mask_recovery(self, bed46):
        use_case = XSA212Crash()
        use_case.prepare(bed46)
        watchdog = CrashWatchdog(bed46)
        watchdog.checkpoint()

        def exploding_auditor() -> None:
            raise RuntimeError("auditor exploded")

        verdict = watchdog.guard(
            lambda: use_case.run_exploit(bed46), on_crash=exploding_auditor
        )

        assert verdict.crashed and verdict.recovered
        assert isinstance(verdict.hook_error, RuntimeError)
        assert isinstance(verdict.hook_error.__cause__, CRASHES)
        assert not bed46.xen.crashed  # the microreboot still happened
        assert any(
            "on_crash hook failed" in line for line in bed46.xen.console
        )

    def test_healthy_hook_reports_no_error(self, bed46):
        use_case = XSA212Crash()
        use_case.prepare(bed46)
        watchdog = CrashWatchdog(bed46)
        watchdog.checkpoint()
        verdict = watchdog.guard(
            lambda: use_case.run_exploit(bed46), on_crash=lambda: None
        )
        assert verdict.crashed and verdict.hook_error is None


class TestRecoveryStateDigest:
    """Phase 4 re-validation includes a replay-grade digest check: a
    faithful rollback restores the machine to the exact checkpointed
    digest (the same value a trace replay of the checkpoint computes)."""

    def test_recovered_outcome_carries_matching_digest(self, bed46):
        manager = RecoveryManager(bed46)
        checkpoint = manager.checkpoint()
        assert checkpoint.digest
        crash_the_hypervisor(bed46)

        report = manager.recover(offender=bed46.attacker_domain)

        assert report.outcome == RECOVERED
        assert report.state_digest == checkpoint.digest

    def test_state_digest_survives_serialization(self, bed46):
        manager = RecoveryManager(bed46)
        manager.checkpoint()
        crash_the_hypervisor(bed46)
        report = manager.recover(offender=bed46.attacker_domain)
        roundtrip = RecoveryReport.from_dict(report.to_dict())
        assert roundtrip.state_digest == report.state_digest != ""
