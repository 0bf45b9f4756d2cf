"""ReHype-style microreboot recovery for the simulated hypervisor.

ReHype (Le & Tamir, 2014) recovers a failed hypervisor *in place*: the
hypervisor is rebooted while the state of in-flight VMs is preserved,
then reintegrated and re-validated.  The simulator's analogue: a
:class:`RecoveryManager` checkpoints the machine (memory words, code
blobs, allocator) plus the hypervisor's bookkeeping (frame table,
per-domain p2m), and after a :class:`~repro.errors.HypervisorCrash`
performs a bounded microreboot —

1. **park** — the offending domain is quarantined (marked dead and
   pulled from the scheduler) so it cannot re-trigger the crash;
2. **reboot** — machine memory is rolled back to the last good
   checkpoint and the crash flag is cleared;
3. **reintegrate** — frame-table records and p2m maps are restored to
   the checkpointed view, so surviving domains keep their memory;
4. **re-validate** — the frame type census is compared against the
   checkpoint and the IDT/page-table integrity monitors re-run; a
   mismatch downgrades the outcome to *degraded*.

The resulting :class:`RecoveryReport` is a first-class campaign
outcome (*crash-then-recovered* / *crash-then-degraded* /
*crash-unrecoverable*) — a strictly richer reproduction of the
paper's "system handles the erroneous state" axis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.core.monitor import (
    IdtIntegrityMonitor,
    PageTableIntegrityMonitor,
)
from repro.probes import points as probe_points
from repro.xen.snapshot import MachineSnapshot, machine_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.testbed import TestBed
    from repro.xen.domain import Domain
    from repro.xen.frames import PageInfo

#: Recovery outcomes, from best to worst.
RECOVERED = "recovered"
DEGRADED = "degraded"
UNRECOVERABLE = "unrecoverable"

#: Campaign outcome classes the monitors and reports surface.
OUTCOME_CLASSES = {
    RECOVERED: "crash-then-recovered",
    DEGRADED: "crash-then-degraded",
    UNRECOVERABLE: "crash-unrecoverable",
}


@dataclass
class RecoveryReport:
    """What one microreboot attempt achieved."""

    outcome: str
    crash_banner: str = ""
    #: Wall-clock cost of the microreboot, in seconds.
    wall_time: float = 0.0
    #: Memory words the rollback had to rewrite.
    restored_words: int = 0
    #: Did the post-reboot integrity re-check pass?
    integrity_ok: bool = False
    #: Did the frame type census match the checkpoint?
    census_ok: bool = False
    #: Domain IDs quarantined during recovery.
    quarantined: List[int] = field(default_factory=list)
    #: Microreboots consumed so far in this trial (this one included).
    reboots: int = 0
    #: Post-rollback machine digest (see
    #: :func:`repro.xen.snapshot.machine_digest`) — the same digest a
    #: trace replay computes, so a recovery can be cross-checked
    #: against its recorded trace.  Empty for unrecoverable outcomes.
    state_digest: str = ""
    evidence: List[str] = field(default_factory=list)

    @property
    def outcome_class(self) -> str:
        """The campaign-level outcome class, e.g. ``crash-then-recovered``."""
        return OUTCOME_CLASSES[self.outcome]

    @property
    def recovered(self) -> bool:
        return self.outcome == RECOVERED

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "crash_banner": self.crash_banner,
            "wall_time": self.wall_time,
            "restored_words": self.restored_words,
            "integrity_ok": self.integrity_ok,
            "census_ok": self.census_ok,
            "quarantined": list(self.quarantined),
            "reboots": self.reboots,
            "state_digest": self.state_digest,
            "evidence": list(self.evidence),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RecoveryReport":
        return cls(
            outcome=data["outcome"],
            crash_banner=data.get("crash_banner", ""),
            wall_time=data.get("wall_time", 0.0),
            restored_words=data.get("restored_words", 0),
            integrity_ok=data.get("integrity_ok", False),
            census_ok=data.get("census_ok", False),
            quarantined=list(data.get("quarantined", ())),
            reboots=data.get("reboots", 0),
            state_digest=data.get("state_digest", ""),
            evidence=list(data.get("evidence", ())),
        )


@dataclass
class HypervisorCheckpoint:
    """One consistent view of the machine and the hypervisor's books."""

    snapshot: MachineSnapshot
    frame_info: Dict[int, "PageInfo"]
    p2m: Dict[int, list]
    domain_ids: Set[int]
    census: Dict[str, int]
    #: Machine digest at capture time — what a faithful rollback must
    #: reproduce, and what a trace replay of the same checkpoint op
    #: computes.
    digest: str = ""


def frame_type_census(xen) -> Dict[str, int]:
    """Count frames by page type — the invariant the microreboot
    re-validates (a lost or gained typed frame means the reintegration
    desynchronised the frame table from memory)."""
    census: Dict[str, int] = {}
    for _mfn, record in sorted(xen.frames._info.items()):  # noqa: SLF001
        key = record.type.value
        census[key] = census.get(key, 0) + 1
    return census


class RecoveryManager:
    """Checkpoint/restore driver for one testbed's hypervisor."""

    def __init__(
        self,
        bed: "TestBed",
        max_reboots: int = 1,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.bed = bed
        self.max_reboots = max_reboots
        self.clock = clock
        self.reboots = 0
        self._checkpoint: Optional[HypervisorCheckpoint] = None
        #: The most recent report, exposed for monitors.
        self.last_report: Optional[RecoveryReport] = None
        probes = bed.xen.probes
        self._p_checkpoint = probes.point(probe_points.CHECKPOINT)
        self._p_recover = probes.point(probe_points.RECOVER)
        self._p_phase = probes.point(probe_points.RECOVERY_PHASE)

    # -- checkpoint -----------------------------------------------------

    def checkpoint(self) -> HypervisorCheckpoint:
        """Capture a last-known-good state to microreboot back to."""
        point = self._p_checkpoint
        if point.subs:
            return point.run(self._checkpoint_impl, (), (self,))
        return self._checkpoint_impl()

    def _checkpoint_impl(self) -> HypervisorCheckpoint:
        xen = self.bed.xen
        checkpoint = HypervisorCheckpoint(
            snapshot=MachineSnapshot.capture(xen.machine),
            frame_info=xen.frames.copy_info(),
            p2m={d.id: list(d.p2m) for d in self.bed.all_domains()},
            domain_ids={d.id for d in self.bed.all_domains()},
            census=frame_type_census(xen),
            digest=machine_digest(xen.machine),
        )
        self._checkpoint = checkpoint
        return checkpoint

    # -- recovery -------------------------------------------------------

    def recover(self, offender: Optional["Domain"] = None) -> RecoveryReport:
        """Attempt one bounded microreboot after a hypervisor crash."""
        point = self._p_recover
        if point.subs:
            return point.run(self._recover_impl, (offender,), (self, offender))
        return self._recover_impl(offender)

    def _recover_impl(self, offender: Optional["Domain"] = None) -> RecoveryReport:
        xen = self.bed.xen
        banner = xen.crash_banner or ""
        started = self.clock()
        self.reboots += 1

        if self._checkpoint is None or self.reboots > self.max_reboots:
            reason = (
                "no checkpoint to microreboot to"
                if self._checkpoint is None
                else f"microreboot budget exhausted ({self.max_reboots})"
            )
            report = RecoveryReport(
                outcome=UNRECOVERABLE,
                crash_banner=banner,
                wall_time=self.clock() - started,
                reboots=self.reboots,
                evidence=[reason],
            )
            self.last_report = report
            return report

        evidence: List[str] = []
        quarantined: List[int] = []
        phases = self._p_phase

        # Phase 1 — park: quarantine the offender before touching state.
        if phases.subs:
            phases.fire("park")
        if offender is not None and not offender.dead:
            offender.dead = True
            xen.scheduler.unregister_domain(offender)
            quarantined.append(offender.id)
            evidence.append(
                f"quarantined offending domain d{offender.id} ({offender.name})"
            )

        # Phase 2 — reboot: roll memory back, clear the crash.
        if phases.subs:
            phases.fire("reboot")
        checkpoint = self._checkpoint
        restored_words = checkpoint.snapshot.restore(xen.machine)
        xen.crashed = False
        xen.crash_banner = None
        evidence.append(f"rolled back {restored_words} memory words")

        # Phase 3 — reintegrate: frame table and p2m follow the memory.
        if phases.subs:
            phases.fire("reintegrate")
        xen.frames.restore_info(checkpoint.frame_info)
        domains_changed = False
        for domain in self.bed.all_domains():
            saved = checkpoint.p2m.get(domain.id)
            if saved is None:
                domains_changed = True
                continue
            domain.p2m = list(saved)
        if {d.id for d in self.bed.all_domains()} != checkpoint.domain_ids:
            domains_changed = True
        if domains_changed:
            evidence.append("domain set changed since checkpoint")

        xen.log("*** MICROREBOOT ***")
        xen.log(f"recovered from: {banner}")

        # Phase 4 — re-validate: census, integrity monitors, and the
        # replay-grade digest check: a faithful rollback must leave the
        # machine at exactly the checkpointed digest (the same value a
        # trace replay of the checkpoint op computes).
        if phases.subs:
            phases.fire("revalidate")
        census = frame_type_census(xen)
        census_ok = census == checkpoint.census
        if not census_ok:
            evidence.append(
                f"frame type census drifted: {checkpoint.census} -> {census}"
            )
        integrity_ok = True
        for monitor in (IdtIntegrityMonitor(), PageTableIntegrityMonitor()):
            verdict = monitor.observe(self.bed)
            if verdict.occurred:
                integrity_ok = False
                evidence.append(
                    f"{monitor.name} re-check failed: {verdict.kind}"
                )
        state_digest = machine_digest(xen.machine)
        digest_ok = not checkpoint.digest or state_digest == checkpoint.digest
        if not digest_ok:
            evidence.append(
                "post-rollback digest mismatch: checkpoint "
                f"{checkpoint.digest[:12]} vs machine {state_digest[:12]}"
            )
        intact = census_ok and integrity_ok and digest_ok and not domains_changed

        report = RecoveryReport(
            outcome=RECOVERED if intact else DEGRADED,
            crash_banner=banner,
            wall_time=self.clock() - started,
            restored_words=restored_words,
            integrity_ok=integrity_ok,
            census_ok=census_ok,
            quarantined=quarantined,
            reboots=self.reboots,
            state_digest=state_digest,
            evidence=evidence,
        )
        self.last_report = report
        return report
