"""System monitoring and security-violation detection (paper §IV-A).

"As a security violation may happen or not, depending on the capacity
of the system to deal with intrusions, system monitoring is needed to
evaluate how the system behaves in the presence of the erroneous
state."  The paper observes its violations by hand (console crashes,
dropped files, reverse shells, debug prints); this module automates
those observations as composable monitors so campaigns are
reproducible.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.xen.constants import PTE_PRESENT, PTE_PSE, PTE_RW
from repro.xen.frames import PageType
from repro.xen.paging import pte_mfn

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.testbed import TestBed


@dataclass
class ViolationReport:
    """Outcome of violation detection for one run."""

    occurred: bool
    kind: Optional[str] = None  # e.g. "hypervisor crash", "privilege escalation"
    evidence: List[str] = field(default_factory=list)
    #: Domain provenance: the canonical name of the domain in which the
    #: violation was *observed* (not where it was injected).  ``None``
    #: for system-wide observables (a hypervisor crash has no single
    #: observation site).  Part of the violation fingerprint: the same
    #: kind seen in the attacker's own domain and seen across a domain
    #: boundary are different observations.
    observed_in: Optional[str] = None

    @classmethod
    def none(cls) -> "ViolationReport":
        return cls(occurred=False)

    def matches(self, other: "ViolationReport") -> bool:
        return (
            self.occurred == other.occurred
            and self.kind == other.kind
            and self.observed_in == other.observed_in
        )


class Monitor(abc.ABC):
    """One observation channel over the testbed."""

    name: str = "monitor"

    @abc.abstractmethod
    def observe(self, bed: "TestBed") -> ViolationReport:
        """Inspect the testbed and report any violation seen."""


class CrashMonitor(Monitor):
    """Watches the Xen console for a panic (availability violation)."""

    name = "hypervisor-crash"

    def observe(self, bed: "TestBed") -> ViolationReport:
        xen = bed.xen
        if not xen.crashed:
            return ViolationReport.none()
        evidence = list(xen.console)[-12:]
        return ViolationReport(
            occurred=True, kind="hypervisor crash", evidence=evidence
        )


class FileDropMonitor(Monitor):
    """Detects the XSA-212-priv observable: a root-owned log file
    appearing in *every* domain's filesystem."""

    name = "file-drop"

    def __init__(self, path: str = "/tmp/injector_log"):
        self.path = path

    def observe(self, bed: "TestBed") -> ViolationReport:
        evidence = []
        domains = [d for d in bed.all_domains() if d.kernel is not None]
        for domain in domains:
            if not domain.kernel.fs.exists(self.path):
                return ViolationReport.none()
            content = domain.kernel.fs.read(self.path, uid=0)
            if "uid=0(root)" not in content:
                return ViolationReport.none()
            evidence.append(f"d{domain.id} ({domain.hostname}): {content}")
        if not domains:
            return ViolationReport.none()
        return ViolationReport(
            occurred=True,
            kind="privilege escalation (all domains)",
            evidence=evidence,
        )


class ReverseShellMonitor(Monitor):
    """Detects the XSA-148-priv observable: the attacker's listener
    received a connection whose shell runs commands as root."""

    name = "reverse-shell"

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def observe(self, bed: "TestBed") -> ViolationReport:
        listener = bed.network.listener(self.host, self.port)
        if listener is None or not listener.connected:
            return ViolationReport.none()
        connection = listener.latest()
        whoami = connection.run("whoami && hostname")
        if not whoami.startswith("root"):
            return ViolationReport(
                occurred=True,
                kind="remote access (unprivileged)",
                evidence=[f"shell banner: {whoami}"],
            )
        secret = connection.run("cat /root/root_msg")
        return ViolationReport(
            occurred=True,
            kind="remote privilege escalation",
            evidence=[
                f"connection from {connection.from_host} to "
                f"{self.host}:{self.port}",
                f"whoami && hostname -> {whoami!r}",
                f"cat /root/root_msg -> {secret!r}",
            ],
        )


class PageTableIntegrityMonitor(Monitor):
    """Scans domain page tables for states that should never exist:
    guest-writable PSE superpages and writable L4 self-mappings."""

    name = "pagetable-integrity"

    def observe(self, bed: "TestBed") -> ViolationReport:
        xen = bed.xen
        evidence = []
        for domain in bed.all_domains():
            for mfn in domain.p2m:
                if mfn is None:
                    continue
                info = xen.frames.info(mfn)
                if info.type is PageType.L2:
                    evidence.extend(self._scan_l2(xen, domain, mfn))
                elif info.type is PageType.L4:
                    evidence.extend(self._scan_l4(xen, domain, mfn))
        if evidence:
            return ViolationReport(
                occurred=True, kind="page-table corruption", evidence=evidence
            )
        return ViolationReport.none()

    @staticmethod
    def _scan_l2(xen, domain, mfn) -> List[str]:
        hits = []
        for index, entry in xen.machine.entries_with(mfn, PTE_PRESENT):
            if entry & PTE_PSE and entry & PTE_RW:
                hits.append(
                    f"d{domain.id} L2 mfn {mfn:#06x}[{index}]: "
                    f"writable PSE superpage -> mfn {pte_mfn(entry):#06x}"
                )
        return hits

    @staticmethod
    def _scan_l4(xen, domain, mfn) -> List[str]:
        hits = []
        for index, entry in xen.machine.entries_with(mfn, PTE_PRESENT):
            if entry & PTE_RW and pte_mfn(entry) == mfn:
                hits.append(
                    f"d{domain.id} L4 mfn {mfn:#06x}[{index}]: "
                    "writable self-mapping"
                )
        return hits


class IdtIntegrityMonitor(Monitor):
    """Verifies every IDT gate still decodes as valid."""

    name = "idt-integrity"

    def observe(self, bed: "TestBed") -> ViolationReport:
        xen = bed.xen
        evidence = []
        for cpu in range(xen.num_pcpus):
            idt = xen.idt(cpu)
            for vector in range(256):
                if not idt.is_valid(vector):
                    evidence.append(f"cpu{cpu} vector {vector}: corrupt gate")
        if evidence:
            return ViolationReport(
                occurred=True, kind="IDT corruption", evidence=evidence
            )
        return ViolationReport.none()


class HangMonitor(Monitor):
    """Detects host hang states via scheduler starvation accounting
    (the "Induce a Hang State" abusive functionality)."""

    name = "hang"

    def __init__(self, starvation_threshold: int = 5):
        self.starvation_threshold = starvation_threshold

    def observe(self, bed: "TestBed") -> ViolationReport:
        scheduler = bed.xen.scheduler
        if not scheduler.is_hung(self.starvation_threshold):
            return ViolationReport.none()
        evidence = [
            f"cpu{p.cpu_id}: spinning={p.spinning}, "
            f"starved for {p.starved_ticks} ticks"
            for p in scheduler.hung_pcpus
        ]
        return ViolationReport(
            occurred=True, kind="availability violation (host hang)",
            evidence=evidence,
        )


class InterruptStormMonitor(Monitor):
    """Detects interrupt floods against a victim domain (the
    "Uncontrolled Arbitrary Interrupts Requests" functionality)."""

    name = "interrupt-storm"

    def __init__(self, victim_id: int, threshold: int = 64):
        self.victim_id = victim_id
        self.threshold = threshold

    def observe(self, bed: "TestBed") -> ViolationReport:
        victim = bed.xen.domains.get(self.victim_id)
        if victim is None or victim.kernel is None:
            return ViolationReport.none()
        received = len(victim.kernel.events_received)
        if received < self.threshold:
            return ViolationReport.none()
        return ViolationReport(
            occurred=True,
            kind="availability degradation (interrupt storm)",
            evidence=[
                f"d{victim.id} received {received} notifications "
                f"(threshold {self.threshold})"
            ],
            observed_in=victim.name,
        )


class ConfidentialityMonitor(Monitor):
    """Detects exfiltration of the victim's in-memory secret canary
    (seeded into dom0 in the paper topology)."""

    name = "confidentiality"

    def observe(self, bed: "TestBed") -> ViolationReport:
        from repro.core.testbed import SECRET_CANARY

        victim = bed.victim_domain
        for domain in bed.all_domains():
            if domain.kernel is None or domain.name == victim.name:
                continue
            if SECRET_CANARY in domain.kernel.loot:
                return ViolationReport(
                    occurred=True,
                    kind="confidentiality violation (secret exfiltrated)",
                    evidence=[
                        f"d{domain.id} ({domain.name}) exfiltrated the "
                        f"{victim.name} canary {SECRET_CANARY:#x}"
                    ],
                    observed_in=domain.name,
                )
        return ViolationReport.none()


class ForeignMappingMonitor(Monitor):
    """Victim-side detection of the *Keep Page Access* violation: a
    live page-table entry in some other domain maps a victim-owned
    frame that the victim never granted out.  The observation site is
    the victim — the cross-domain counterpart of the attacker-side
    confidentiality monitor."""

    name = "foreign-mapping"

    def observe(self, bed: "TestBed") -> ViolationReport:
        from repro.xen.granttable import GTF_PERMIT_ACCESS

        xen = bed.xen
        victim = bed.victim_domain
        granted = set()
        table = xen.grants.tables.get(victim.id)
        if table is not None:
            for entry in table.entries:
                if entry.flags & GTF_PERMIT_ACCESS:
                    granted.add(victim.pfn_to_mfn(entry.pfn))
        victim_frames = {
            mfn for mfn in victim.p2m if mfn is not None
        } - granted
        evidence = []
        for domain in bed.all_domains():
            if domain.id == victim.id or domain.kernel is None:
                continue
            for mfn in domain.p2m:
                if mfn is None:
                    continue
                if xen.frames.info(mfn).type is PageType.L1:
                    evidence.extend(
                        self._scan_l1(xen, domain, mfn, victim, victim_frames)
                    )
        if not evidence:
            return ViolationReport.none()
        return ViolationReport(
            occurred=True,
            kind="isolation violation (ungranted foreign mapping)",
            evidence=evidence,
            observed_in=victim.name,
        )

    @staticmethod
    def _scan_l1(xen, domain, mfn, victim, victim_frames) -> List[str]:
        hits = []
        for index, entry in xen.machine.entries_with(mfn, PTE_PRESENT):
            if pte_mfn(entry) in victim_frames:
                hits.append(
                    f"d{domain.id} ({domain.name}) L1 mfn "
                    f"{mfn:#06x}[{index}] maps {victim.name} frame "
                    f"{pte_mfn(entry):#06x} without a grant"
                )
        return hits


class StrayEventMonitor(Monitor):
    """Detects event notifications delivered to a domain on ports it
    never bound — the footprint of a misrouted interdomain channel.
    Observed in the domain that received the stray upcalls (the
    topology's observer by default)."""

    name = "stray-event"

    def __init__(self, threshold: int = 1):
        self.threshold = threshold

    def observe(self, bed: "TestBed") -> ViolationReport:
        from repro.errors import HypercallError

        observer = bed.observer_domain
        if observer.kernel is None:
            return ViolationReport.none()
        stray = []
        for port in observer.kernel.events_received:
            try:
                bed.xen.events.channel(observer.id, port)
            except HypercallError:
                stray.append(port)
        if len(stray) < self.threshold:
            return ViolationReport.none()
        return ViolationReport(
            occurred=True,
            kind="cross-domain signal misdelivery",
            evidence=[
                f"d{observer.id} ({observer.name}) received {len(stray)} "
                f"notifications on unbound ports {sorted(set(stray))}"
            ],
            observed_in=observer.name,
        )


class RingTamperMonitor(Monitor):
    """Peer-side detection of shared-ring tampering: the block backend
    survived a malformed producer index (clamps) or returned error
    responses, while the frontend's IO was corrupted.  Observed in the
    backend's domain — the peer across the ring, not the attacker and
    not the frontend."""

    name = "ring-tamper"

    def __init__(self, backend, frontend_id: int, io_failure: Optional[str] = None):
        self.backend = backend
        self.frontend_id = frontend_id
        self.io_failure = io_failure

    def observe(self, bed: "TestBed") -> ViolationReport:
        connection = self.backend.connections.get(self.frontend_id)
        if connection is None:
            return ViolationReport.none()
        tampered = connection.clamps > 0 or connection.errors_returned > 0
        if not tampered and self.io_failure is None:
            return ViolationReport.none()
        backend_domain = self.backend.kernel.domain
        evidence = [
            f"d{backend_domain.id} ({backend_domain.name}) backend: "
            f"{connection.clamps} clamps, "
            f"{connection.errors_returned} error responses for "
            f"d{self.frontend_id}"
        ]
        evidence.extend(
            line for line in self.backend.log if "clamped" in line
        )
        if self.io_failure is not None:
            evidence.append(f"frontend IO failed: {self.io_failure}")
        return ViolationReport(
            occurred=True,
            kind="integrity violation (shared ring tampered)",
            evidence=evidence,
            observed_in=backend_domain.name,
        )


def recovery_violation(
    recovery, base: Optional[ViolationReport] = None
) -> ViolationReport:
    """Qualify a crash with its recovery outcome class.

    A run that crashed and then microrebooted (``--recover``) is not
    the same observation as a plain ``hypervisor crash``: the paper's
    question is whether the system *handles* the erroneous state, and
    a recovered crash is a distinct answer.  The returned report keeps
    ``occurred=True`` — availability was still violated, however
    briefly — but the kind carries the outcome class
    (``crash-then-recovered`` / ``crash-then-degraded`` /
    ``crash-unrecoverable``) and the evidence trail of the microreboot.
    Any violation the monitors saw *after* recovery (``base``) is
    folded into the evidence rather than lost.
    """
    evidence: List[str] = []
    if recovery.crash_banner:
        evidence.append(f"crash banner: {recovery.crash_banner}")
    evidence.extend(recovery.evidence)
    if base is not None and base.occurred:
        evidence.append(f"post-recovery violation: {base.kind}")
        evidence.extend(base.evidence)
    return ViolationReport(
        occurred=True,
        kind=f"hypervisor crash ({recovery.outcome_class})",
        evidence=evidence,
    )


class CompositeMonitor(Monitor):
    """Run several monitors; report the first violation found (in
    registration order, so put the most specific monitor first)."""

    name = "composite"

    def __init__(self, monitors: List[Monitor]):
        self.monitors = monitors

    def observe(self, bed: "TestBed") -> ViolationReport:
        for monitor in self.monitors:
            report = monitor.observe(bed)
            if report.occurred:
                return report
        return ViolationReport.none()

    def observe_all(self, bed: "TestBed") -> Dict[str, ViolationReport]:
        return {monitor.name: monitor.observe(bed) for monitor in self.monitors}
