"""Unit tests for the monitors (security-violation detection)."""

from functools import partial

import pytest

from repro.core.monitor import (
    CompositeMonitor,
    CrashMonitor,
    FileDropMonitor,
    ForeignMappingMonitor,
    IdtIntegrityMonitor,
    PageTableIntegrityMonitor,
    ReverseShellMonitor,
    ViolationReport,
)
from repro.core.testbed import build_testbed
from repro.errors import HypervisorCrash, SimulationError
from repro.exploits import XSA148Priv, XSA182Test, XSA212Crash, XSA212Priv
from repro.net import Shell
from repro.xen import constants as C
from repro.xen.frames import PageType
from repro.xen.paging import make_pte, pte_mfn, pte_present
from repro.xen.snapshot import MachineSnapshot, machine_digest
from repro.xen.versions import XEN_4_6


class TestViolationReport:
    def test_none_report(self):
        report = ViolationReport.none()
        assert not report.occurred
        assert report.kind is None

    def test_matches_same_kind(self):
        a = ViolationReport(True, "crash")
        b = ViolationReport(True, "crash", evidence=["x"])
        assert a.matches(b)

    def test_matches_different_kind(self):
        assert not ViolationReport(True, "crash").matches(ViolationReport(True, "leak"))

    def test_matches_occurrence(self):
        assert ViolationReport.none().matches(ViolationReport.none())
        assert not ViolationReport.none().matches(ViolationReport(True, "x"))


class TestCrashMonitor:
    def test_quiet_on_healthy_system(self, bed):
        assert not CrashMonitor().observe(bed).occurred

    def test_detects_panic(self, bed):
        with pytest.raises(HypervisorCrash):
            bed.xen.panic("BOOM")
        report = CrashMonitor().observe(bed)
        assert report.occurred
        assert report.kind == "hypervisor crash"
        assert any("BOOM" in line for line in report.evidence)


class TestFileDropMonitor:
    CONTENT = "|uid=0(root) gid=0(root) groups=0(root)|@host"

    def test_quiet_without_files(self, bed):
        assert not FileDropMonitor().observe(bed).occurred

    def test_partial_drop_not_a_violation(self, bed):
        bed.dom0.kernel.fs.write("/tmp/injector_log", self.CONTENT, uid=0)
        assert not FileDropMonitor().observe(bed).occurred

    def test_full_drop_detected(self, bed):
        for domain in bed.all_domains():
            domain.kernel.fs.write("/tmp/injector_log", self.CONTENT, uid=0)
        report = FileDropMonitor().observe(bed)
        assert report.occurred
        assert report.kind == "privilege escalation (all domains)"
        assert len(report.evidence) == len(bed.all_domains())

    def test_non_root_content_not_a_violation(self, bed):
        for domain in bed.all_domains():
            domain.kernel.fs.write("/tmp/injector_log", "uid=1000(user)", uid=0)
        assert not FileDropMonitor().observe(bed).occurred


class TestReverseShellMonitor:
    def test_quiet_without_listener(self, bed):
        monitor = ReverseShellMonitor(bed.attacker_host, bed.attacker_port)
        assert not monitor.observe(bed).occurred

    def test_quiet_without_connection(self, bed):
        bed.network.listen(bed.attacker_host, bed.attacker_port)
        monitor = ReverseShellMonitor(bed.attacker_host, bed.attacker_port)
        assert not monitor.observe(bed).occurred

    def test_root_shell_detected(self, bed):
        listener = bed.network.listen(bed.attacker_host, bed.attacker_port)
        bed.network.connect(
            bed.dom0.hostname,
            bed.attacker_host,
            bed.attacker_port,
            Shell(bed.dom0, uid=0),
        )
        report = ReverseShellMonitor(bed.attacker_host, bed.attacker_port).observe(bed)
        assert report.occurred
        assert report.kind == "remote privilege escalation"
        assert any("Confidential" in line for line in report.evidence)

    def test_unprivileged_shell_classified_differently(self, bed):
        bed.network.listen(bed.attacker_host, bed.attacker_port)
        bed.network.connect(
            bed.dom0.hostname,
            bed.attacker_host,
            bed.attacker_port,
            Shell(bed.dom0, uid=1000),
        )
        report = ReverseShellMonitor(bed.attacker_host, bed.attacker_port).observe(bed)
        assert report.occurred
        assert report.kind == "remote access (unprivileged)"


class TestPageTableIntegrityMonitor:
    def test_quiet_on_clean_tables(self, bed):
        assert not PageTableIntegrityMonitor().observe(bed).occurred

    def test_detects_writable_pse(self, bed):
        guest = bed.attacker_domain
        l2_mfn = guest.pfn_to_mfn(guest.kernel.l2_pfn)
        bed.xen.machine.write_word(
            l2_mfn, 1, make_pte(0, C.PTE_PRESENT | C.PTE_RW | C.PTE_PSE)
        )
        report = PageTableIntegrityMonitor().observe(bed)
        assert report.occurred
        assert "PSE" in report.evidence[0]

    def test_detects_writable_self_map(self, bed):
        guest = bed.attacker_domain
        l4_mfn = guest.current_vcpu.cr3_mfn
        bed.xen.machine.write_word(
            l4_mfn, 5, make_pte(l4_mfn, C.PTE_PRESENT | C.PTE_RW)
        )
        report = PageTableIntegrityMonitor().observe(bed)
        assert report.occurred
        assert "self-mapping" in report.evidence[0]

    def test_readonly_self_map_is_fine(self, bed):
        guest = bed.attacker_domain
        l4_mfn = guest.current_vcpu.cr3_mfn
        bed.xen.machine.write_word(l4_mfn, 5, make_pte(l4_mfn, C.PTE_PRESENT))
        assert not PageTableIntegrityMonitor().observe(bed).occurred


class TestIdtIntegrityMonitor:
    def test_quiet_on_intact_idt(self, bed):
        assert not IdtIntegrityMonitor().observe(bed).occurred

    def test_detects_corrupted_gate(self, bed):
        bed.xen.machine.write_word(bed.xen.idt_mfns[0], 2 * 14, 0xBAD)
        report = IdtIntegrityMonitor().observe(bed)
        assert report.occurred
        assert "vector 14" in report.evidence[0]


class TestCompositeMonitor:
    def test_first_violation_wins(self, bed):
        with pytest.raises(HypervisorCrash):
            bed.xen.panic("X")
        composite = CompositeMonitor([CrashMonitor(), IdtIntegrityMonitor()])
        report = composite.observe(bed)
        assert report.kind == "hypervisor crash"

    def test_quiet_when_all_quiet(self, bed):
        composite = CompositeMonitor([CrashMonitor(), IdtIntegrityMonitor()])
        assert not composite.observe(bed).occurred

    def test_observe_all_returns_per_monitor(self, bed):
        composite = CompositeMonitor([CrashMonitor(), IdtIntegrityMonitor()])
        reports = composite.observe_all(bed)
        assert set(reports) == {"hypervisor-crash", "idt-integrity"}


# ----------------------------------------------------------------------
# Present-entry scans against the per-index loops they replaced
# ----------------------------------------------------------------------


class PerIndexIntegrityMonitor(PageTableIntegrityMonitor):
    """Reference: the integrity scans reading all 512 words one by one."""

    @staticmethod
    def _scan_l2(xen, domain, mfn):
        hits = []
        for index in range(C.ENTRIES_PER_TABLE):
            entry = xen.machine.read_word(mfn, index)
            if entry & C.PTE_PRESENT and entry & C.PTE_PSE and entry & C.PTE_RW:
                hits.append(
                    f"d{domain.id} L2 mfn {mfn:#06x}[{index}]: "
                    f"writable PSE superpage -> mfn {pte_mfn(entry):#06x}"
                )
        return hits

    @staticmethod
    def _scan_l4(xen, domain, mfn):
        hits = []
        for index in range(C.ENTRIES_PER_TABLE):
            entry = xen.machine.read_word(mfn, index)
            if (
                entry & C.PTE_PRESENT
                and entry & C.PTE_RW
                and pte_mfn(entry) == mfn
            ):
                hits.append(
                    f"d{domain.id} L4 mfn {mfn:#06x}[{index}]: "
                    "writable self-mapping"
                )
        return hits


class PerIndexForeignMappingMonitor(ForeignMappingMonitor):
    """Reference: the isolation monitor's per-index L1 scan."""

    @staticmethod
    def _scan_l1(xen, domain, mfn, victim, victim_frames):
        hits = []
        for index in range(C.ENTRIES_PER_TABLE):
            entry = xen.machine.read_word(mfn, index)
            if entry & C.PTE_PRESENT and pte_mfn(entry) in victim_frames:
                hits.append(
                    f"d{domain.id} ({domain.name}) L1 mfn "
                    f"{mfn:#06x}[{index}] maps {victim.name} frame "
                    f"{pte_mfn(entry):#06x} without a grant"
                )
        return hits


def per_index_zap(xen, domain, target_mfn):
    """Reference: ``Xen.zap_guest_mappings`` as a per-index loop."""
    for mfn in list(domain.p2m):
        if mfn is None:
            continue
        if xen.frames.info(mfn).type is not PageType.L1:
            continue
        for index in range(C.ENTRIES_PER_TABLE):
            entry = xen.machine.read_word(mfn, index)
            if pte_present(entry) and pte_mfn(entry) == target_mfn:
                xen.machine.write_word(mfn, index, 0)


def _l1_targets(bed):
    """Every mfn some domain's L1 tables map, in a stable order."""
    xen = bed.xen
    mapped = set()
    for domain in bed.all_domains():
        for mfn in domain.p2m:
            if mfn is not None and xen.frames.info(mfn).type is PageType.L1:
                mapped.update(
                    pte_mfn(xen.machine.read_word(mfn, index))
                    for index in range(C.ENTRIES_PER_TABLE)
                    if pte_present(xen.machine.read_word(mfn, index))
                )
    return sorted(mapped)


class TestPresentEntryScans:
    @pytest.mark.parametrize("mode", ["exploit", "injection"])
    @pytest.mark.parametrize(
        "use_case", [XSA148Priv, XSA182Test, XSA212Crash, XSA212Priv],
        ids=lambda cls: cls.name,
    )
    def test_match_per_index_reference_on_end_states(self, use_case, mode):
        bed = build_testbed(XEN_4_6)
        attack = use_case()
        attack.prepare(bed)
        try:
            getattr(attack, f"run_{mode}")(bed)
        except SimulationError:
            pass  # a crash or a failed attack is an end state too
        # Two ungranted mappings of a victim frame, so the isolation
        # scan has an ordered list to report on every end state.
        attacker = bed.attacker_domain
        l1_mfn = attacker.pfn_to_mfn(attacker.kernel.l1_pfns[0])
        victim_mfn = next(m for m in bed.victim_domain.p2m if m is not None)
        for index in (499, 500):
            bed.xen.machine.write_word(
                l1_mfn, index, make_pte(victim_mfn, C.PTE_PRESENT)
            )

        integrity = PageTableIntegrityMonitor().observe(bed)
        assert integrity == PerIndexIntegrityMonitor().observe(bed)
        # XSA-148 leaves a writable superpage, XSA-182 a writable self-map.
        assert bool(integrity.evidence) == (use_case in (XSA148Priv, XSA182Test))
        foreign = ForeignMappingMonitor().observe(bed)
        assert foreign == PerIndexForeignMappingMonitor().observe(bed)
        assert foreign.evidence

        machine = bed.xen.machine
        targets = _l1_targets(bed)[::3] + [victim_mfn]
        snapshot = MachineSnapshot.capture(machine)
        before = machine_digest(machine)
        digests = []
        for zap in (bed.xen.zap_guest_mappings, partial(per_index_zap, bed.xen)):
            snapshot.restore(machine)
            for domain in bed.all_domains():
                for target in targets:
                    zap(domain, target)
            digests.append(machine_digest(machine))
        assert digests[0] == digests[1] != before
