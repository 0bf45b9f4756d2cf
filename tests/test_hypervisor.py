"""Unit tests for the hypervisor façade."""

import pytest

from repro.errors import GuestFault, HypercallError, HypervisorCrash, MachineError
from repro.xen import constants as C
from repro.xen import layout
from repro.xen.hypervisor import Xen
from repro.xen.idt import encode_gate
from repro.xen.machine import Machine
from repro.xen.payload import Payload, XenStub
from repro.xen.versions import XEN_4_6, XEN_4_13
from tests.conftest import make_guest


class TestBoot:
    def test_console_banner(self, xen):
        assert any("booting" in line for line in xen.console)

    def test_idt_frames_per_cpu(self, xen):
        assert len(xen.idt_mfns) == xen.num_pcpus

    def test_boot_gates_valid(self, xen):
        idt = xen.idt(0)
        for vector in range(C.IDT_VECTORS):
            assert idt.is_valid(vector)

    def test_pf_gate_points_to_stub(self, xen):
        from repro.xen.addrspace import Access

        handler = xen.idt(0).handler(C.TRAP_PAGE_FAULT)
        mfn, word = xen.addrspace.hypervisor_translate(handler, Access.EXEC)
        assert isinstance(xen.machine.blob_at(mfn, word), XenStub)

    def test_xen_frames_owned_by_xen(self, xen):
        for mfn in [xen.xen_code_mfn, xen.xen_pud_mfn, *xen.idt_mfns, *xen.m2p_frames]:
            assert xen.frames.owner_of(mfn) == C.DOMID_XEN

    def test_alias_entries_by_version(self):
        xen46 = Xen(XEN_4_6, Machine(128))
        xen413 = Xen(XEN_4_13, Machine(128))
        alias_index = layout.LINEAR_ALIAS_FIRST_L3
        assert xen46.machine.read_word(xen46.xen_pud_mfn, alias_index) != 0
        assert xen413.machine.read_word(xen413.xen_pud_mfn, alias_index) == 0

    def test_sidt_matches_directmap(self, xen):
        assert xen.sidt(0) == layout.directmap_va(xen.idt_mfns[0])
        assert xen.sidt(1) == layout.directmap_va(xen.idt_mfns[1])


class TestDomains:
    def test_domid_sequence(self, xen):
        a = xen.create_domain("a", num_pages=4)
        b = xen.create_domain("b", num_pages=4)
        assert (a.id, b.id) == (0, 1)

    def test_start_info_fingerprint(self, xen):
        domain = xen.create_domain("d", num_pages=4)
        mfn = domain.start_info_mfn
        assert xen.machine.read_word(mfn, 0) == C.START_INFO_MAGIC
        assert xen.machine.read_word(mfn, 1) == domain.id
        assert xen.machine.read_word(mfn, 2) == 4

    def test_m2p_populated(self, xen):
        domain = xen.create_domain("d", num_pages=4)
        for pfn, mfn in enumerate(domain.p2m):
            assert xen.m2p(mfn) == pfn

    def test_m2p_across_frames_and_reused_memory(self):
        # 1024 frames need two M2P frames; "b" straddles mfn 512, and
        # "c" gets a's freed frames back in reverse order.
        xen = Xen(XEN_4_13, Machine(1024))
        a = xen.create_domain("a", num_pages=400)
        freed = list(a.p2m)
        b = xen.create_domain("b", num_pages=200)
        xen.destroy_domain(a)
        c = xen.create_domain("c", num_pages=300)
        assert c.p2m[1] == c.p2m[0] - 1
        for domain in (b, c):
            for pfn, mfn in enumerate(domain.p2m):
                assert xen.m2p(mfn) == pfn
        assert {xen.m2p(mfn) for mfn in set(freed) - set(c.p2m)} == {0}

    def test_m2p_written_for_pages_allocated_before_running_out(self):
        xen = Xen(XEN_4_13, Machine(64))
        free = xen.machine.frames_free
        with pytest.raises(MachineError, match="out of machine memory"):
            xen.create_domain("d", num_pages=free + 1)
        mfns = [mfn for mfn in range(64) if xen.frames.owner_of(mfn) == 0]
        assert len(mfns) == free
        for mfn in mfns:
            assert xen.m2p(mfn) == xen.frames.info(mfn).pfn

    def test_destroy_returns_memory(self, xen):
        free_before = xen.machine.frames_free
        domain = xen.create_domain("d", num_pages=8)
        xen.destroy_domain(domain)
        assert xen.machine.frames_free == free_before
        assert domain.dead
        assert domain.id not in xen.domains

    def test_alloc_domain_page_reuses_holes(self, xen):
        guest = make_guest(xen, pages=16)
        pfn = guest.kernel.alloc_page()
        guest.kernel.decrease_reservation([pfn])
        assert guest.p2m[pfn] is None
        new_pfn, new_mfn = xen.alloc_domain_page(guest)
        assert new_pfn == pfn
        assert guest.p2m[pfn] == new_mfn

    def test_free_domain_page_refuses_referenced(self, xen):
        guest = make_guest(xen)
        l4_mfn = guest.current_vcpu.cr3_mfn  # pinned L4
        with pytest.raises(HypercallError):
            xen.free_domain_page(guest, l4_mfn)


class TestPanic:
    def test_panic_raises_and_marks_dead(self, xen):
        with pytest.raises(HypervisorCrash):
            xen.panic("TEST PANIC")
        assert xen.crashed
        assert "TEST PANIC" in xen.crash_banner
        assert any("Panic on CPU 0" in line for line in xen.console)

    def test_interactions_after_crash_raise(self, xen):
        with pytest.raises(HypervisorCrash):
            xen.panic("dead")
        guest_domain = None
        with pytest.raises(HypervisorCrash):
            xen.create_domain("late", num_pages=4)

    def test_hypercall_after_crash_raises(self, xen):
        guest = make_guest(xen)
        with pytest.raises(HypervisorCrash):
            xen.panic("dead")
        with pytest.raises(HypervisorCrash):
            xen.hypercall(guest, C.HYPERCALL_CONSOLE_IO, "hi")


class TestTrapDelivery:
    def test_page_fault_with_intact_idt_is_forwarded(self, xen):
        guest = make_guest(xen)
        fault = GuestFault(0x1000, "read", "test")
        xen.deliver_page_fault(guest, fault)  # returns quietly
        assert not xen.crashed

    def test_page_fault_with_corrupt_gate_double_faults(self, xen):
        guest = make_guest(xen)
        xen.machine.write_word(
            xen.idt_mfns[0], 2 * C.TRAP_PAGE_FAULT, 0xBAD
        )
        with pytest.raises(HypervisorCrash):
            xen.deliver_page_fault(guest, GuestFault(0x1000, "read", "test"))
        assert xen.crashed
        assert any("DOUBLE FAULT" in line for line in xen.console)

    def test_forged_gate_to_unmapped_address_double_faults(self, xen):
        guest = make_guest(xen)
        word0, word1 = encode_gate(0xFFFF_F000_0000_0000)  # unmapped
        xen.machine.write_word(xen.idt_mfns[0], 2 * C.TRAP_PAGE_FAULT, word0)
        xen.machine.write_word(xen.idt_mfns[0], 2 * C.TRAP_PAGE_FAULT + 1, word1)
        with pytest.raises(HypervisorCrash):
            xen.deliver_page_fault(guest, GuestFault(0x1000, "read", "test"))

    def test_software_interrupt_to_stub_is_benign(self, xen):
        guest = make_guest(xen)
        xen.software_interrupt(guest, 0x40)
        assert not xen.crashed

    def test_software_interrupt_invalid_gate_faults_guest(self, xen):
        guest = make_guest(xen)
        xen.idt(0).clear_gate(0x41)
        with pytest.raises(GuestFault):
            xen.software_interrupt(guest, 0x41)

    def test_software_interrupt_executes_payload(self, xen):
        guest = make_guest(xen)
        hits = []
        payload = Payload("probe", action=lambda x, d: hits.append(d.id))
        target_mfn = guest.pfn_to_mfn(3)
        xen.machine.attach_blob(target_mfn, 0, payload)
        word0, word1 = encode_gate(layout.directmap_va(target_mfn))
        xen.machine.write_word(xen.idt_mfns[0], 2 * 0x42, word0)
        xen.machine.write_word(xen.idt_mfns[0], 2 * 0x42 + 1, word1)
        xen.software_interrupt(guest, 0x42)
        assert hits == [guest.id]

    def test_software_interrupt_into_garbage_double_faults(self, xen):
        guest = make_guest(xen)
        word0, word1 = encode_gate(layout.directmap_va(guest.pfn_to_mfn(3)))
        xen.machine.write_word(xen.idt_mfns[0], 2 * 0x43, word0)
        xen.machine.write_word(xen.idt_mfns[0], 2 * 0x43 + 1, word1)
        with pytest.raises(HypervisorCrash):
            xen.software_interrupt(guest, 0x43)


class TestMemoryServices:
    def test_m2p_roundtrip(self, xen):
        xen.set_m2p(17, 5)
        assert xen.m2p(17) == 5
        xen.clear_m2p(17)
        assert xen.m2p(17) == 0

    def test_unchecked_copy_prefers_guest_translation(self, xen):
        guest = make_guest(xen)
        va = guest.kernel.kva(4)
        xen.unchecked_copy_to_guest(guest, va, 0x77)
        assert xen.machine.read_word(guest.pfn_to_mfn(4), 0) == 0x77

    def test_unchecked_copy_falls_back_to_hypervisor_space(self, xen):
        guest = make_guest(xen)
        dest = layout.directmap_va(xen.xen_pud_mfn, 450)
        xen.unchecked_copy_to_guest(guest, dest, 0x99)
        assert xen.machine.read_word(xen.xen_pud_mfn, 450) == 0x99

    def test_unchecked_copy_unmapped_raises(self, xen):
        guest = make_guest(xen)
        with pytest.raises(HypercallError):
            xen.unchecked_copy_to_guest(guest, 0xFFFF_F000_0000_0000, 1)

    def test_zap_guest_mappings(self, xen):
        guest = make_guest(xen)
        target = guest.pfn_to_mfn(4)
        l1_mfn = guest.pfn_to_mfn(guest.kernel.l1_pfns[0])
        assert xen.machine.read_word(l1_mfn, 4) != 0
        xen.zap_guest_mappings(guest, target)
        assert xen.machine.read_word(l1_mfn, 4) == 0

    def test_dump_console(self, xen):
        assert "booting" in xen.dump_console()
