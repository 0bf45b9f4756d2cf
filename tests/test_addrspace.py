"""Unit tests for guest/hypervisor address translation."""

import pytest

from repro.errors import GuestFault, HypervisorFault
from repro.xen import layout
from repro.xen.addrspace import Access
from repro.xen.constants import (
    PAGE_SIZE,
    PTE_PRESENT,
    PTE_PSE,
    PTE_RW,
    PTE_USER,
    XEN_SPECIAL_LINEAR_ALIAS,
)
from repro.xen.hypervisor import Xen
from repro.xen.machine import Machine
from repro.xen.paging import make_pte, make_special_pte
from repro.xen.versions import XEN_4_6, XEN_4_8, XEN_4_13
from tests.conftest import make_guest


class TestGuestKernelMapping:
    def test_translate_own_page(self, xen):
        guest = make_guest(xen)
        pfn = 5
        va = layout.guest_kernel_va(pfn, 3)
        mfn, word = xen.addrspace.guest_translate(guest, va, Access.READ)
        assert mfn == guest.pfn_to_mfn(pfn)
        assert word == 3

    def test_write_access_to_data_page(self, xen):
        guest = make_guest(xen)
        va = layout.guest_kernel_va(4)
        xen.addrspace.guest_translate(guest, va, Access.WRITE)

    def test_pagetable_pages_mapped_read_only(self, xen):
        guest = make_guest(xen)
        va = layout.guest_kernel_va(guest.kernel.l4_pfn)
        xen.addrspace.guest_translate(guest, va, Access.READ)
        with pytest.raises(GuestFault):
            xen.addrspace.guest_translate(guest, va, Access.WRITE)

    def test_start_info_read_only(self, xen):
        guest = make_guest(xen)
        va = layout.guest_kernel_va(0)
        with pytest.raises(GuestFault):
            xen.addrspace.guest_translate(guest, va, Access.WRITE)

    def test_unmapped_address_faults(self, xen):
        guest = make_guest(xen)
        with pytest.raises(GuestFault) as excinfo:
            xen.addrspace.guest_translate(
                guest, layout.GUEST_KERNEL_BASE + (1 << 38), Access.READ
            )
        assert "not present" in excinfo.value.reason

    def test_user_access_to_supervisor_mapping_faults(self, xen):
        guest = make_guest(xen)
        va = layout.guest_kernel_va(4)
        with pytest.raises(GuestFault):
            xen.addrspace.guest_translate(guest, va, Access.READ, user=True)

    def test_no_cr3_faults(self, xen):
        domain = xen.create_domain("bare", num_pages=8)
        with pytest.raises(GuestFault):
            xen.addrspace.guest_translate(domain, layout.GUEST_KERNEL_BASE, Access.READ)


class TestSuperpages:
    def _install_pse(self, xen, guest, base_mfn):
        l2_mfn = guest.pfn_to_mfn(guest.kernel.l2_pfn)
        xen.machine.write_word(
            l2_mfn, 1, make_pte(base_mfn, PTE_PRESENT | PTE_RW | PTE_PSE)
        )
        return layout.GUEST_KERNEL_BASE + (1 << 21)

    def test_pse_walk_targets_offset_frame(self, xen):
        guest = make_guest(xen)
        window = self._install_pse(xen, guest, 0)
        mfn, word = xen.addrspace.guest_translate(
            guest, window + 7 * PAGE_SIZE + 8, Access.READ
        )
        assert mfn == 7
        assert word == 1

    def test_pse_beyond_memory_faults(self, xen):
        guest = make_guest(xen)
        window = self._install_pse(xen, guest, xen.machine.num_frames)
        with pytest.raises(GuestFault):
            xen.addrspace.guest_translate(guest, window, Access.READ)


class TestXenRegions:
    def test_ro_mpt_readable(self, xen):
        guest = make_guest(xen)
        mfn, word = xen.addrspace.guest_translate(
            guest, layout.RO_MPT_START, Access.READ
        )
        assert mfn == xen.m2p_frames[0]
        assert word == 0

    def test_ro_mpt_reads_m2p_content(self, xen):
        guest = make_guest(xen)
        target = guest.pfn_to_mfn(3)
        va = layout.RO_MPT_START + target * 8
        mfn, word = xen.addrspace.guest_translate(guest, va, Access.READ)
        assert xen.machine.read_word(mfn, word) == 3  # m2p[mfn] == pfn

    def test_ro_mpt_write_faults(self, xen):
        guest = make_guest(xen)
        with pytest.raises(GuestFault) as excinfo:
            xen.addrspace.guest_translate(guest, layout.RO_MPT_START, Access.WRITE)
        assert "read-only" in excinfo.value.reason

    def test_directmap_private_to_hypervisor(self, xen):
        guest = make_guest(xen)
        with pytest.raises(GuestFault):
            xen.addrspace.guest_translate(
                guest, layout.XEN_DIRECTMAP_START, Access.READ
            )

    def test_other_xen_slots_unmapped(self, xen):
        guest = make_guest(xen)
        with pytest.raises(GuestFault):
            xen.addrspace.guest_translate(guest, layout.slot_base(258), Access.READ)


class TestLinearAlias:
    """The alias exists on 4.6/4.8 and is gone on 4.13 (§VIII)."""

    @pytest.mark.parametrize("version", [XEN_4_6, XEN_4_8], ids=["4.6", "4.8"])
    def test_alias_guest_rw(self, version):
        xen = Xen(version, Machine(512))
        guest = make_guest(xen)
        target = guest.pfn_to_mfn(3)
        va = layout.alias_va(target, 2)
        for access in (Access.READ, Access.WRITE, Access.EXEC):
            mfn, word = xen.addrspace.guest_translate(guest, va, access)
            assert (mfn, word) == (target, 2)

    def test_alias_removed_on_413(self):
        xen = Xen(XEN_4_13, Machine(512))
        guest = make_guest(xen)
        with pytest.raises(GuestFault) as excinfo:
            xen.addrspace.guest_translate(guest, layout.alias_va(3), Access.READ)
        assert "not present" in excinfo.value.reason

    def test_alias_removed_for_hypervisor_too_on_413(self):
        xen = Xen(XEN_4_13, Machine(512))
        with pytest.raises(HypervisorFault):
            xen.addrspace.hypervisor_translate(layout.alias_va(3), Access.READ)

    def test_alias_beyond_memory_faults(self):
        xen = Xen(XEN_4_6, Machine(512))
        guest = make_guest(xen)
        with pytest.raises(GuestFault):
            xen.addrspace.guest_translate(
                guest, layout.alias_va(xen.machine.num_frames), Access.READ
            )

    @pytest.mark.parametrize("version", [XEN_4_6, XEN_4_13], ids=["4.6", "4.13"])
    def test_alias_descriptor_below_alias_base_faults(self, version):
        # A linear-alias descriptor copied into PUD slot 0 (the RO M2P
        # slot) resolves addresses below the alias base to negative
        # frames; that is a guest fault, not a machine error.
        xen = Xen(version, Machine(512))
        guest = make_guest(xen)
        xen.machine.write_word(
            xen.xen_pud_mfn, 0, make_special_pte(XEN_SPECIAL_LINEAR_ALIAS)
        )
        with pytest.raises(GuestFault) as excinfo:
            xen.addrspace.guest_translate(
                guest, layout.RO_MPT_START, Access.READ
            )
        assert "alias" in excinfo.value.reason


class TestLinearPtRestriction:
    """The 4.13 hardening: walks through linear/self PT mappings fault."""

    def _self_map(self, xen, guest, flags):
        l4_mfn = guest.current_vcpu.cr3_mfn
        xen.machine.write_word(l4_mfn, 5, make_pte(l4_mfn, flags))
        from repro.xen.paging import build_va

        return build_va(5, 5, 5, 5)

    @pytest.mark.parametrize("version", [XEN_4_6, XEN_4_8], ids=["4.6", "4.8"])
    def test_self_map_walk_allowed_without_hardening(self, version):
        xen = Xen(version, Machine(512))
        guest = make_guest(xen)
        va = self._self_map(xen, guest, PTE_PRESENT | PTE_RW | PTE_USER)
        mfn, _ = xen.addrspace.guest_translate(guest, va, Access.WRITE)
        assert mfn == guest.current_vcpu.cr3_mfn

    def test_self_map_walk_restricted_on_413(self):
        xen = Xen(XEN_4_13, Machine(512))
        guest = make_guest(xen)
        va = self._self_map(xen, guest, PTE_PRESENT | PTE_RW | PTE_USER)
        with pytest.raises(GuestFault) as excinfo:
            xen.addrspace.guest_translate(guest, va, Access.WRITE)
        assert "linear page-table" in excinfo.value.reason


class TestHypervisorTranslate:
    def test_directmap(self, xen):
        mfn, word = xen.addrspace.hypervisor_translate(
            layout.directmap_va(9, 4), Access.WRITE
        )
        assert (mfn, word) == (9, 4)

    def test_directmap_beyond_memory(self, xen):
        with pytest.raises(HypervisorFault):
            xen.addrspace.hypervisor_translate(
                layout.directmap_va(xen.machine.num_frames), Access.READ
            )

    def test_guest_va_not_hypervisor(self, xen):
        with pytest.raises(HypervisorFault):
            xen.addrspace.hypervisor_translate(layout.GUEST_KERNEL_BASE, Access.READ)

    def test_lower_half_not_hypervisor(self, xen):
        with pytest.raises(HypervisorFault):
            xen.addrspace.hypervisor_translate(0x1000, Access.READ)

    def test_ro_mpt_resolvable(self, xen):
        mfn, _ = xen.addrspace.hypervisor_translate(layout.RO_MPT_START, Access.READ)
        assert mfn == xen.m2p_frames[0]
