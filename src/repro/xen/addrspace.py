"""Linear-address translation for guest and hypervisor contexts.

Two walkers live here:

* :meth:`AddressSpace.guest_translate` — what the MMU does for a
  guest-context access: walk the guest's page tables for guest-owned
  L4 slots, and apply Xen's shared upper-half region rules for the
  hypervisor slots (read-only M2P window, the pre-hardening RWX linear
  alias, crafted overlay entries).

* :meth:`AddressSpace.hypervisor_translate` — hypervisor-context
  linear addressing: the Xen-private direct map plus the shared
  upper-half regions.  This is the path the ``arbitrary_access()``
  injector and the XSA-212 write primitive use.

The two hardening measures of Xen 4.9+ (paper §VIII) are enforced
here: the linear alias simply is not present, and guest walks that
reach a page-table frame *through* a linear/self mapping fault.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Tuple

from repro.errors import GuestFault, HypervisorFault
from repro.xen import layout
from repro.xen.constants import (
    PAGE_SHIFT,
    PTE_NX,
    PTE_PRESENT,
    PTE_PSE,
    PTE_RW,
    PTE_USER,
    WORDS_PER_PAGE,
    XEN_SPECIAL_LINEAR_ALIAS,
    XEN_SPECIAL_RO_MPT,
)
from repro.xen.paging import (
    canonical,
    l1_index,
    l2_index,
    l3_index,
    l4_index,
    pte_mfn,
    special_kind,
    word_index,
)
from repro.xen.versions import Hardening

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.domain import Domain
    from repro.xen.hypervisor import Xen


class Access(enum.Enum):
    """Kind of memory access being translated."""

    READ = "read"
    WRITE = "write"
    EXEC = "exec"


class AddressSpace:
    """Walker over the simulated machine's address spaces."""

    def __init__(self, xen: "Xen"):
        self.xen = xen

    # ------------------------------------------------------------------
    # Guest-context translation
    # ------------------------------------------------------------------

    def guest_translate(
        self,
        domain: "Domain",
        va: int,
        access: Access,
        user: bool = False,
    ) -> Tuple[int, int]:
        """Translate a guest-context access to ``(mfn, word_index)``.

        Raises :class:`~repro.errors.GuestFault` on any denial, exactly
        where real hardware would raise #PF/#GP.
        """
        va = canonical(va)
        slot = l4_index(va)
        if layout.XEN_FIRST_SLOT <= slot <= layout.XEN_LAST_SLOT:
            return self._resolve_xen_region(domain, va, access, guest=True)
        return self._walk(domain, va, access, user)

    # ------------------------------------------------------------------
    # Hypervisor-context translation
    # ------------------------------------------------------------------

    def hypervisor_translate(self, va: int, access: Access) -> Tuple[int, int]:
        """Translate a hypervisor-context linear address.

        Raises :class:`~repro.errors.HypervisorFault` if the address is
        not mapped in the hypervisor's address space.
        """
        va = canonical(va)
        if layout.in_xen_directmap(va):
            offset = va - layout.XEN_DIRECTMAP_START
            mfn = offset >> PAGE_SHIFT
            if mfn >= self.xen.machine.num_frames:
                raise HypervisorFault(va, "direct map beyond end of memory")
            return mfn, word_index(va)
        slot = l4_index(va)
        if layout.XEN_FIRST_SLOT <= slot <= layout.XEN_LAST_SLOT:
            try:
                return self._resolve_xen_region(None, va, access, guest=False)
            except GuestFault as exc:
                raise HypervisorFault(va, exc.reason) from None
        raise HypervisorFault(va, "not a hypervisor address")

    # ------------------------------------------------------------------
    # Shared upper-half regions (slot 256 table + private slots)
    # ------------------------------------------------------------------

    def _resolve_xen_region(
        self,
        domain,
        va: int,
        access: Access,
        guest: bool,
    ) -> Tuple[int, int]:
        def deny(reason: str) -> GuestFault:
            return GuestFault(va, access.value, reason)

        if layout.in_xen_directmap(va):
            if guest:
                raise deny("hypervisor-private direct map")
            # handled by hypervisor_translate before we get here
            raise deny("unreachable")

        slot = l4_index(va)
        if slot != layout.XEN_FIRST_SLOT:
            raise deny("unmapped hypervisor slot")

        # Slot 256 is backed by a real table frame (xen_pud) whose
        # entries are either Xen's special region descriptors or —
        # after an attack/injection — ordinary crafted PTEs.
        pud_entry = self.xen.machine.read_word(self.xen.xen_pud_mfn, l3_index(va))
        if not pud_entry & PTE_PRESENT:
            raise deny("not present in hypervisor area")

        kind = special_kind(pud_entry)
        if kind == XEN_SPECIAL_RO_MPT:
            if access is not Access.READ:
                raise deny("read-only hypervisor region")
            entry_index = (va - layout.RO_MPT_START) >> 3
            frame_slot, word = divmod(entry_index, WORDS_PER_PAGE)
            if frame_slot >= len(self.xen.m2p_frames):
                raise deny("beyond machine-to-phys table")
            return self.xen.m2p_frames[frame_slot], word

        if kind == XEN_SPECIAL_LINEAR_ALIAS:
            # A linear-alias descriptor copied into a lower PUD slot
            # puts ``va`` below the alias base: a negative frame.
            offset = va - layout.LINEAR_ALIAS_START
            mfn = offset >> PAGE_SHIFT
            if not 0 <= mfn < self.xen.machine.num_frames:
                raise deny("alias beyond end of memory")
            return mfn, word_index(va)

        if kind is not None:
            raise deny(f"unusable special region kind {kind}")

        # Ordinary PTE in the shared table: a crafted mapping.  Continue
        # a normal walk below it (L3 entry -> L2 -> L1 -> page).
        return self._walk_below_l3(va, pud_entry, access, guest)

    def _walk_below_l3(
        self, va: int, l3e: int, access: Access, guest: bool
    ) -> Tuple[int, int]:
        machine = self.xen.machine

        def deny(reason: str) -> GuestFault:
            return GuestFault(va, access.value, reason)

        if l3e & PTE_PSE:
            raise deny("1 GiB superpages unsupported")
        l2_mfn = self._frame_or_deny(pte_mfn(l3e), deny)
        l2e = machine.read_word(l2_mfn, l2_index(va))
        self._check_entry(va, l2e, access, deny)
        if l2e & PTE_PSE:
            return self._superpage_target(va, l2e, deny)
        l1_mfn = self._frame_or_deny(pte_mfn(l2e), deny)
        l1e = machine.read_word(l1_mfn, l1_index(va))
        self._check_entry(va, l1e, access, deny, leaf=True)
        target = self._frame_or_deny(pte_mfn(l1e), deny)
        return target, word_index(va)

    # ------------------------------------------------------------------
    # Ordinary 4-level walk through guest-owned tables
    # ------------------------------------------------------------------

    def _walk(
        self, domain: "Domain", va: int, access: Access, user: bool
    ) -> Tuple[int, int]:
        machine = self.xen.machine
        frames = self.xen.frames
        restricted = self.xen.version.has_hardening(Hardening.LINEAR_PT_RESTRICTED)

        def deny(reason: str) -> GuestFault:
            return GuestFault(va, access.value, reason)

        l4_mfn = domain.current_vcpu.cr3_mfn
        if l4_mfn is None:
            raise deny("no page tables loaded (cr3 empty)")

        table_mfn = l4_mfn
        indices = (l4_index(va), l3_index(va), l2_index(va))
        for step, (level, index) in enumerate(zip((4, 3, 2), indices)):
            entry = machine.read_word(table_mfn, index)
            self._check_entry(va, entry, access, deny, user=user)
            if level == 2 and entry & PTE_PSE:
                return self._superpage_target(va, entry, deny)
            if level != 2 and entry & PTE_PSE:
                raise deny(f"PSE at L{level} unsupported")
            child = self._frame_or_deny(pte_mfn(entry), deny)
            if restricted:
                child_level = frames.pagetable_level(child)
                if child_level >= level:
                    # A table frame showing up at (or below) its own
                    # level means the walk goes through a linear/self
                    # page-table mapping — restricted since Xen 4.9.
                    raise deny(
                        "linear page-table access restricted "
                        f"(L{child_level} table used as L{level - 1})"
                    )
            table_mfn = child

        l1e = machine.read_word(table_mfn, l1_index(va))
        self._check_entry(va, l1e, access, deny, user=user, leaf=True)
        target = self._frame_or_deny(pte_mfn(l1e), deny)
        return target, word_index(va)

    # ------------------------------------------------------------------
    # Shared entry checks
    # ------------------------------------------------------------------

    def _frame_or_deny(self, mfn: int, deny) -> int:
        """A corrupted PTE referencing a non-existent frame is a page
        fault to the walking context, not a simulator error."""
        if mfn >= self.xen.machine.num_frames:
            raise deny(f"entry references invalid frame {mfn:#x}")
        return mfn

    @staticmethod
    def _check_entry(va, entry, access, deny, user=False, leaf=False):
        if not entry & PTE_PRESENT:
            raise deny("page not present")
        if access is Access.WRITE and not entry & PTE_RW:
            raise deny("write to read-only mapping")
        if user and not entry & PTE_USER:
            raise deny("user access to supervisor mapping")
        if leaf and access is Access.EXEC and entry & PTE_NX:
            raise deny("execute of NX page")

    def _superpage_target(self, va, l2e, deny) -> Tuple[int, int]:
        base_mfn = pte_mfn(l2e)
        target = base_mfn + l1_index(va)
        if target >= self.xen.machine.num_frames:
            raise deny("superpage beyond end of memory")
        return target, word_index(va)
