"""The guest kernel: a PV Linux stand-in.

Each domain runs a :class:`GuestKernel` that

* builds its own page tables (direct-map style: guest pseudo-physical
  page ``pfn`` appears at ``0xffff880000000000 + pfn * 4096``) and
  registers them with the hypervisor via ``mmuext_op`` pin + baseptr —
  the PV "direct paging" model of paper §V-A;
* performs all further page-table changes through ``mmu_update``;
* accesses memory through guest-context translation, turning faults
  into kernel oopses (after letting the hypervisor deliver the #PF,
  which is where the XSA-212-crash double fault fires);
* hosts processes, a filesystem, and the vDSO page.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import GuestFault, SimulationError
from repro.guest.filesystem import FileSystem
from repro.guest.process import ROOT, Credentials, Process
from repro.guest.vdso import VDSO_FUNCTION_WORD, VdsoBackdoorPayload, stamp_vdso
from repro.xen import constants as C
from repro.xen import layout
from repro.xen.addrspace import Access
from repro.xen.hypercalls import (
    EventChannelOpArgs,
    ExchangeArgs,
    GrantTableOpArgs,
    MmuExtOp,
    MmuUpdate,
)
from repro.xen.paging import make_pte
from repro.xen.payload import Payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.domain import Domain
    from repro.xen.hypervisor import Xen


class KernelOops(SimulationError):
    """The guest kernel hit an unhandled exception (and logged it)."""

    def __init__(self, fault: GuestFault):
        self.fault = fault
        super().__init__(f"kernel oops: {fault}")


class GuestKernel:
    """The kernel of one PV domain."""

    def __init__(self, xen: "Xen", domain: "Domain"):
        self.xen = xen
        self.domain = domain
        domain.kernel = self
        from repro.probes import points as probe_points

        self._p_user_work = xen.probes.point(probe_points.USER_WORK)
        self.fs = FileSystem()
        self.log: List[str] = []
        self._clock = 100.0
        self.processes: List[Process] = []
        self._next_pid = 1
        self.events_received: List[int] = []
        #: Port -> callback registered by drivers (see bind_handler).
        self._event_handlers: Dict[int, Callable[[int], None]] = {}
        #: Values an attacker running in this guest has exfiltrated
        #: (read from memory it should not see) — the confidentiality
        #: monitor inspects this.
        self.loot: List[int] = []

        # Page-table frame bookkeeping (filled by boot()).
        self.l4_pfn: Optional[int] = None
        self.l3_pfn: Optional[int] = None
        self.l2_pfn: Optional[int] = None
        self.l1_pfns: List[int] = []
        self.vdso_pfn: Optional[int] = None
        self._free_pfns: List[int] = []
        self.booted = False

    # ------------------------------------------------------------------
    # Boot: build + register page tables, create the vDSO and init
    # ------------------------------------------------------------------

    def boot(self) -> None:
        """Domain-builder phase: construct the initial address space.

        Mirrors how a PV domain starts: the builder writes the initial
        tables into the domain's own pages, then the kernel pins the
        root and loads it.  Page-table frames and the start_info page
        are mapped read-only (Xen's validation would refuse anything
        else); ordinary pages are mapped read-write.
        """
        if self.booted:
            raise SimulationError("kernel already booted")
        domain = self.domain
        machine = self.xen.machine
        num_pages = len(domain.p2m)
        if num_pages > C.ENTRIES_PER_TABLE:
            raise SimulationError("guest kernels support up to 512 pages")

        # Reserve the top pages for the page-table hierarchy.
        self.l4_pfn = num_pages - 1
        self.l3_pfn = num_pages - 2
        self.l2_pfn = num_pages - 3
        self.l1_pfns = [num_pages - 4]
        pt_pfns = {self.l4_pfn, self.l3_pfn, self.l2_pfn, *self.l1_pfns}

        l4_mfn = domain.pfn_to_mfn(self.l4_pfn)
        l3_mfn = domain.pfn_to_mfn(self.l3_pfn)
        l2_mfn = domain.pfn_to_mfn(self.l2_pfn)
        l1_mfn = domain.pfn_to_mfn(self.l1_pfns[0])

        base = layout.GUEST_KERNEL_BASE
        from repro.xen.paging import l2_index, l3_index, l4_index

        intermediate = C.PTE_PRESENT | C.PTE_RW
        machine.write_word(l4_mfn, l4_index(base), make_pte(l3_mfn, intermediate))
        machine.write_word(l3_mfn, l3_index(base), make_pte(l2_mfn, intermediate))
        machine.write_word(l2_mfn, l2_index(base), make_pte(l1_mfn, intermediate))
        l1_entries = []
        for pfn in range(num_pages):
            flags = C.PTE_PRESENT
            if pfn not in pt_pfns and pfn != 0:  # pfn 0 = start_info, RO
                flags |= C.PTE_RW
            l1_entries.append(make_pte(domain.pfn_to_mfn(pfn), flags))
        machine.write_words(l1_mfn, 0, l1_entries)

        # Hand the tables to Xen: pin the root, then load it.
        rc = self.hypercall(
            C.HYPERCALL_MMUEXT_OP,
            [MmuExtOp(cmd=C.MMUEXT_PIN_L4_TABLE, mfn=l4_mfn)],
        )
        if rc != 0:
            raise SimulationError(f"pinning boot L4 failed: {rc}")
        rc = self.hypercall(
            C.HYPERCALL_MMUEXT_OP,
            [MmuExtOp(cmd=C.MMUEXT_NEW_BASEPTR, mfn=l4_mfn)],
        )
        if rc != 0:
            raise SimulationError(f"loading boot L4 failed: {rc}")

        # Register PV trap handlers.
        self.hypercall(
            C.HYPERCALL_SET_TRAP_TABLE,
            {C.TRAP_PAGE_FAULT: "do_page_fault", C.TRAP_GP_FAULT: "do_gp_fault"},
        )

        # Free-page pool: everything not otherwise reserved.
        reserved = pt_pfns | {0}
        self.vdso_pfn = 1
        reserved.add(self.vdso_pfn)
        stamp_vdso(machine, domain.pfn_to_mfn(self.vdso_pfn))
        self._free_pfns = [p for p in range(num_pages) if p not in reserved]

        # PID 1 plus a root shell that periodically calls the vDSO.
        self.spawn("init", ROOT, uses_vdso=True)
        self.booted = True
        self.printk(f"guest kernel booted on {domain.hostname} (d{domain.id})")

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------

    def printk(self, message: str) -> None:
        self._clock += 0.016
        self.log.append(f"[{self._clock:10.4f}] {message}")

    # ------------------------------------------------------------------
    # Hypercalls
    # ------------------------------------------------------------------

    def hypercall(self, number: int, *args) -> int:
        return self.xen.hypercall(self.domain, number, *args)

    def mmu_update(self, updates: Sequence[Tuple[int, int]]) -> int:
        """``mmu_update`` with ``(ptr, val)`` pairs."""
        return self.hypercall(
            C.HYPERCALL_MMU_UPDATE, [MmuUpdate(ptr=p, val=v) for p, v in updates]
        )

    def update_pt_entry(self, table_mfn: int, index: int, value: int) -> int:
        """Update one PTE of one of our tables through the hypervisor."""
        maddr = table_mfn * C.PAGE_SIZE + index * 8
        return self.mmu_update([(maddr | C.MMU_NORMAL_PT_UPDATE, value)])

    def pin_table(self, mfn: int, level: int) -> int:
        cmd = {
            1: C.MMUEXT_PIN_L1_TABLE,
            2: C.MMUEXT_PIN_L2_TABLE,
            3: C.MMUEXT_PIN_L3_TABLE,
            4: C.MMUEXT_PIN_L4_TABLE,
        }[level]
        return self.hypercall(C.HYPERCALL_MMUEXT_OP, [MmuExtOp(cmd=cmd, mfn=mfn)])

    def memory_exchange(self, args: ExchangeArgs) -> int:
        return self.hypercall(C.HYPERCALL_MEMORY_OP, C.XENMEM_EXCHANGE, args)

    def decrease_reservation(self, pfns: Sequence[int]) -> int:
        return self.hypercall(
            C.HYPERCALL_MEMORY_OP, C.XENMEM_DECREASE_RESERVATION, list(pfns)
        )

    def increase_reservation(self, nr_pages: int) -> int:
        return self.hypercall(
            C.HYPERCALL_MEMORY_OP, C.XENMEM_INCREASE_RESERVATION, nr_pages
        )

    def grant_table_op(self, args: GrantTableOpArgs) -> int:
        return self.hypercall(C.HYPERCALL_GRANT_TABLE_OP, args)

    def event_channel_op(self, args: EventChannelOpArgs) -> int:
        return self.hypercall(C.HYPERCALL_EVENT_CHANNEL_OP, args)

    def console_write(self, message: str) -> int:
        return self.hypercall(C.HYPERCALL_CONSOLE_IO, message)

    # ------------------------------------------------------------------
    # Memory access (guest context)
    # ------------------------------------------------------------------

    def kva(self, pfn: int, word: int = 0) -> int:
        """Kernel virtual address of one of our pseudo-physical pages."""
        return layout.guest_kernel_va(pfn, word)

    def _translate(self, va: int, access: Access, user: bool) -> Tuple[int, int]:
        try:
            return self.xen.addrspace.guest_translate(
                self.domain, va, access, user=user
            )
        except GuestFault as fault:
            # Hardware takes the #PF to the hypervisor first; with an
            # intact IDT it is forwarded back and we oops.  With a
            # corrupted IDT this call never returns (double fault).
            self.xen.deliver_page_fault(self.domain, fault)
            self.printk(
                f"BUG: unable to handle page request at {fault.va:#018x} "
                f"({fault.access}: {fault.reason})"
            )
            raise KernelOops(fault) from None

    def read_va(self, va: int, user: bool = False) -> int:
        mfn, word = self._translate(va, Access.READ, user)
        return self.xen.machine.read_word(mfn, word)

    def write_va(self, va: int, value: int, user: bool = False) -> None:
        mfn, word = self._translate(va, Access.WRITE, user)
        self.xen.machine.write_word(mfn, word, value)

    def write_payload_va(self, va: int, payload: Payload) -> None:
        """Write "code" (a payload blob) through a virtual address."""
        mfn, word = self._translate(va, Access.WRITE, user=False)
        self.xen.machine.attach_blob(mfn, word, payload)

    def exec_va(self, va: int) -> Optional[object]:
        """Fetch whatever executable object lives at ``va``."""
        mfn, word = self._translate(va, Access.EXEC, user=False)
        return self.xen.machine.blob_at(mfn, word)

    def trigger_page_fault(self) -> None:
        """Deliberately touch an unmapped address (the XSA-212-crash
        detonator).  Raises :class:`KernelOops` if the system survives."""
        unmapped = layout.GUEST_KERNEL_BASE + (1 << 38)
        self.read_va(unmapped)

    # ------------------------------------------------------------------
    # Page management
    # ------------------------------------------------------------------

    def alloc_page(self) -> int:
        """Take a free pseudo-physical page; returns its PFN."""
        if not self._free_pfns:
            raise SimulationError(f"d{self.domain.id} kernel out of pages")
        return self._free_pfns.pop()

    def free_page(self, pfn: int) -> None:
        self._free_pfns.append(pfn)

    def pfn_to_mfn(self, pfn: int) -> int:
        return self.domain.pfn_to_mfn(pfn)

    def remap_page(self, pfn: int) -> int:
        """Refresh our kernel mapping of ``pfn`` after its backing MFN
        changed (e.g. after ``XENMEM_exchange``)."""
        l1_mfn = self.pfn_to_mfn(self.l1_pfns[0])
        entry = make_pte(self.pfn_to_mfn(pfn), C.PTE_PRESENT | C.PTE_RW)
        return self.update_pt_entry(l1_mfn, pfn, entry)

    def page_maddr(self, pfn: int, word: int = 0) -> int:
        return self.pfn_to_mfn(pfn) * C.PAGE_SIZE + word * 8

    # ------------------------------------------------------------------
    # Processes and the vDSO
    # ------------------------------------------------------------------

    def spawn(
        self, name: str, creds: Credentials, uses_vdso: bool = False
    ) -> Process:
        process = Process(
            pid=self._next_pid, name=name, creds=creds, uses_vdso=uses_vdso
        )
        self._next_pid += 1
        self.processes.append(process)
        return process

    def run_user_work(self) -> None:
        """One scheduling round: every vDSO-using process calls into the
        vDSO page (the XSA-148 backdoor trigger point)."""
        point = self._p_user_work
        if point.subs:
            return point.run(self._run_user_work_impl, (), (self.domain.id,))
        return self._run_user_work_impl()

    def _run_user_work_impl(self) -> None:
        if self.vdso_pfn is None:
            return
        vdso_mfn = self.pfn_to_mfn(self.vdso_pfn)
        blob = self.xen.machine.blob_at(vdso_mfn, VDSO_FUNCTION_WORD)
        for process in self.processes:
            if not process.uses_vdso:
                continue
            if isinstance(blob, VdsoBackdoorPayload):
                blob.trigger(self.xen, self.domain, process)
            # otherwise: the legitimate vDSO body runs, nothing to model

    def on_event(self, port: int) -> None:
        self.events_received.append(port)
        handler = self._event_handlers.get(port)
        if handler is not None:
            handler(port)

    def bind_handler(self, port: int, handler: Callable[[int], None]) -> None:
        """Attach a driver callback to an event port."""
        self._event_handlers[port] = handler

    def unbind_handler(self, port: int) -> None:
        self._event_handlers.pop(port, None)

    def exfiltrate(self, value: int) -> None:
        """Record a stolen value (attack scripts call this when they
        read memory outside their authorisation)."""
        self.loot.append(value)
