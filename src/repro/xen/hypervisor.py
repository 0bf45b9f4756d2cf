"""The hypervisor façade: boot, domains, traps, the hypercall entry.

``Xen`` ties the substrate together:

* boots the machine: hypervisor code frame (exception stubs), per-CPU
  IDTs, the machine-to-phys table, and the shared upper-half table
  (``xen_pud``) with the per-version special regions;
* builds and destroys domains;
* dispatches hypercalls and delivers traps — including the
  double-fault-to-panic path the XSA-212-crash use case exercises;
* provides the internal memory services the hypercall handlers use
  (M2P maintenance, page allocation, mapping revocation).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import (
    EBUSY,
    EFAULT,
    GuestFault,
    HypercallError,
    HypervisorCrash,
    HypervisorFault,
)
from repro.probes import points as probe_points
from repro.xen import constants as C
from repro.xen import layout
from repro.xen.addrspace import Access, AddressSpace
from repro.xen.domain import Domain
from repro.xen.events import EventChannels
from repro.xen.frames import FrameTable, PageType
from repro.xen.granttable import GrantTableSubsystem
from repro.xen.hypercalls import HypercallTable
from repro.xen.idt import IDT
from repro.xen.machine import Machine
from repro.xen.paging import make_special_pte, pte_mfn
from repro.xen.payload import Payload, XenStub
from repro.xen.validation import PageTableValidation
from repro.xen.versions import Hardening, XenVersion

#: Bounded log/audit capacities.  Long fuzz campaigns must not grow
#: memory without limit; the limits are generous enough that no single
#: trial ever evicts an entry (the longest recorded campaigns emit a
#: few thousand console lines and a few tens of thousands of audit
#: tuples), so digests, traces and replay are unaffected.
CONSOLE_MAXLEN = 20_000
AUDIT_MAXLEN = 200_000


class Xen:
    """One booted instance of the simulated hypervisor."""

    def __init__(
        self,
        version: XenVersion,
        machine: Optional[Machine] = None,
        num_pcpus: int = 2,
    ):
        self.version = version
        self.machine = machine if machine is not None else Machine()
        #: The machine's probe bus — the single interception surface
        #: every observer (recorder, guards, watchdog, metrics)
        #: subscribes to.  See :mod:`repro.probes`.
        self.probes = self.machine.probes
        self._p_hypercall = self.probes.point(probe_points.HYPERCALL)
        self._p_page_fault = self.probes.point(probe_points.PAGE_FAULT)
        self._p_soft_irq = self.probes.point(probe_points.SOFT_IRQ)
        #: Integrity-scan notify point: fired after every hypercall's
        #: audit entry and before every trap delivery — the probe-bus
        #: successor of the old ``integrity_hooks`` list.
        self._p_integrity = self.probes.point(probe_points.INTEGRITY)
        #: Legitimate page-table-update notify point (baselines of
        #: integrity guards follow validated changes through it).
        self._p_pt_update = self.probes.point(probe_points.PT_UPDATE)
        self._p_crash = self.probes.point(probe_points.CRASH)
        self.frames = FrameTable(self.machine)
        self.addrspace = AddressSpace(self)
        self.validation = PageTableValidation(self)
        self.console: Deque[str] = deque(maxlen=CONSOLE_MAXLEN)
        #: Hypercall audit trail: ``(domain_id, number, rc)`` per call.
        #: This is the monitoring surface a defender would tap — and
        #: what makes the injector's intrusiveness measurable (§IX-D).
        self.audit: Deque[Tuple[int, int, int]] = deque(maxlen=AUDIT_MAXLEN)
        self.crashed = False
        self.crash_banner: Optional[str] = None
        self.domains: Dict[int, Domain] = {}
        #: The id the next :meth:`create_domain` hands out.
        self.next_domid = C.DOM0_ID
        self.num_pcpus = num_pcpus

        self._boot()

        self.hypercalls = HypercallTable(self)
        self.grants = GrantTableSubsystem(self)
        self.events = EventChannels(self)
        from repro.xen.schedule import Scheduler
        from repro.xen.xenstore import XenStore

        self.scheduler = Scheduler(self)
        self.xenstore = XenStore()

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------

    def _boot(self) -> None:
        machine = self.machine

        # Hypervisor code frame: exception entry stubs live here, and
        # every IDT gate installed at boot points into it.
        self.xen_code_mfn = machine.alloc_frame()
        self.frames.assign(self.xen_code_mfn, C.DOMID_XEN)
        machine.attach_blob(self.xen_code_mfn, 0, XenStub("page_fault"))
        machine.attach_blob(self.xen_code_mfn, 1, XenStub("double_fault"))
        machine.attach_blob(self.xen_code_mfn, 2, XenStub("generic"))

        # Per-CPU interrupt descriptor tables.
        self.idt_mfns: List[int] = []
        for _ in range(self.num_pcpus):
            mfn = machine.alloc_frame()
            self.frames.assign(mfn, C.DOMID_XEN)
            IDT(machine, mfn).fill(
                layout.directmap_va(self.xen_code_mfn, 2),
                {
                    C.TRAP_PAGE_FAULT: layout.directmap_va(self.xen_code_mfn, 0),
                    C.TRAP_DOUBLE_FAULT: layout.directmap_va(self.xen_code_mfn, 1),
                },
            )
            self.idt_mfns.append(mfn)

        # Machine-to-phys table, exposed read-only at RO_MPT_START.
        words_needed = self.machine.num_frames
        frames_needed = (words_needed + C.WORDS_PER_PAGE - 1) // C.WORDS_PER_PAGE
        self.m2p_frames = machine.alloc_frames(frames_needed)
        for mfn in self.m2p_frames:
            self.frames.assign(mfn, C.DOMID_XEN)

        # The shared upper-half table for L4 slot 256: special region
        # descriptors for the RO M2P window and — on builds without the
        # 4.9 hardening — the RWX linear-page-table alias.
        self.xen_pud_mfn = machine.alloc_frame()
        self.frames.assign(self.xen_pud_mfn, C.DOMID_XEN)
        pud = [make_special_pte(C.XEN_SPECIAL_RO_MPT)] * layout.LINEAR_ALIAS_FIRST_L3
        if not self.version.has_hardening(Hardening.LINEAR_PT_ALIAS_REMOVED):
            pud += [make_special_pte(C.XEN_SPECIAL_LINEAR_ALIAS)] * (
                C.ENTRIES_PER_TABLE - layout.LINEAR_ALIAS_FIRST_L3
            )
        machine.write_words(self.xen_pud_mfn, 0, pud)

        self.log(f"Xen version {self.version.name} booting")
        self.log(f"{self.machine.num_frames} machine frames available")

    # ------------------------------------------------------------------
    # Console / crash handling
    # ------------------------------------------------------------------

    def log(self, message: str) -> None:
        self.console.append(f"(XEN) {message}")

    def check_alive(self) -> None:
        if self.crashed:
            raise HypervisorCrash(self.crash_banner or "hypervisor is down")

    def bug(self, condition_text: str) -> None:
        """A ``BUG_ON()`` fired: an 'impossible' internal state was
        observed (the paper's Exceptional Conditions class — defensive
        FATAL directives that crash the system)."""
        self.log(f"Assertion failed: BUG_ON({condition_text})")
        self.panic(f"Xen BUG at {condition_text}")

    def panic(self, reason: str) -> None:
        """Bring the machine down with the paper-style crash banner."""
        banner = [
            "",
            "****************************************",
            "Panic on CPU 0:",
            f"{reason}",
            "****************************************",
            "",
            "Reboot in five seconds...",
        ]
        for line in banner:
            self.log(line)
        self.crashed = True
        self.crash_banner = reason
        point = self._p_crash
        if point.subs:
            point.fire(reason)
        raise HypervisorCrash(reason)

    # ------------------------------------------------------------------
    # Domain lifecycle
    # ------------------------------------------------------------------

    def create_domain(
        self,
        name: str,
        num_pages: int = 64,
        is_privileged: bool = False,
        hostname: Optional[str] = None,
        num_vcpus: int = 1,
    ) -> Domain:
        """Build a domain: memory, vCPUs, start_info page, M2P entries."""
        self.check_alive()
        domid = self.next_domid
        self.next_domid += 1
        domain = Domain(
            domid=domid,
            name=name,
            hostname=hostname or name,
            is_privileged=is_privileged,
            num_vcpus=num_vcpus,
        )
        try:
            for pfn in range(num_pages):
                mfn = self.machine.alloc_frame()
                self.frames.assign(mfn, domid, pfn)
                domain.p2m.append(mfn)
        finally:
            self._set_m2p_runs(domain.p2m)

        # The start_info page (pfn 0) carries the fingerprint the
        # XSA-148 PoC scans machine memory for.
        start_mfn = domain.pfn_to_mfn(0)
        self.machine.write_word(start_mfn, 0, C.START_INFO_MAGIC)
        self.machine.write_word(start_mfn, 1, domid)
        self.machine.write_word(start_mfn, 2, num_pages)
        domain.start_info_mfn = start_mfn

        self.domains[domid] = domain
        self.scheduler.register_domain(domain)
        self.log(f"created domain d{domid} ({name}, {num_pages} pages)")
        return domain

    def destroy_domain(self, domain: Domain) -> None:
        domain.dead = True
        for pfn, mfn in enumerate(domain.p2m):
            if mfn is None:
                continue
            info = self.frames.info(mfn)
            info.count = 0
            info.type_count = 0
            info.pinned = False
            info.type = PageType.NONE
            self.frames.release(mfn)
            self.machine.free_frame(mfn)
            self.clear_m2p(mfn)
        domain.p2m = []
        self.domains.pop(domain.id, None)
        self.scheduler.unregister_domain(domain)
        self.log(f"destroyed domain d{domain.id}")

    # ------------------------------------------------------------------
    # Hypercall entry
    # ------------------------------------------------------------------

    def hypercall(self, domain: Domain, number: int, *args) -> int:
        """The guest→hypervisor gate.  Returns 0/positive on success or
        a negative errno, like the real ABI."""
        point = self._p_hypercall
        if point.subs:
            return point.run(
                self._hypercall_impl,
                (domain, number) + args,
                (domain, number, args),
            )
        return self._hypercall_impl(domain, number, *args)

    def _hypercall_impl(self, domain: Domain, number: int, *args) -> int:
        self.check_alive()
        if domain.dead:
            raise HypercallError(EFAULT, f"domain d{domain.id} is dead")
        try:
            rc = self.hypercalls.dispatch(domain, number, *args)
        except HypervisorCrash:
            self.audit.append((domain.id, number, -1))
            raise
        self.audit.append((domain.id, number, rc))
        self._p_integrity.fire()
        return rc

    # ------------------------------------------------------------------
    # Trap delivery
    # ------------------------------------------------------------------

    def idt(self, cpu: int = 0) -> IDT:
        return IDT(self.machine, self.idt_mfns[cpu])

    def sidt(self, cpu: int = 0) -> int:
        """Linear address of the IDT, as the ``sidt`` instruction
        reports it (paper §V-B: "some privileged instructions return
        linear addresses")."""
        return layout.directmap_va(self.idt_mfns[cpu])

    def deliver_page_fault(self, domain: Domain, fault: GuestFault) -> None:
        """Hardware raised #PF in guest context; walk the IDT.

        With an intact gate the fault is forwarded to the guest's PV
        trap handler (the guest kernel turns it into an oops).  With a
        corrupted gate the CPU double-faults and Xen panics — the
        XSA-212-crash security violation.
        """
        point = self._p_page_fault
        if point.subs:
            return point.run(self._deliver_page_fault_impl, (domain, fault))
        return self._deliver_page_fault_impl(domain, fault)

    def _deliver_page_fault_impl(self, domain: Domain, fault: GuestFault) -> None:
        self.check_alive()
        self._p_integrity.fire()
        idt = self.idt(0)
        handler_va = idt.handler(C.TRAP_PAGE_FAULT)
        if handler_va is None:
            self._double_fault("corrupt page-fault gate")
        try:
            mfn, word = self.addrspace.hypervisor_translate(handler_va, Access.EXEC)
        except HypervisorFault:
            self._double_fault(f"page-fault handler at bad address {handler_va:#x}")
            return  # unreachable; panic raised
        blob = self.machine.blob_at(mfn, word)
        if blob is None:
            self._double_fault("page-fault handler points at garbage")
        if isinstance(blob, XenStub):
            # Xen's own stub: forward to the guest's registered trap
            # handler; the guest kernel records a kernel oops.
            return
        if isinstance(blob, Payload):
            blob.execute(self, domain)
            return
        self._double_fault("unrecognised handler object")

    def _double_fault(self, detail: str) -> None:
        self.log("*** DOUBLE FAULT ***")
        self.log(f"----[ Xen-{self.version.name}  x86_64  debug=n  Not tainted ]----")
        self.log("CPU:    0")
        self.log(f"Xen call trace: {detail}")
        self.panic("DOUBLE FAULT -- system shutdown")

    def software_interrupt(self, domain: Domain, vector: int) -> None:
        """Guest executed ``int <vector>``: dispatch through the IDT."""
        point = self._p_soft_irq
        if point.subs:
            return point.run(self._software_interrupt_impl, (domain, vector))
        return self._software_interrupt_impl(domain, vector)

    def _software_interrupt_impl(self, domain: Domain, vector: int) -> None:
        self.check_alive()
        self._p_integrity.fire()
        idt = self.idt(0)
        handler_va = idt.handler(vector)
        if handler_va is None:
            raise GuestFault(0, "exec", f"invalid gate for vector {vector}")
        try:
            mfn, word = self.addrspace.hypervisor_translate(handler_va, Access.EXEC)
        except HypervisorFault as exc:
            self._double_fault(
                f"interrupt {vector} handler at bad address: {exc.reason}"
            )
            return  # unreachable
        blob = self.machine.blob_at(mfn, word)
        if isinstance(blob, XenStub):
            return  # benign: Xen's own stub just returns
        if isinstance(blob, Payload):
            blob.execute(self, domain)
            return
        self._double_fault(f"interrupt {vector} dispatched into garbage")

    # ------------------------------------------------------------------
    # Internal memory services
    # ------------------------------------------------------------------

    def set_m2p(self, mfn: int, pfn: int) -> None:
        frame_slot, word = divmod(mfn, C.WORDS_PER_PAGE)
        self.machine.write_word(self.m2p_frames[frame_slot], word, pfn)

    def _set_m2p_runs(self, mfns: List[int]) -> None:
        """``set_m2p(mfns[pfn], pfn)`` for every pfn, with one machine
        write per run of consecutive MFNs inside one M2P frame."""
        first = 0
        for pfn in range(1, len(mfns) + 1):
            if (
                pfn == len(mfns)
                or mfns[pfn] != mfns[pfn - 1] + 1
                or mfns[pfn] % C.WORDS_PER_PAGE == 0
            ):
                frame_slot, word = divmod(mfns[first], C.WORDS_PER_PAGE)
                self.machine.write_words(
                    self.m2p_frames[frame_slot], word, range(first, pfn)
                )
                first = pfn

    def clear_m2p(self, mfn: int) -> None:
        self.set_m2p(mfn, 0)

    def m2p(self, mfn: int) -> int:
        frame_slot, word = divmod(mfn, C.WORDS_PER_PAGE)
        return self.machine.read_word(self.m2p_frames[frame_slot], word)

    def alloc_domain_page(self, domain: Domain) -> Tuple[int, int]:
        """Allocate one page to a domain; returns ``(pfn, mfn)``."""
        mfn = self.machine.alloc_frame()
        for pfn, existing in enumerate(domain.p2m):
            if existing is None:
                break
        else:
            pfn = len(domain.p2m)
            domain.p2m.append(None)
        domain.p2m[pfn] = mfn
        self.frames.assign(mfn, domain.id, pfn)
        self.set_m2p(mfn, pfn)
        return pfn, mfn

    def free_domain_page(
        self, domain: Domain, mfn: int, update_p2m: bool = True
    ) -> None:
        info = self.frames.info(mfn)
        if info.type_count or info.count:
            raise HypercallError(EBUSY, f"mfn {mfn:#x} still referenced")
        if update_p2m:
            pfn = domain.mfn_to_pfn(mfn)
            if pfn is not None:
                domain.p2m[pfn] = None
        self.frames.release(mfn)
        self.machine.free_frame(mfn)
        self.clear_m2p(mfn)

    def release_page_keep_mappings(
        self, domain: Domain, mfn: int, pfn: int
    ) -> None:
        """XSA-387 path: frame returns to the heap, mappings survive."""
        domain.p2m[pfn] = None
        info = self.frames.info(mfn)
        info.count = 0
        info.type_count = 0
        self.frames.release(mfn)
        self.machine.free_frame(mfn)
        self.clear_m2p(mfn)

    def revoke_and_free_domain_page(
        self, domain: Domain, mfn: int, pfn: int
    ) -> None:
        """Fixed path: revoke guest mappings, then free the frame."""
        self.zap_guest_mappings(domain, mfn)
        domain.p2m[pfn] = None
        self.free_domain_page(domain, mfn, update_p2m=False)

    def zap_guest_mappings(self, domain: Domain, target_mfn: int) -> None:
        """Clear every L1 entry in the domain's page tables that maps
        ``target_mfn`` (the revocation step XSA-393 builds skip)."""
        for mfn in list(domain.p2m):
            if mfn is None:
                continue
            info = self.frames.info(mfn)
            if info.type is not PageType.L1:
                continue
            # Clearing entry i never changes entry j > i, so the entries
            # read before the first write are the ones a lazy scan sees.
            for index, entry in self.machine.entries_with(mfn, C.PTE_PRESENT):
                if pte_mfn(entry) == target_mfn:
                    self.machine.write_word(mfn, index, 0)

    def unchecked_copy_to_guest(self, domain: Domain, va: int, value: int) -> None:
        """The XSA-212 write primitive: ``__copy_to_user`` without the
        bounds check.  Tries a guest-context translation first (the
        legitimate case), then blindly uses the hypervisor's own
        address space."""
        try:
            mfn, word = self.addrspace.guest_translate(domain, va, Access.WRITE)
        except GuestFault:
            try:
                mfn, word = self.addrspace.hypervisor_translate(va, Access.WRITE)
            except HypervisorFault:
                raise HypercallError(EFAULT, f"address {va:#x} unmapped") from None
        self.machine.write_word(mfn, word, value)

    # ------------------------------------------------------------------
    # Debug / audit helpers
    # ------------------------------------------------------------------

    def dump_console(self) -> str:
        return "\n".join(self.console)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "CRASHED" if self.crashed else "running"
        return f"<Xen {self.version.name} ({state}, {len(self.domains)} domains)>"
