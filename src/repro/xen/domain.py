"""Domains (virtual machines) and virtual CPUs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import EINVAL, HypercallError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.guest.kernel import GuestKernel


@dataclass
class VCPU:
    """One virtual CPU of a domain."""

    vcpu_id: int
    #: MFN of the currently loaded top-level page table (like CR3).
    cr3_mfn: Optional[int] = None
    #: PV trap table: vector -> guest handler tag.  Registered through
    #: the ``set_trap_table`` hypercall; the simulator stores a symbolic
    #: handler name the guest kernel dispatches on.
    trap_table: Dict[int, str] = field(default_factory=dict)


class Domain:
    """A PV guest (or the control domain, dom0)."""

    def __init__(
        self,
        domid: int,
        name: str,
        hostname: str,
        is_privileged: bool,
        num_vcpus: int = 1,
    ):
        self.id = domid
        self.name = name
        self.hostname = hostname
        self.is_privileged = is_privileged
        self.vcpus: List[VCPU] = [VCPU(vcpu_id=i) for i in range(num_vcpus)]
        #: Pseudo-physical to machine mapping (index = PFN).
        #: ``None`` entries are holes (ballooned-out pages).
        self.p2m: List[Optional[int]] = []
        self.start_info_mfn: Optional[int] = None
        self.shared_info_mfn: Optional[int] = None
        #: Set by the testbed once the guest kernel is built.
        self.kernel: Optional["GuestKernel"] = None
        #: True once the hypervisor has destroyed the domain.
        self.dead = False
        #: True while the toolstack has the domain paused.
        self.paused = False

    # -- vcpus -------------------------------------------------------------

    @property
    def current_vcpu(self) -> VCPU:
        return self.vcpus[0]

    def vcpu(self, vcpu_id: int) -> VCPU:
        if not 0 <= vcpu_id < len(self.vcpus):
            raise HypercallError(EINVAL, f"no vcpu {vcpu_id} in d{self.id}")
        return self.vcpus[vcpu_id]

    # -- pseudo-physical memory ----------------------------------------------

    @property
    def num_pages(self) -> int:
        return sum(1 for mfn in self.p2m if mfn is not None)

    def pfn_to_mfn(self, pfn: int) -> int:
        if not 0 <= pfn < len(self.p2m):
            raise HypercallError(EINVAL, f"pfn {pfn:#x} out of range for d{self.id}")
        mfn = self.p2m[pfn]
        if mfn is None:
            raise HypercallError(EINVAL, f"pfn {pfn:#x} is a hole in d{self.id}")
        return mfn

    def mfn_to_pfn(self, mfn: int) -> Optional[int]:
        for pfn, owned in enumerate(self.p2m):
            if owned == mfn:
                return pfn
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dom0" if self.is_privileged else "domU"
        return f"<Domain d{self.id} {self.name!r} ({kind}, {self.num_pages} pages)>"
