"""Grant tables v1/v2 — substrate for the §IV-B intrusion-model example.

The paper motivates intrusion models with XSA-387 ("Grant table v2
status pages should be released when a guest switches back to v1") and
XSA-393 (stale mappings after ``XENMEM_decrease_reservation``): two
different bugs whose common *abusive functionality* is **Keep Page
Reference** — a guest retains access to a page after it was returned
to Xen and possibly reassigned.

This module implements enough of the grant-table machinery for that
scenario: per-domain tables, v1 entries, v2 status frames, the version
switch, and grant mapping between domains.  The XSA-387 defect is
gated on the version configuration: with the bug present, the v2→v1
switch frees the status frames back to the heap *without* revoking the
guest's mapping of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.errors import EINVAL, EPERM, HypercallError  # noqa: F401 (EPERM used in transfer)
from repro.xen.versions import Vulnerability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.domain import Domain
    from repro.xen.hypervisor import Xen

# grant entry flags
GTF_PERMIT_ACCESS = 1 << 0
GTF_READONLY = 1 << 2


@dataclass
class GrantEntry:
    """One grant: ``domid`` may map ``pfn`` of the granting domain."""

    flags: int = 0
    domid: int = 0
    pfn: int = 0


@dataclass
class GrantTable:
    """Per-domain grant-table state."""

    version: int = 1
    entries: List[GrantEntry] = field(default_factory=list)
    #: Machine frames holding v2 status words; owned by Xen, mapped
    #: into the guest while version 2 is active.
    status_frames: List[int] = field(default_factory=list)
    #: Guest PFNs through which the status frames are mapped.
    status_pfns: List[int] = field(default_factory=list)

    def copy(self) -> "GrantTable":
        """An independent table: mutating the result never reaches ``self``."""
        return GrantTable(
            version=self.version,
            entries=[GrantEntry(e.flags, e.domid, e.pfn) for e in self.entries],
            status_frames=list(self.status_frames),
            status_pfns=list(self.status_pfns),
        )


class GrantTableSubsystem:
    """All domains' grant tables plus the hypercall operations."""

    NR_STATUS_FRAMES = 1

    def __init__(self, xen: "Xen"):
        self.xen = xen
        self.tables: Dict[int, GrantTable] = {}

    def table(self, domain: "Domain") -> GrantTable:
        return self.tables.setdefault(domain.id, GrantTable())

    # ------------------------------------------------------------------
    # Operations (dispatched from the grant_table_op hypercall)
    # ------------------------------------------------------------------

    def setup_table(self, domain: "Domain", nr_entries: int) -> int:
        table = self.table(domain)
        while len(table.entries) < nr_entries:
            table.entries.append(GrantEntry())
        return 0

    def grant_access(
        self, domain: "Domain", ref: int, to_domid: int, pfn: int, readonly: bool
    ) -> int:
        """Guest-side helper: fill grant entry ``ref``."""
        table = self.table(domain)
        if ref >= len(table.entries):
            raise HypercallError(EINVAL, f"grant ref {ref} beyond table")
        domain.pfn_to_mfn(pfn)  # existence check
        flags = GTF_PERMIT_ACCESS | (GTF_READONLY if readonly else 0)
        table.entries[ref] = GrantEntry(flags=flags, domid=to_domid, pfn=pfn)
        return 0

    def map_grant_ref(
        self, mapper: "Domain", granter_id: int, ref: int
    ) -> int:
        """Map a foreign grant; returns the granted MFN."""
        granter = self.xen.domains.get(granter_id)
        if granter is None:
            raise HypercallError(EINVAL, f"no domain {granter_id}")
        table = self.table(granter)
        if ref >= len(table.entries):
            raise HypercallError(EINVAL, f"grant ref {ref} beyond table")
        entry = table.entries[ref]
        if not entry.flags & GTF_PERMIT_ACCESS or entry.domid != mapper.id:
            raise HypercallError(EPERM, f"grant ref {ref} not granted to d{mapper.id}")
        mfn = granter.pfn_to_mfn(entry.pfn)
        self.xen.frames.get_page(mfn, mapper.id, allow_foreign=True)
        return mfn

    def unmap_grant_ref(self, mapper: "Domain", mfn: int) -> int:
        self.xen.frames.put_page(mfn)
        return 0

    def transfer(self, domain: "Domain", pfn: int, dest_domid: int) -> int:
        """``GNTTABOP_transfer``: hand one of our pages to another
        domain (used by legacy netback flipping and ballooning).

        The page must be free of references — transferring a typed
        frame (a live page table, a descriptor page) between domains
        is exactly the type-confusion family of XSA-214, so the check
        is unconditional here.
        """
        dest = self.xen.domains.get(dest_domid)
        if dest is None or dest.dead:
            raise HypercallError(EINVAL, f"no destination domain {dest_domid}")
        mfn = domain.pfn_to_mfn(pfn)
        info = self.xen.frames.info(mfn)
        # Only the frame's owner may give it away.
        if info.owner != domain.id and not domain.is_privileged:
            raise HypercallError(
                EPERM, f"mfn {mfn:#x} owned by d{info.owner}, not d{domain.id}"
            )
        if info.type_count or info.count:
            raise HypercallError(
                EPERM, f"mfn {mfn:#x} is typed/referenced; transfer refused"
            )
        # Unhook from the source...
        domain.p2m[pfn] = None
        # ...and wire into the destination's pseudo-physical space.
        for dest_pfn, existing in enumerate(dest.p2m):
            if existing is None:
                break
        else:
            dest_pfn = len(dest.p2m)
            dest.p2m.append(None)
        dest.p2m[dest_pfn] = mfn
        self.xen.frames.assign(mfn, dest.id, dest_pfn)
        self.xen.set_m2p(mfn, dest_pfn)
        return dest_pfn

    def set_version(self, domain: "Domain", version: int) -> int:
        """Switch between grant-table v1 and v2 (the XSA-387 site)."""
        if version not in (1, 2):
            raise HypercallError(EINVAL, f"bad grant-table version {version}")
        table = self.table(domain)
        if version == table.version:
            return 0
        if version == 2:
            self._install_status_frames(domain, table)
        else:
            self._release_status_frames(domain, table)
        table.version = version
        return 0

    def get_status_frames(self, domain: "Domain") -> List[int]:
        """Guest PFNs of the v2 status frames (empty when on v1)."""
        return list(self.table(domain).status_pfns)

    # ------------------------------------------------------------------
    # Status-frame lifecycle (XSA-387 gate)
    # ------------------------------------------------------------------

    def _install_status_frames(self, domain: "Domain", table: GrantTable) -> None:
        for _ in range(self.NR_STATUS_FRAMES):
            pfn, mfn = self.xen.alloc_domain_page(domain)
            table.status_frames.append(mfn)
            table.status_pfns.append(pfn)
            # Seed the status words so the guest observes live content.
            self.xen.machine.write_word(mfn, 0, 0x5747_5354)  # "GTST"

    def _release_status_frames(self, domain: "Domain", table: GrantTable) -> None:
        vulnerable = self.xen.version.has_vuln(Vulnerability.XSA_387)
        for mfn, pfn in zip(table.status_frames, table.status_pfns):
            if vulnerable:
                # BUG (XSA-387): the frame goes back to the heap while
                # the guest's mapping of it survives — the guest keeps
                # a reference to memory Xen will hand to someone else.
                self.xen.release_page_keep_mappings(domain, mfn, pfn)
            else:
                self.xen.revoke_and_free_domain_page(domain, mfn, pfn)
        table.status_frames.clear()
        table.status_pfns.clear()
