"""Page-table entry validation — where the paper's vulnerabilities live.

PV guests write their own page tables, but every write goes through the
hypervisor, which validates each entry before committing it.  The
validation rules enforced here are the real ones that matter for the
paper's use cases:

* an L1 entry may never create a *writable* mapping of a page-table
  frame or of hypervisor-owned memory;
* an L2 entry may not use ``_PAGE_PSE`` (PV guests get no superpages) —
  **except** on builds carrying XSA-148, where the check is missing;
* an L4 entry may reference the table itself ("linear page tables")
  only read-only — and the fast path for flag-only L4 updates on
  builds carrying XSA-182 skips re-validation, letting a guest flip
  the RW bit on such an entry;
* table frames are validated recursively on first use / pinning, with
  type references keeping the shape stable afterwards.

Reference discipline: every *present intermediate* entry (an L2/L3/L4
entry pointing at a lower-level table — not PSE leaves, not Xen
special descriptors, not linear/self L4 references) holds one typed
reference on its child.  Validation takes the reference, overwriting
or releasing the entry puts it, and a table whose type count reaches
zero releases its own children recursively — so a page table cannot be
freed or retyped while anything still points at it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set

from repro.errors import EINVAL, EPERM, HypercallError
from repro.xen.constants import (
    DOMID_XEN,
    PTE_PRESENT,
    PTE_PSE,
    PTE_RW,
)
from repro.xen.frames import PAGETABLE_TYPE_BY_LEVEL, PageType
from repro.xen.paging import pte_flags, pte_mfn, pte_present, special_kind
from repro.xen.versions import Vulnerability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.domain import Domain
    from repro.xen.hypervisor import Xen


class PageTableValidation:
    """The hypervisor's PTE validation engine (version-gated)."""

    def __init__(self, xen: "Xen"):
        self.xen = xen
        self._validating: Set[int] = set()
        from repro.probes import points as probe_points

        self._p_pt_validate = xen.probes.point(probe_points.PT_VALIDATE)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def validator_for(self, domain: "Domain"):
        """Return a ``(mfn, level)`` callback for the frame table."""

        def validate(mfn: int, level: int) -> None:
            self.validate_table(domain, mfn, level)

        return validate

    def validate_table(self, domain: "Domain", mfn: int, level: int) -> None:
        """Validate a whole frame as a level-``level`` page table.

        Takes one typed reference per present intermediate entry; on
        failure, the references already taken are rolled back so the
        table ends exactly as it started.

        Only present entries are visited (a non-present entry is legal
        and holds no reference), in index order.  They are read up
        front: validation never writes the table it scans — the nested
        validations it triggers only touch frame-table records — so
        this equals reading each entry when it is reached."""
        point = self._p_pt_validate
        if point.subs:
            point.fire(domain.id, mfn, level)
        if mfn in self._validating:
            raise HypercallError(
                EINVAL, f"circular page-table reference through mfn {mfn:#x}"
            )
        self._validating.add(mfn)
        taken: list = []
        try:
            for _, entry in self.xen.machine.entries_with(mfn, PTE_PRESENT):
                self.validate_entry(domain, level, entry, table_mfn=mfn)
                if self.entry_takes_ref(level, entry, mfn):
                    taken.append(entry)
        except HypercallError:
            for entry in reversed(taken):
                self.put_entry_ref(level, entry)
            raise
        finally:
            self._validating.discard(mfn)

    def check_update(
        self,
        domain: "Domain",
        table_mfn: int,
        level: int,
        index: int,
        new_entry: int,
    ) -> bool:
        """Validate one ``mmu_update`` write into an existing table.

        Implements the (buggy on 4.6) fast path for flag-only L4
        updates: when old and new entries reference the same frame,
        re-validation is skipped — unconditionally with XSA-182
        present, or only when no dangerous bit is being added once the
        fix is in.

        Returns ``True`` when full validation ran (and therefore a
        typed reference was taken for the new entry, if it is one that
        carries a reference); ``False`` when a fast path skipped it.
        """
        old_entry = self.xen.machine.read_word(table_mfn, index)
        if (
            level == 4
            and pte_present(old_entry)
            and pte_present(new_entry)
            and pte_mfn(old_entry) == pte_mfn(new_entry)
        ):
            if self.xen.version.has_vuln(Vulnerability.XSA_182):
                # BUG (XSA-182): "the code to validate the pre-existing
                # L4 page tables was faulty" — flag changes sail through.
                return False
            added_flags = pte_flags(new_entry) & ~pte_flags(old_entry)
            if not added_flags & PTE_RW:
                return False  # genuinely safe flag-only change
            # RW being added: fall through to full validation.
        self.validate_entry(domain, level, new_entry, table_mfn=table_mfn)
        return True

    # ------------------------------------------------------------------
    # Reference discipline
    # ------------------------------------------------------------------

    def entry_takes_ref(self, level: int, entry: int, table_mfn: int) -> bool:
        """Does this (validated) entry hold a typed child reference?"""
        if level < 2 or not entry & PTE_PRESENT:
            return False
        if special_kind(entry) is not None:
            return False
        if level == 2 and entry & PTE_PSE:
            return False  # superpage leaf (the XSA-148 shape)
        target = pte_mfn(entry)
        if target >= self.xen.machine.num_frames:
            return False
        info = self.xen.frames.info(target)
        if level == 4 and (target == table_mfn or info.type is PageType.L4):
            return False  # linear/self mappings carry no child ref
        # A reference can only exist while the child actually holds the
        # expected type — this keeps the put side consistent even for
        # stale entries whose child was torn down through another path.
        return info.type is PAGETABLE_TYPE_BY_LEVEL[level - 1]

    def put_entry_ref(self, level: int, entry: int) -> None:
        """Release the child reference an intermediate entry held; if
        the child's type drops, release its own children recursively
        (Xen's ``free_page_type``)."""
        child = pte_mfn(entry)
        frames = self.xen.frames
        frames.put_page_type(child)
        info = frames.info(child)
        if info.type_count == 0 and not info.pinned:
            self.release_table(child, level - 1)

    def release_table(self, mfn: int, level: int) -> None:
        """Put the child references held by a table being torn down.

        Like :meth:`validate_table`, this scans the present entries in
        index order, read up front: releasing references never writes
        page-table memory."""
        if level < 2:
            return
        for _, entry in self.xen.machine.entries_with(mfn, PTE_PRESENT):
            if self.entry_takes_ref(level, entry, mfn):
                self.put_entry_ref(level, entry)

    # ------------------------------------------------------------------
    # Per-entry rules
    # ------------------------------------------------------------------

    def validate_entry(
        self, domain: "Domain", level: int, entry: int, table_mfn: int
    ) -> None:
        if not entry & PTE_PRESENT:
            return
        if special_kind(entry) is not None:
            raise HypercallError(
                EINVAL, "guests may not write Xen special descriptors"
            )
        target = pte_mfn(entry)
        if target >= self.xen.machine.num_frames:
            raise HypercallError(EINVAL, f"entry references bad mfn {target:#x}")

        if level == 1:
            self._validate_l1(domain, entry, target)
        elif level == 2:
            self._validate_l2(domain, entry, target)
        elif level == 3:
            self._validate_intermediate(domain, target, child_level=2)
        elif level == 4:
            self._validate_l4(domain, entry, target, table_mfn)
        else:
            raise HypercallError(EINVAL, f"bad page-table level {level}")

    def _validate_l1(self, domain: "Domain", entry: int, target: int) -> None:
        frames = self.xen.frames
        owner = frames.owner_of(target)
        if owner == DOMID_XEN:
            raise HypercallError(
                EPERM, f"mapping of hypervisor-owned mfn {target:#x}"
            )
        if owner != domain.id:
            raise HypercallError(
                EPERM,
                f"mapping of foreign mfn {target:#x} (owner d{owner})",
            )
        if entry & PTE_RW and frames.is_pagetable(target):
            raise HypercallError(
                EPERM, f"writable mapping of page table mfn {target:#x}"
            )

    def _validate_l2(self, domain: "Domain", entry: int, target: int) -> None:
        if entry & PTE_PSE:
            if self.xen.version.has_vuln(Vulnerability.XSA_148):
                # BUG (XSA-148): "missing check on the invariant of Xen
                # L2 page-table entries" — the superpage target is not
                # inspected at all, so a guest gains a 2 MiB window
                # over arbitrary machine memory.
                return
            raise HypercallError(
                EINVAL, "PSE mappings are not permitted for PV guests"
            )
        self._validate_intermediate(domain, target, child_level=1)

    def _validate_l4(
        self, domain: "Domain", entry: int, target: int, table_mfn: int
    ) -> None:
        frames = self.xen.frames
        is_linear = (
            target == table_mfn
            or frames.info(target).type is PageType.L4
        )
        if is_linear:
            # Linear page tables: historically tolerated, read-only.
            if entry & PTE_RW:
                raise HypercallError(
                    EPERM, "linear/self L4 mapping must be read-only"
                )
            return
        self._validate_intermediate(domain, target, child_level=3)

    def _validate_intermediate(  # staticcheck: ignore[R1] the typed ref is parked in the referencing PTE; put_entry_ref releases it when the entry is cleared
        self, domain: "Domain", target: int, child_level: int
    ) -> None:
        frames = self.xen.frames
        owner = frames.owner_of(target)
        if owner != domain.id:
            raise HypercallError(
                EPERM,
                f"page-table entry references foreign mfn {target:#x}",
            )
        wanted = PAGETABLE_TYPE_BY_LEVEL[child_level]
        # Always take a typed reference: the referencing entry keeps
        # the child's type alive (validation runs only on promotion).
        frames.get_page_type(target, wanted, self.validator_for(domain))
