"""Xen's frame table: per-frame ownership, reference counts, page types.

This mirrors the mechanism at the heart of PV memory safety (and of
all three vulnerabilities the paper reproduces): every machine frame
has a *type* (none, L1..L4 page table, or writable data), a type
reference count, and a general reference count.  A frame can only be
used as a page table after *validation* promotes it to the matching
type, and a frame that is a page table can never simultaneously hold a
writable mapping — unless a validation bug lets one through, which is
exactly what XSA-148 and XSA-182 were.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import EBUSY, EINVAL, EPERM, HypercallError
from repro.probes import points as probe_points
from repro.xen.machine import Machine


class PageType(enum.Enum):
    """The usable type of a machine frame (Xen's ``PGT_*``)."""

    NONE = "none"
    L1 = "l1_page_table"
    L2 = "l2_page_table"
    L3 = "l3_page_table"
    L4 = "l4_page_table"
    WRITABLE = "writable"
    SEG_DESC = "seg_descriptor"

    @property
    def is_pagetable(self) -> bool:
        return self in _PAGETABLE_TYPES

    @property
    def level(self) -> int:
        """Page-table level (1..4); 0 for non-pagetable types."""
        return _LEVELS.get(self, 0)


_PAGETABLE_TYPES = {PageType.L1, PageType.L2, PageType.L3, PageType.L4}
_LEVELS = {PageType.L1: 1, PageType.L2: 2, PageType.L3: 3, PageType.L4: 4}

PAGETABLE_TYPE_BY_LEVEL = {
    1: PageType.L1,
    2: PageType.L2,
    3: PageType.L3,
    4: PageType.L4,
}


@dataclass
class PageInfo:
    """Book-keeping record for one machine frame."""

    mfn: int
    owner: Optional[int] = None  # domain id, DOMID_XEN, or None (free)
    count: int = 0  # general references
    type: PageType = PageType.NONE
    type_count: int = 0
    validated: bool = False
    pinned: bool = False
    #: PFN inside the owner's pseudo-physical space, if assigned.
    pfn: Optional[int] = None

    def copy(self) -> "PageInfo":
        """An independent record with the same fields.

        Every field is an immutable scalar or enum member, so a flat
        field copy is a full copy: mutating the result never reaches
        ``self``.
        """
        return PageInfo(
            mfn=self.mfn,
            owner=self.owner,
            count=self.count,
            type=self.type,
            type_count=self.type_count,
            validated=self.validated,
            pinned=self.pinned,
            pfn=self.pfn,
        )


#: Signature of the validation hook: ``validate(mfn, level)`` must raise
#: :class:`~repro.errors.HypercallError` if the frame's current contents
#: are not a legal level-``level`` page table.
Validator = Callable[[int, int], None]


class FrameTable:
    """Per-frame metadata plus the get/put type machinery."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._info: Dict[int, PageInfo] = {}
        self._p_frame_ref = machine.probes.point(probe_points.FRAME_REF)
        self._p_frame_type = machine.probes.point(probe_points.FRAME_TYPE)

    def info(self, mfn: int) -> PageInfo:
        self.machine.check_mfn(mfn)
        record = self._info.get(mfn)
        if record is None:
            record = PageInfo(mfn=mfn)
            self._info[mfn] = record
        return record

    # -- ownership -----------------------------------------------------------

    def assign(self, mfn: int, owner: int, pfn: Optional[int] = None) -> None:
        record = self.info(mfn)
        record.owner = owner
        record.pfn = pfn

    def release(self, mfn: int) -> None:
        record = self.info(mfn)
        if record.count or record.type_count:
            raise HypercallError(EBUSY, f"mfn {mfn:#x} still referenced")
        self._info[mfn] = PageInfo(mfn=mfn)

    def owner_of(self, mfn: int) -> Optional[int]:
        return self.info(mfn).owner

    # -- checkpointing -----------------------------------------------------------
    #
    # Checkpoints and microreboot recovery keep a copy per capture and
    # hand the table a fresh copy on every restore, so no record is ever
    # shared between the live table and a saved view.

    def copy_info(self) -> Dict[int, PageInfo]:
        """A private copy of every record, for a checkpoint to keep."""
        return {mfn: record.copy() for mfn, record in self._info.items()}

    def restore_info(self, saved: Dict[int, PageInfo]) -> None:
        """Replace every record with a private copy of ``saved``."""
        self._info = {mfn: record.copy() for mfn, record in saved.items()}

    # -- general references ----------------------------------------------------

    def get_page(self, mfn: int, domid: int, allow_foreign: bool = False) -> None:
        """Take a general reference on behalf of ``domid``."""
        record = self.info(mfn)
        if record.owner is None:
            raise HypercallError(EINVAL, f"mfn {mfn:#x} is unowned")
        if record.owner != domid and not allow_foreign:
            raise HypercallError(
                EPERM, f"mfn {mfn:#x} owned by d{record.owner}, not d{domid}"
            )
        record.count += 1
        point = self._p_frame_ref
        if point.subs:
            point.fire("get", mfn, record.count)

    def put_page(self, mfn: int) -> None:
        record = self.info(mfn)
        if record.count <= 0:
            raise HypercallError(EINVAL, f"mfn {mfn:#x} reference underflow")
        record.count -= 1
        point = self._p_frame_ref
        if point.subs:
            point.fire("put", mfn, record.count)

    # -- typed references --------------------------------------------------------

    def get_page_type(
        self,
        mfn: int,
        wanted: PageType,
        validator: Optional[Validator] = None,
    ) -> None:
        """Take a typed reference, validating on first use.

        Mirrors Xen's ``get_page_type()``: if the frame currently has no
        type, it is promoted to ``wanted`` (running the validator for
        page-table types); if it already has a *different* type with
        outstanding references, the request fails — that is the
        invariant that keeps page tables unwritable.
        """
        record = self.info(mfn)
        if record.type_count == 0 or record.type == PageType.NONE:
            if wanted.is_pagetable and validator is not None:
                validator(mfn, wanted.level)
            old_type = record.type
            record.type = wanted
            record.type_count = 1
            record.validated = wanted.is_pagetable
            point = self._p_frame_type
            if point.subs:
                point.fire(mfn, old_type, wanted)
            refs = self._p_frame_ref
            if refs.subs:
                refs.fire("get_type", mfn, record.type_count)
            return
        if record.type != wanted:
            raise HypercallError(
                EBUSY,
                f"mfn {mfn:#x} is {record.type.value} "
                f"(refs={record.type_count}), wanted {wanted.value}",
            )
        record.type_count += 1
        point = self._p_frame_ref
        if point.subs:
            point.fire("get_type", mfn, record.type_count)

    def put_page_type(self, mfn: int) -> None:
        record = self.info(mfn)
        if record.type_count <= 0:
            raise HypercallError(EINVAL, f"mfn {mfn:#x} type underflow")
        record.type_count -= 1
        point = self._p_frame_ref
        if point.subs:
            point.fire("put_type", mfn, record.type_count)
        if record.type_count == 0 and not record.pinned:
            old_type = record.type
            record.type = PageType.NONE
            record.validated = False
            types = self._p_frame_type
            if types.subs:
                types.fire(mfn, old_type, PageType.NONE)

    # -- pinning --------------------------------------------------------------

    def pin(self, mfn: int, wanted: PageType, validator: Optional[Validator]) -> None:
        record = self.info(mfn)
        if record.pinned:
            raise HypercallError(EINVAL, f"mfn {mfn:#x} already pinned")
        self.get_page_type(mfn, wanted, validator)
        record.pinned = True

    def unpin(self, mfn: int) -> None:
        record = self.info(mfn)
        if not record.pinned:
            raise HypercallError(EINVAL, f"mfn {mfn:#x} not pinned")
        record.pinned = False
        self.put_page_type(mfn)

    # -- queries ---------------------------------------------------------------

    def is_pagetable(self, mfn: int) -> bool:
        return self.info(mfn).type.is_pagetable

    def pagetable_level(self, mfn: int) -> int:
        return self.info(mfn).type.level

    def iter_pagetables(self):
        """Yield ``(mfn, PageInfo)`` for every currently typed page
        table (used by integrity-checking defences)."""
        for mfn, record in self._info.items():
            if record.type.is_pagetable:
                yield mfn, record
