"""Unit tests for page-table validation (the vulnerability sites)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EINVAL, HypercallError
from repro.probes import points as probe_points
from repro.xen.constants import (
    DOMID_XEN,
    ENTRIES_PER_TABLE,
    PTE_PRESENT,
    PTE_PSE,
    PTE_RW,
    PTE_USER,
    XEN_SPECIAL_LINEAR_ALIAS,
)
from repro.xen.frames import PAGETABLE_TYPE_BY_LEVEL, PageType
from repro.xen.hypervisor import Xen
from repro.xen.machine import Machine
from repro.xen.paging import make_pte, make_special_pte
from repro.xen.validation import PageTableValidation
from repro.xen.versions import ALL_VERSIONS, XEN_4_6, XEN_4_8, XEN_4_13
from repro.xen.constants import XEN_SPECIAL_RO_MPT
from tests.conftest import make_guest


def fresh_page(xen, guest):
    """A data page owned by the guest."""
    pfn = guest.kernel.alloc_page()
    return guest.pfn_to_mfn(pfn)


class TestL1Rules:
    def test_mapping_own_page_ok(self, xen):
        guest = make_guest(xen)
        target = fresh_page(xen, guest)
        entry = make_pte(target, PTE_PRESENT | PTE_RW)
        xen.validation.validate_entry(guest, 1, entry, table_mfn=0)

    def test_not_present_always_ok(self, xen):
        guest = make_guest(xen)
        xen.validation.validate_entry(guest, 1, 0, table_mfn=0)

    def test_mapping_foreign_page_rejected(self, xen):
        guest_a = make_guest(xen, "a")
        guest_b = make_guest(xen, "b")
        target = fresh_page(xen, guest_b)
        entry = make_pte(target, PTE_PRESENT)
        with pytest.raises(HypercallError):
            xen.validation.validate_entry(guest_a, 1, entry, table_mfn=0)

    def test_mapping_xen_page_rejected(self, xen):
        guest = make_guest(xen)
        entry = make_pte(xen.xen_pud_mfn, PTE_PRESENT)
        assert xen.frames.owner_of(xen.xen_pud_mfn) == DOMID_XEN
        with pytest.raises(HypercallError):
            xen.validation.validate_entry(guest, 1, entry, table_mfn=0)

    def test_writable_mapping_of_pagetable_rejected(self, xen):
        guest = make_guest(xen)
        l1_mfn = guest.pfn_to_mfn(guest.kernel.l1_pfns[0])
        assert xen.frames.is_pagetable(l1_mfn)
        entry = make_pte(l1_mfn, PTE_PRESENT | PTE_RW)
        with pytest.raises(HypercallError) as excinfo:
            xen.validation.validate_entry(guest, 1, entry, table_mfn=0)
        assert "writable mapping of page table" in str(excinfo.value)

    def test_readonly_mapping_of_pagetable_ok(self, xen):
        guest = make_guest(xen)
        l1_mfn = guest.pfn_to_mfn(guest.kernel.l1_pfns[0])
        entry = make_pte(l1_mfn, PTE_PRESENT)
        xen.validation.validate_entry(guest, 1, entry, table_mfn=0)

    def test_special_descriptor_rejected(self, xen):
        guest = make_guest(xen)
        with pytest.raises(HypercallError):
            xen.validation.validate_entry(
                guest, 1, make_special_pte(XEN_SPECIAL_RO_MPT), table_mfn=0
            )

    def test_bad_mfn_rejected(self, xen):
        guest = make_guest(xen)
        entry = make_pte(xen.machine.num_frames + 5, PTE_PRESENT)
        with pytest.raises(HypercallError):
            xen.validation.validate_entry(guest, 1, entry, table_mfn=0)


class TestXsa148Gate:
    """L2 PSE entries: accepted blindly on 4.6, rejected when fixed."""

    def _pse_entry(self):
        return make_pte(0, PTE_PRESENT | PTE_RW | PTE_PSE)

    def test_46_accepts_pse_blindly(self):
        xen = Xen(XEN_4_6, Machine(256))
        guest = make_guest(xen)
        xen.validation.validate_entry(guest, 2, self._pse_entry(), table_mfn=0)

    @pytest.mark.parametrize("version", [XEN_4_8, XEN_4_13], ids=["4.8", "4.13"])
    def test_fixed_versions_reject_pse(self, version):
        xen = Xen(version, Machine(256))
        guest = make_guest(xen)
        with pytest.raises(HypercallError) as excinfo:
            xen.validation.validate_entry(guest, 2, self._pse_entry(), table_mfn=0)
        assert "PSE" in str(excinfo.value)

    def test_46_pse_even_over_foreign_memory(self):
        """The missing check means the superpage target is not
        inspected at all — even hypervisor-owned frames are reachable."""
        xen = Xen(XEN_4_6, Machine(256))
        guest = make_guest(xen)
        entry = make_pte(xen.xen_pud_mfn, PTE_PRESENT | PTE_RW | PTE_PSE)
        xen.validation.validate_entry(guest, 2, entry, table_mfn=0)


class TestL4Rules:
    def test_ro_self_map_allowed(self, xen):
        guest = make_guest(xen)
        l4_mfn = guest.current_vcpu.cr3_mfn
        entry = make_pte(l4_mfn, PTE_PRESENT | PTE_USER)
        xen.validation.validate_entry(guest, 4, entry, table_mfn=l4_mfn)

    def test_rw_self_map_rejected(self, xen):
        guest = make_guest(xen)
        l4_mfn = guest.current_vcpu.cr3_mfn
        entry = make_pte(l4_mfn, PTE_PRESENT | PTE_RW)
        with pytest.raises(HypercallError):
            xen.validation.validate_entry(guest, 4, entry, table_mfn=l4_mfn)

    def test_rw_linear_map_of_other_l4_rejected(self, xen):
        guest_a = make_guest(xen, "a")
        other_l4 = guest_a.current_vcpu.cr3_mfn
        entry = make_pte(other_l4, PTE_PRESENT | PTE_RW)
        with pytest.raises(HypercallError):
            xen.validation.validate_entry(guest_a, 4, entry, table_mfn=12345)

    def test_l4_entry_to_untyped_frame_promotes_l3(self, xen):
        guest = make_guest(xen)
        target = fresh_page(xen, guest)  # zeroed -> valid empty L3
        entry = make_pte(target, PTE_PRESENT | PTE_RW)
        l4_mfn = guest.current_vcpu.cr3_mfn
        xen.validation.validate_entry(guest, 4, entry, table_mfn=l4_mfn)
        assert xen.frames.info(target).type is PageType.L3


class TestXsa182FastPath:
    """Flag-only L4 updates: unvalidated on 4.6, RW-checked when fixed."""

    def _setup_ro_self_map(self, xen):
        guest = make_guest(xen)
        kernel = guest.kernel
        l4_mfn = guest.current_vcpu.cr3_mfn
        rc = kernel.update_pt_entry(
            l4_mfn, 5, make_pte(l4_mfn, PTE_PRESENT | PTE_USER)
        )
        assert rc == 0
        return guest, l4_mfn

    def test_46_fastpath_lets_rw_through(self):
        xen = Xen(XEN_4_6, Machine(256))
        guest, l4_mfn = self._setup_ro_self_map(xen)
        rc = guest.kernel.update_pt_entry(
            l4_mfn, 5, make_pte(l4_mfn, PTE_PRESENT | PTE_RW | PTE_USER)
        )
        assert rc == 0  # the bug

    @pytest.mark.parametrize("version", [XEN_4_8, XEN_4_13], ids=["4.8", "4.13"])
    def test_fixed_versions_reject_rw_upgrade(self, version):
        xen = Xen(version, Machine(256))
        guest, l4_mfn = self._setup_ro_self_map(xen)
        rc = guest.kernel.update_pt_entry(
            l4_mfn, 5, make_pte(l4_mfn, PTE_PRESENT | PTE_RW | PTE_USER)
        )
        assert rc < 0

    @pytest.mark.parametrize(
        "version", [XEN_4_6, XEN_4_8, XEN_4_13], ids=["4.6", "4.8", "4.13"]
    )
    def test_safe_flag_change_allowed_everywhere(self, version):
        """Removing USER (no RW added) is a safe flag-only change."""
        xen = Xen(version, Machine(256))
        guest, l4_mfn = self._setup_ro_self_map(xen)
        rc = guest.kernel.update_pt_entry(
            l4_mfn, 5, make_pte(l4_mfn, PTE_PRESENT)
        )
        assert rc == 0


class TestRecursiveValidation:
    def test_validate_table_checks_every_entry(self, xen):
        guest = make_guest(xen)
        table = fresh_page(xen, guest)
        foreign_guest = make_guest(xen, "other")
        foreign = fresh_page(xen, foreign_guest)
        xen.machine.write_word(table, 44, make_pte(foreign, PTE_PRESENT))
        with pytest.raises(HypercallError):
            xen.validation.validate_table(guest, table, 1)

    def test_circular_reference_detected(self, xen):
        guest = make_guest(xen)
        a = fresh_page(xen, guest)
        b = fresh_page(xen, guest)
        # a (as L3) points to b (as L2) which points back to a.
        xen.machine.write_word(a, 0, make_pte(b, PTE_PRESENT | PTE_RW))
        xen.machine.write_word(b, 0, make_pte(a, PTE_PRESENT | PTE_RW))
        with pytest.raises(HypercallError):
            xen.validation.validate_table(guest, a, 3)

    def test_validating_set_cleared_after_failure(self, xen):
        guest = make_guest(xen)
        table = fresh_page(xen, guest)
        xen.machine.write_word(
            table, 0, make_pte(xen.machine.num_frames + 1, PTE_PRESENT)
        )
        with pytest.raises(HypercallError):
            xen.validation.validate_table(guest, table, 1)
        assert not xen.validation._validating


# ----------------------------------------------------------------------
# Present-entry scans against the per-index loops they replaced
# ----------------------------------------------------------------------


class PerIndexValidation(PageTableValidation):
    """Reference: whole-table scans that read all 512 words one by one."""

    def validate_table(self, domain, mfn, level):
        point = self._p_pt_validate
        if point.subs:
            point.fire(domain.id, mfn, level)
        if mfn in self._validating:
            raise HypercallError(
                EINVAL, f"circular page-table reference through mfn {mfn:#x}"
            )
        self._validating.add(mfn)
        taken = []
        try:
            for index in range(ENTRIES_PER_TABLE):
                entry = self.xen.machine.read_word(mfn, index)
                self.validate_entry(domain, level, entry, table_mfn=mfn)
                if self.entry_takes_ref(level, entry, mfn):
                    taken.append(entry)
        except HypercallError:
            for entry in reversed(taken):
                self.put_entry_ref(level, entry)
            raise
        finally:
            self._validating.discard(mfn)

    def release_table(self, mfn, level):
        if level < 2:
            return
        for index in range(ENTRIES_PER_TABLE):
            entry = self.xen.machine.read_word(mfn, index)
            if self.entry_takes_ref(level, entry, mfn):
                self.put_entry_ref(level, entry)


#: What a generated entry may point at.  ``table0``..``table3`` are the
#: candidate tables themselves, so entries between them form chains,
#: self-references and cycles.
SCAN_TARGETS = (
    "table0", "table1", "table2", "table3", "own", "kernel_l1",
    "kernel_l2", "kernel_l3", "kernel_l4", "foreign", "xen", "free",
    "out_of_range",
)
SCAN_FLAGS = (PTE_RW, PTE_USER, PTE_PSE, 1 << 9, 1 << 63)

scan_entry = st.one_of(
    # non-present words with every other bit pattern
    st.tuples(
        st.just("raw"),
        st.integers(0, 2**64 - 1).map(lambda word: word & ~PTE_PRESENT),
    ),
    st.tuples(
        st.just("special"),
        st.sampled_from([XEN_SPECIAL_RO_MPT, XEN_SPECIAL_LINEAR_ALIAS]),
    ),
    st.tuples(
        st.sampled_from(SCAN_TARGETS),
        st.sets(st.sampled_from(SCAN_FLAGS)).map(sum),
    ),
)
scan_table = st.dictionaries(
    st.integers(0, ENTRIES_PER_TABLE - 1), scan_entry, max_size=6
)


def _scan_world(validation_cls, version, tables, steps):
    """Build tables from ``tables``, validate and release them per
    ``steps``; return every observable the scans can influence."""
    xen = Xen(version, Machine(512))
    xen.validation = validation_cls(xen)
    guest = make_guest(xen)
    other = make_guest(xen, "other")
    kernel = guest.kernel
    table_mfns = [fresh_page(xen, guest) for _ in range(4)]
    free = xen.machine.alloc_frame()
    xen.machine.free_frame(free)
    targets = dict(
        zip(("table0", "table1", "table2", "table3"), table_mfns),
        own=fresh_page(xen, guest),
        kernel_l1=guest.pfn_to_mfn(kernel.l1_pfns[0]),
        kernel_l2=guest.pfn_to_mfn(kernel.l2_pfn),
        kernel_l3=guest.pfn_to_mfn(kernel.l3_pfn),
        kernel_l4=guest.pfn_to_mfn(kernel.l4_pfn),
        foreign=fresh_page(xen, other),
        xen=xen.xen_pud_mfn,
        free=free,
        out_of_range=xen.machine.num_frames + 3,
    )
    for mfn, contents in zip(table_mfns, tables):
        for index, (kind, arg) in contents.items():
            if kind == "raw":
                word = arg
            elif kind == "special":
                word = make_special_pte(arg)
            else:
                word = make_pte(targets[kind], PTE_PRESENT | arg)
            xen.machine.write_word(mfn, index, word)

    events = []
    for name in (
        probe_points.PT_VALIDATE, probe_points.FRAME_REF,
        probe_points.FRAME_TYPE,
    ):
        xen.probes.subscribe(
            name, lambda *args, name=name: events.append((name, args))
        )
    frames = xen.frames
    outcomes = []
    validated = []
    for table, level in steps:
        mfn = table_mfns[table]
        try:
            frames.get_page_type(
                mfn, PAGETABLE_TYPE_BY_LEVEL[level],
                xen.validation.validator_for(guest),
            )
        except HypercallError as exc:
            outcomes.append((type(exc).__name__, exc.errno, str(exc)))
        else:
            outcomes.append(None)
            validated.append((mfn, level))
    # Tear down in reverse, the way put_entry_ref drops a table.
    for mfn, level in reversed(validated):
        frames.put_page_type(mfn)
        info = frames.info(mfn)
        if info.type_count == 0 and not info.pinned:
            xen.validation.release_table(mfn, level)
    return {
        "targets": targets,
        "outcomes": outcomes,
        "events": events,
        "frames": frames.copy_info(),
        "validating": set(xen.validation._validating),
    }


class TestPresentEntryScan:
    @given(
        version=st.sampled_from(ALL_VERSIONS),
        tables=st.lists(scan_table, min_size=4, max_size=4),
        steps=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 4)),
            min_size=1, max_size=3,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_index_reference(self, version, tables, steps):
        scanned = _scan_world(PageTableValidation, version, tables, steps)
        reference = _scan_world(PerIndexValidation, version, tables, steps)
        assert scanned == reference

    def test_reference_world_is_not_vacuous(self):
        """The property's worlds reach success, rollback and cycles."""
        tables = [
            {0: ("table1", PTE_RW), 7: ("raw", 0xFFFF_FFFF_FFFF_FFFE)},
            {3: ("table0", PTE_RW), 9: ("own", PTE_RW)},
            {5: ("table1", PTE_RW)},
            {1: ("kernel_l1", 0), 2: ("foreign", 0)},
        ]
        steps = [(0, 3), (1, 2), (3, 1)]
        scanned = _scan_world(PageTableValidation, XEN_4_6, tables, steps)
        assert scanned == _scan_world(PerIndexValidation, XEN_4_6, tables, steps)
        first, _, third = scanned["outcomes"]
        assert first is not None and "circular" in first[2]
        assert third is not None and "foreign" in third[2]
        assert scanned["outcomes"][1] is None
        assert any(name == probe_points.FRAME_TYPE for name, _ in scanned["events"])
