"""Tests for machine snapshots and the differential analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.differential import StateDelta, classify_frame, compare_deltas
from repro.core.testbed import build_testbed
from repro.errors import HypervisorCrash
from repro.exploits import USE_CASES, XSA182Test, XSA212Crash
from repro.exploits.base import ExploitFailed
from repro.guest.kernel import KernelOops
from repro.xen.machine import Machine
from repro.xen.snapshot import MachineSnapshot, WordChange
from repro.xen.versions import XEN_4_6


class TestSnapshot:
    def test_no_changes_on_idle(self, machine):
        machine.write_word(3, 4, 5)
        snapshot = MachineSnapshot.capture(machine)
        assert snapshot.diff(machine) == []

    def test_single_change_detected(self, machine):
        snapshot = MachineSnapshot.capture(machine)
        machine.write_word(7, 8, 9)
        changes = snapshot.diff(machine)
        assert changes == [WordChange(mfn=7, word=8, old=0, new=9)]

    def test_revert_is_invisible(self, machine):
        machine.write_word(1, 1, 42)
        snapshot = MachineSnapshot.capture(machine)
        machine.write_word(1, 1, 0)
        machine.write_word(1, 1, 42)
        assert snapshot.diff(machine) == []

    def test_snapshot_is_immutable_copy(self, machine):
        machine.write_word(2, 2, 10)
        snapshot = MachineSnapshot.capture(machine)
        machine.write_word(2, 2, 20)
        assert snapshot.word(2, 2) == 10

    def test_changed_frames(self, machine):
        snapshot = MachineSnapshot.capture(machine)
        machine.write_word(4, 0, 1)
        machine.write_word(9, 0, 1)
        assert snapshot.changed_frames(machine) == {4, 9}

    def test_new_frame_materialisation(self, machine):
        snapshot = MachineSnapshot.capture(machine)
        machine.write_word(200, 5, 6)  # frame never touched before
        changes = snapshot.diff(machine)
        assert WordChange(mfn=200, word=5, old=0, new=6) in changes

    def test_changes_ordered(self, machine):
        snapshot = MachineSnapshot.capture(machine)
        machine.write_word(9, 0, 1)
        machine.write_word(4, 0, 1)
        changes = snapshot.diff(machine)
        assert [c.mfn for c in changes] == [4, 9]


#: One raw memory mutation: (mfn, word index, 64-bit value).
_mutations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=127),
        st.integers(min_value=0, max_value=511),
        st.integers(min_value=0, max_value=2**64 - 1),
    ),
    max_size=32,
)


class TestRestoreInverse:
    """``restore`` is the exact inverse of ``capture`` — the property
    the microreboot (:mod:`repro.resilience.recovery`) stands on."""

    @settings(max_examples=30, deadline=None)
    @given(writes=_mutations)
    def test_restore_is_exact_inverse_of_capture(self, writes):
        machine = Machine(128)
        machine.write_word(1, 1, 42)  # pre-existing state to preserve
        snapshot = MachineSnapshot.capture(machine)
        for mfn, word, value in writes:
            machine.write_word(mfn, word, value)
        expected = len(snapshot.diff(machine))
        rewritten = snapshot.restore(machine)
        assert rewritten == expected  # the count is the diff's length
        assert snapshot.diff(machine) == []
        assert machine.read_word(1, 1) == 42
        # the footprint never exceeds the number of distinct locations
        assert rewritten <= len({(m, w) for m, w, _v in writes})
        # frames only the snapshot materialised count against zero
        fresh = Machine(128)
        expected = len(snapshot.diff(fresh))
        assert snapshot.restore(fresh) == expected

    def test_restore_rewinds_the_allocator(self, machine):
        snapshot = MachineSnapshot.capture(machine)
        first = machine.alloc_frame()
        machine.write_word(first, 0, 7)
        snapshot.restore(machine)
        # the frame allocated after the checkpoint is free again, and
        # allocation proceeds exactly as it would have from the capture
        assert machine.alloc_frame() == first
        assert machine.read_word(first, 0) == 0

    def test_restore_after_arbitrary_access_revalidates_census(self, bed46):
        """The injector's mutations roll back cleanly and the frame
        type census matches the checkpoint — the microreboot's
        re-validation phase in miniature."""
        from repro.core.injector import IntrusionInjector, install_injector
        from repro.resilience.recovery import frame_type_census

        install_injector(bed46.xen)
        census = frame_type_census(bed46.xen)
        snapshot = MachineSnapshot.capture(bed46.xen.machine)

        injector = IntrusionInjector(bed46.attacker_domain.kernel)
        victim = bed46.xen.machine.num_frames - 2  # free frame, physical mode
        for word in (0, 1, 2):
            assert injector.write_word(
                victim * 4096 + word * 8, 0xDEAD + word, linear=False
            ) == 0

        assert snapshot.changed_frames(bed46.xen.machine) == {victim}
        rewritten = snapshot.restore(bed46.xen.machine)
        assert rewritten == 3
        assert snapshot.diff(bed46.xen.machine) == []
        assert frame_type_census(bed46.xen) == census

    def test_restore_rejects_mismatched_geometry(self):
        snapshot = MachineSnapshot.capture(Machine(64))
        from repro.errors import MachineError

        with pytest.raises(MachineError, match="64-frame"):
            snapshot.restore(Machine(128))


class TestClassification:
    def test_roles(self, bed48):
        xen = bed48.xen
        assert classify_frame(bed48, xen.idt_mfns[0]) == "idt"
        assert classify_frame(bed48, xen.xen_pud_mfn) == "shared-pud"
        assert classify_frame(bed48, xen.m2p_frames[0]) == "m2p"
        assert classify_frame(bed48, xen.xen_code_mfn) == "xen-code"
        l4 = bed48.attacker_domain.current_vcpu.cr3_mfn
        assert classify_frame(bed48, l4) == "pagetable-l4"
        assert classify_frame(bed48, bed48.attacker_domain.pfn_to_mfn(4)) == "domain-data"
        assert classify_frame(bed48, bed48.dom0.pfn_to_mfn(4)) == "dom0-data"

    def test_free_frame(self, bed48):
        free_mfn = bed48.xen.machine.num_frames - 1
        assert classify_frame(bed48, free_mfn) == "free"


def _delta(use_case_cls, mode: str, version) -> StateDelta:
    bed = build_testbed(version)
    snapshot = MachineSnapshot.capture(bed.xen.machine)
    use_case = use_case_cls()
    use_case.prepare(bed)
    try:
        if mode == "exploit":
            use_case.run_exploit(bed)
        else:
            use_case.run_injection(bed)
    except (HypervisorCrash, KernelOops, ExploitFailed):
        pass
    return StateDelta.capture(bed, snapshot)


class TestDifferential:
    def test_xsa182_footprints_identical(self):
        exploit = _delta(XSA182Test, "exploit", XEN_4_6)
        injection = _delta(XSA182Test, "injection", XEN_4_6)
        verdict = compare_deltas(exploit, injection)
        assert verdict.grade == "equivalent"
        assert verdict.exploit_signature == {"pagetable-l4": 2}

    def test_xsa212_crash_injection_is_minimal(self):
        """The exploit's memory_exchange legitimately updates the M2P
        on the way to its rogue write; the injection touches only the
        target gate — strictly fewer side effects."""
        exploit = _delta(XSA212Crash, "exploit", XEN_4_6)
        injection = _delta(XSA212Crash, "injection", XEN_4_6)
        verdict = compare_deltas(exploit, injection)
        assert verdict.grade == "injection-minimal"
        assert verdict.injection_signature == {"idt": 1}
        assert verdict.exploit_signature["idt"] == 1
        assert verdict.exploit_signature["m2p"] > 0

    @pytest.mark.parametrize("use_case", USE_CASES, ids=lambda u: u.name)
    def test_all_use_cases_at_least_minimal_on_46(self, use_case):
        exploit = _delta(use_case, "exploit", XEN_4_6)
        injection = _delta(use_case, "injection", XEN_4_6)
        verdict = compare_deltas(exploit, injection)
        assert verdict.grade in ("equivalent", "injection-minimal"), verdict.render()

    def test_render(self):
        exploit = _delta(XSA182Test, "exploit", XEN_4_6)
        injection = _delta(XSA182Test, "injection", XEN_4_6)
        assert "EQUIVALENT" in compare_deltas(exploit, injection).render()
