"""Unit tests for the raw machine model."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import MachineError
from repro.probes import points as P
from repro.xen.constants import PAGE_SIZE, WORDS_PER_PAGE
from repro.xen.machine import BLOB_MARKER, Machine
from repro.xen.snapshot import machine_digest


class TestGeometry:
    def test_bytes_total(self):
        assert Machine(16).bytes_total == 16 * PAGE_SIZE

    def test_zero_frames_rejected(self):
        with pytest.raises(MachineError):
            Machine(0)

    def test_check_mfn_bounds(self, machine):
        machine.check_mfn(0)
        machine.check_mfn(machine.num_frames - 1)
        with pytest.raises(MachineError):
            machine.check_mfn(machine.num_frames)
        with pytest.raises(MachineError):
            machine.check_mfn(-1)


class TestWordAccess:
    def test_fresh_memory_reads_zero(self, machine):
        assert machine.read_word(3, 17) == 0

    def test_write_read_roundtrip(self, machine):
        machine.write_word(5, 100, 0xDEAD)
        assert machine.read_word(5, 100) == 0xDEAD

    def test_write_masks_to_64_bits(self, machine):
        machine.write_word(1, 0, 1 << 70 | 5)
        assert machine.read_word(1, 0) == 5

    def test_word_index_bounds(self, machine):
        with pytest.raises(MachineError):
            machine.read_word(0, WORDS_PER_PAGE)
        with pytest.raises(MachineError):
            machine.write_word(0, -1, 1)

    def test_read_words_bulk(self, machine):
        machine.write_words(2, 10, [1, 2, 3])
        assert machine.read_words(2, 10, 3) == [1, 2, 3]

    def test_zero_frame_clears_content(self, machine):
        machine.write_word(4, 0, 99)
        machine.zero_frame(4)
        assert machine.read_word(4, 0) == 0

    def test_copy_frame(self, machine):
        machine.write_word(1, 7, 42)
        machine.copy_frame(1, 2)
        assert machine.read_word(2, 7) == 42

    def test_copy_frame_copies_blobs(self, machine):
        token = object()
        machine.attach_blob(1, 3, token)
        machine.copy_frame(1, 2)
        assert machine.blob_at(2, 3) is token


class TestAllocation:
    def test_alloc_returns_distinct_frames(self, machine):
        mfns = machine.alloc_frames(10)
        assert len(set(mfns)) == 10

    def test_alloc_ascending_order(self, machine):
        # Domain-build fingerprinting (XSA-148) relies on allocation
        # order being ascending from mfn 0.
        assert machine.alloc_frames(3) == [0, 1, 2]

    def test_alloc_zeroes_the_frame(self, machine):
        mfn = machine.alloc_frame()
        machine.write_word(mfn, 0, 7)
        machine.free_frame(mfn)
        assert machine.alloc_frame() == mfn
        assert machine.read_word(mfn, 0) == 0

    def test_alloc_clears_a_free_frame_written_behind_the_allocator(self, machine):
        # Writes to a free frame (a use-after-free) materialise it, so
        # the allocation still clears its words and its blobs.
        mfn = machine._free[-1]
        machine.write_word(mfn, 3, 9)
        machine.attach_blob(mfn, 5, "payload")
        assert machine.alloc_frame() == mfn
        assert machine.read_word(mfn, 3) == 0
        assert machine.blob_at(mfn, 5) is None

    def test_zero_frame_subscriber_sees_every_allocation(self, machine):
        recorder = _Recorder()
        machine.probes.subscribe(P.ZERO_FRAME, recorder)
        mfns = machine.alloc_frames(3)
        machine.write_word(mfns[0], 0, 1)
        machine.free_frame(mfns[0])
        assert machine.alloc_frame() == mfns[0]
        assert recorder.events == [
            (mfns[0],), (mfns[1],), (mfns[2],), (mfns[0],), (mfns[0],)
        ]

    def test_free_then_realloc(self, machine):
        mfn = machine.alloc_frame()
        machine.free_frame(mfn)
        assert machine.alloc_frame() == mfn

    def test_double_free_rejected(self, machine):
        mfn = machine.alloc_frame()
        machine.free_frame(mfn)
        with pytest.raises(MachineError):
            machine.free_frame(mfn)

    def test_exhaustion(self):
        small = Machine(2)
        small.alloc_frames(2)
        with pytest.raises(MachineError):
            small.alloc_frame()

    def test_frames_free_accounting(self, machine):
        before = machine.frames_free
        mfn = machine.alloc_frame()
        assert machine.frames_free == before - 1
        machine.free_frame(mfn)
        assert machine.frames_free == before

    def test_is_allocated(self, machine):
        mfn = machine.alloc_frame()
        assert machine.is_allocated(mfn)
        machine.free_frame(mfn)
        assert not machine.is_allocated(mfn)


class TestPhysicalAddresses:
    def test_split_paddr(self):
        mfn, word = Machine.split_paddr(3 * PAGE_SIZE + 16)
        assert (mfn, word) == (3, 2)

    def test_split_paddr_rejects_unaligned(self):
        with pytest.raises(MachineError):
            Machine.split_paddr(12)

    def test_paddr_roundtrip(self, machine):
        machine.write_paddr(5 * PAGE_SIZE + 8, 0xAB)
        assert machine.read_paddr(5 * PAGE_SIZE + 8) == 0xAB
        assert machine.read_word(5, 1) == 0xAB


class TestBlobs:
    def test_attach_and_fetch(self, machine):
        token = object()
        machine.attach_blob(2, 5, token)
        assert machine.blob_at(2, 5) is token

    def test_attach_writes_marker(self, machine):
        machine.attach_blob(2, 5, object())
        assert machine.read_word(2, 5) == BLOB_MARKER

    def test_plain_write_destroys_blob(self, machine):
        machine.attach_blob(2, 5, object())
        machine.write_word(2, 5, 1)
        assert machine.blob_at(2, 5) is None

    def test_zero_frame_destroys_blobs(self, machine):
        machine.attach_blob(2, 5, object())
        machine.zero_frame(2)
        assert machine.blob_at(2, 5) is None

    def test_iter_blobs(self, machine):
        machine.attach_blob(1, 0, "a")
        machine.attach_blob(2, 1, "b")
        assert {(m, w, b) for m, w, b in machine.iter_blobs()} == {
            (1, 0, "a"),
            (2, 1, "b"),
        }


class TestScanning:
    def test_find_word_hits(self, machine):
        machine.write_word(7, 33, 0xFEED)
        assert machine.find_word(0xFEED) == (7, 33)

    def test_find_word_respects_start(self, machine):
        machine.write_word(3, 0, 0xFEED)
        machine.write_word(9, 0, 0xFEED)
        assert machine.find_word(0xFEED, start_mfn=4) == (9, 0)

    def test_find_word_missing(self, machine):
        assert machine.find_word(0x12345) is None

    def test_find_zero_in_untouched_frame(self, machine):
        assert machine.find_word(0) == (0, 0)


class TestEntriesWith:
    def test_unmaterialised_frame_yields_nothing(self, machine):
        assert machine.entries_with(5, 1) == []

    def test_out_of_range_mfn_raises_like_read_word(self, machine):
        for mfn in (machine.num_frames, -1):
            with pytest.raises(MachineError) as scanned:
                machine.entries_with(mfn, 1)
            with pytest.raises(MachineError) as read:
                machine.read_word(mfn, 0)
            assert str(scanned.value) == str(read.value)

    def test_index_order_and_full_width_values(self, machine):
        machine.write_word(2, 300, (1 << 64) - 1)
        machine.write_word(2, 4, 0x1001)
        machine.write_word(2, 9, 0x1000)  # bit 0 clear: not selected
        scanned = machine.entries_with(2, 1)
        assert scanned == [(4, 0x1001), (300, (1 << 64) - 1)]
        assert {type(x) for pair in scanned for x in pair} == {int}

    def test_blob_marker_words_are_seen(self, machine):
        machine.attach_blob(3, 7, "payload")
        assert machine.entries_with(3, BLOB_MARKER) == [(7, BLOB_MARKER)]

    @given(
        words=st.dictionaries(
            st.integers(min_value=0, max_value=WORDS_PER_PAGE - 1),
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            max_size=24,
        ),
        mask=st.integers(min_value=1, max_value=(1 << 64) - 1),
    )
    @settings(max_examples=60)
    def test_equals_filtered_read_word(self, words, mask):
        machine = Machine(4)
        for index, value in words.items():
            machine.write_word(1, index, value)
        expected = [
            (index, machine.read_word(1, index))
            for index in range(WORDS_PER_PAGE)
            if machine.read_word(1, index) & mask
        ]
        assert machine.entries_with(1, mask) == expected


class TestMachineProperties:
    @given(
        mfn=st.integers(min_value=0, max_value=511),
        index=st.integers(min_value=0, max_value=WORDS_PER_PAGE - 1),
        value=st.integers(min_value=0, max_value=(1 << 64) - 1),
    )
    @settings(max_examples=60)
    def test_read_after_write(self, mfn, index, value):
        machine = Machine(512)
        machine.write_word(mfn, index, value)
        assert machine.read_word(mfn, index) == value

    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=31),
                st.integers(min_value=0, max_value=WORDS_PER_PAGE - 1),
                st.integers(min_value=0, max_value=(1 << 64) - 1),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=40)
    def test_last_write_wins(self, writes):
        machine = Machine(32)
        expected = {}
        for mfn, index, value in writes:
            machine.write_word(mfn, index, value)
            expected[(mfn, index)] = value
        for (mfn, index), value in expected.items():
            assert machine.read_word(mfn, index) == value

    @given(paddr=st.integers(min_value=0, max_value=511 * PAGE_SIZE).map(lambda x: x & ~7))
    @settings(max_examples=50)
    def test_split_paddr_inverse(self, paddr):
        mfn, word = Machine.split_paddr(paddr)
        assert mfn * PAGE_SIZE + word * 8 == paddr


class _Recorder:
    """A ``write_word`` subscriber that records every event's arguments."""

    def __init__(self):
        self.events = []

    def op_enter(self, name, args):
        self.events.append(args)

    def op_exit(self, name, args, result, exc):
        pass


def _outcome(call):
    try:
        return ("ok", call())
    except MachineError as exc:
        return ("error", str(exc))


def _state(machine):
    return machine_digest(machine), list(machine.iter_blobs())


def _word_loop(machine, mfn, start, values):
    for i, value in enumerate(values):
        machine.write_word(mfn, start + i, value)


#: Machines of four frames: mfn 4 and -1 are out of range.
_MFNS = st.integers(min_value=-1, max_value=4)
#: Starts around both page edges, bad ones included.
_STARTS = st.one_of(
    st.integers(min_value=-2, max_value=8),
    st.integers(min_value=WORDS_PER_PAGE - 70, max_value=WORDS_PER_PAGE + 1),
)
_WIDE_VALUES = st.lists(
    st.integers(min_value=-(1 << 70), max_value=1 << 70), max_size=64
)


class TestBulkWordAccess:
    """``write_words`` / ``read_words`` against the per-word loops they
    replace, on twin machines."""

    @staticmethod
    def _twins(mfn, start, blob_offsets, materialise):
        machines = Machine(4), Machine(4)
        for machine in machines:
            if materialise and 0 <= mfn < 4:
                machine.write_word(mfn, 300 if start < 256 else 3, 7)
            for offset in blob_offsets:
                index = min(max(start + offset, 0), WORDS_PER_PAGE - 1)
                for blob_mfn in {min(max(mfn, 0), 3), 2}:
                    machine.attach_blob(blob_mfn, index, f"blob-{blob_mfn}-{index}")
        return machines

    @given(
        mfn=_MFNS,
        start=_STARTS,
        values=_WIDE_VALUES,
        blob_offsets=st.lists(st.integers(min_value=-2, max_value=66), max_size=6),
        materialise=st.booleans(),
        subscribed=st.booleans(),
    )
    @settings(max_examples=200)
    # Edge inputs every run covers: an empty run (on an unmaterialised
    # and on an out-of-range frame), an unmaterialised frame, an
    # out-of-range mfn, and a run crossing the page end.
    @example(3, 0, [], [], False, False)
    @example(4, 600, [], [], False, False)
    @example(1, 5, [-1, 1 << 70], [], False, False)
    @example(4, 0, [1], [], False, False)
    @example(1, WORDS_PER_PAGE - 2, [1, 2, 3], [-1, 1, 2], True, False)
    def test_write_words_equals_the_word_loop(
        self, mfn, start, values, blob_offsets, materialise, subscribed
    ):
        bulk, loop = self._twins(mfn, start, blob_offsets, materialise)
        recorders = _Recorder(), _Recorder()
        if subscribed:
            for machine, recorder in zip((bulk, loop), recorders):
                machine.probes.subscribe(P.WRITE_WORD, recorder)
        assert _outcome(lambda: bulk.write_words(mfn, start, values)) == _outcome(
            lambda: _word_loop(loop, mfn, start, values)
        )
        assert _state(bulk) == _state(loop)
        assert recorders[0].events == recorders[1].events

    @given(mfn=_MFNS, start=_STARTS, values=_WIDE_VALUES)
    @settings(max_examples=60)
    def test_subscriber_sees_one_event_per_word_in_index_order(
        self, mfn, start, values
    ):
        machine, recorder = Machine(4), _Recorder()
        machine.probes.subscribe(P.WRITE_WORD, recorder)
        _outcome(lambda: machine.write_words(mfn, start, values))
        # The first failing word is seen as it raises; nothing after it.
        expected = []
        for i, value in enumerate(values):
            expected.append((mfn, start + i, value))
            if not (0 <= start + i < WORDS_PER_PAGE and 0 <= mfn < 4):
                break
        assert recorder.events == expected

    @given(
        mfn=_MFNS,
        start=_STARTS,
        count=st.integers(min_value=-1, max_value=80),
        materialise=st.booleans(),
    )
    @settings(max_examples=150)
    @example(3, 0, 4, False)
    @example(4, 0, 4, False)
    @example(1, WORDS_PER_PAGE - 2, 3, True)
    def test_read_words_equals_the_word_loop(self, mfn, start, count, materialise):
        blobs = [0, 5] if materialise else []
        machine = self._twins(mfn, start, blobs, materialise)[0]
        before = _state(machine)
        found = _outcome(lambda: machine.read_words(mfn, start, count))
        assert found == _outcome(
            lambda: [machine.read_word(mfn, start + i) for i in range(count)]
        )
        if found[0] == "ok":
            assert {type(word) for word in found[1]} <= {int}
        assert _state(machine) == before

    def test_whole_page_run(self, machine):
        values = list(range(WORDS_PER_PAGE))
        machine.attach_blob(4, 0, "first")
        machine.attach_blob(4, WORDS_PER_PAGE - 1, "last")
        machine.attach_blob(5, 0, "other frame")
        machine.write_words(4, 0, values)
        assert machine.read_words(4, 0, WORDS_PER_PAGE) == values
        assert list(machine.iter_blobs()) == [(5, 0, "other frame")]
