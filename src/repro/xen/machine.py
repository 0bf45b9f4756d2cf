"""The raw physical machine: frames of 64-bit words plus a blob store.

The simulator models memory contents at word granularity (a page is
512 words of 8 bytes).  That representation is exact for page tables,
descriptors, magic fingerprints and counters, which is everything the
paper's exploits manipulate numerically.

Executable payloads, however, are not modelled at the ISA level.  A
payload written into memory is represented by a *blob*: an opaque
Python object attached to a ``(mfn, word)`` coordinate, together with a
marker word written into the frame so that scans and overwrites behave
consistently.  Executing memory means looking up the blob at the
translated coordinate — if no blob is there, the "CPU" faults, exactly
as jumping into garbage would.

The write paths record nothing for checkpoints: a rollback
(:meth:`repro.xen.snapshot.MachineSnapshot.restore`) finds what
changed by comparing every frame with its snapshot, so a write costs
the same whether or not a checkpoint is held.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MachineError
from repro.probes import points as probe_points
from repro.probes.bus import ProbeBus
from repro.xen.constants import PAGE_SHIFT, PAGE_SIZE, WORDS_PER_PAGE

_WORD_MASK = (1 << 64) - 1

#: Marker value written into a frame word that carries a blob, so the
#: word reads back as obviously non-zero data.
BLOB_MARKER = 0xB10B_B10B_B10B_B10B


class Machine:
    """Physical memory of the simulated host.

    Parameters
    ----------
    num_frames:
        Number of 4 KiB machine frames.  The default (2048 = 8 MiB) is
        plenty for the three-domain testbed while keeping full-memory
        scans fast.
    """

    def __init__(self, num_frames: int = 2048):
        if num_frames <= 0:
            raise MachineError("machine needs at least one frame")
        self.num_frames = num_frames
        self._frames: Dict[int, np.ndarray] = {}
        self._blobs: Dict[Tuple[int, int], object] = {}
        self._free: List[int] = list(range(num_frames - 1, -1, -1))
        self._allocated: set = set()
        #: The probe bus of this machine (shared with the ``Xen`` built
        #: on it).  The mutating memory operations below are compiled
        #: against cached point objects: with no subscribers the probe
        #: layer costs one attribute load and one truthiness test.
        self.probes = ProbeBus()
        self._p_write_word = self.probes.point(probe_points.WRITE_WORD)
        self._p_attach_blob = self.probes.point(probe_points.ATTACH_BLOB)
        self._p_zero_frame = self.probes.point(probe_points.ZERO_FRAME)
        self._p_copy_frame = self.probes.point(probe_points.COPY_FRAME)

    # -- geometry ----------------------------------------------------------

    @property
    def bytes_total(self) -> int:
        return self.num_frames * PAGE_SIZE

    def check_mfn(self, mfn: int) -> None:
        if not 0 <= mfn < self.num_frames:
            raise MachineError(f"mfn {mfn:#x} out of range (0..{self.num_frames - 1:#x})")

    # -- allocation --------------------------------------------------------

    def alloc_frame(self) -> int:
        """Pop a free frame (zeroed) and return its MFN."""
        if not self._free:
            raise MachineError("out of machine memory")
        mfn = self._free.pop()
        self._allocated.add(mfn)
        # An unmaterialised frame is already zero, and holds no blob
        # (attaching one materialises its frame): clearing it changes
        # nothing, so it is skipped unless a subscriber sees the event.
        if mfn in self._frames or self._p_zero_frame.subs:
            self.zero_frame(mfn)
        return mfn

    def alloc_frames(self, count: int) -> List[int]:
        return [self.alloc_frame() for _ in range(count)]

    def free_frame(self, mfn: int) -> None:
        self.check_mfn(mfn)
        if mfn not in self._allocated:
            raise MachineError(f"double free of mfn {mfn:#x}")
        self._allocated.remove(mfn)
        self.zero_frame(mfn)
        self._free.append(mfn)

    def is_allocated(self, mfn: int) -> bool:
        return mfn in self._allocated

    @property
    def frames_free(self) -> int:
        return len(self._free)

    # -- word access -------------------------------------------------------

    def _frame(self, mfn: int) -> np.ndarray:
        self.check_mfn(mfn)
        frame = self._frames.get(mfn)
        if frame is None:
            frame = np.zeros(WORDS_PER_PAGE, dtype=np.uint64)
            self._frames[mfn] = frame
        return frame

    @staticmethod
    def _check_index(index: int) -> None:
        if not 0 <= index < WORDS_PER_PAGE:
            raise MachineError(f"word index {index} out of page bounds")

    def read_word(self, mfn: int, index: int) -> int:
        """Read the 64-bit word at word offset ``index`` of frame ``mfn``."""
        self._check_index(index)
        if mfn not in self._frames:
            self.check_mfn(mfn)
            return 0
        return int(self._frames[mfn][index])

    def write_word(self, mfn: int, index: int, value: int) -> None:
        """Write a 64-bit word; any blob previously at that word is destroyed."""
        point = self._p_write_word
        if point.subs:
            return point.run(self._write_word_impl, (mfn, index, value))
        return self._write_word_impl(mfn, index, value)

    def _write_word_impl(self, mfn: int, index: int, value: int) -> None:
        self._check_index(index)
        frame = self._frame(mfn)
        frame[index] = value & _WORD_MASK
        self._blobs.pop((mfn, index), None)

    def entries_with(self, mfn: int, mask: int) -> List[Tuple[int, int]]:
        """``(index, value)`` of every word of frame ``mfn`` that has any
        bit of ``mask`` set, in index order, from one vectorised pass.

        Equal to filtering ``read_word(mfn, i)`` over every index: an
        unmaterialised frame yields nothing, and an out-of-range ``mfn``
        raises :class:`MachineError` from :meth:`check_mfn`.  The words
        are read when called, so a caller that writes the frame while
        iterating sees the values from before its writes.
        """
        frame = self._frames.get(mfn)
        if frame is None:
            self.check_mfn(mfn)
            return []
        hits = np.flatnonzero(frame & np.uint64(mask & _WORD_MASK))
        return list(zip(hits.tolist(), frame[hits].tolist()))

    def read_words(self, mfn: int, start: int, count: int) -> List[int]:
        """``count`` words from word ``start`` of frame ``mfn``, as
        Python ints, from one slice read.

        Equal to ``[read_word(mfn, start + i) for i in range(count)]``:
        an unmaterialised frame reads as zeros and stays
        unmaterialised, and a bad ``start``, an out-of-range ``mfn`` or
        a run past the page end raises the :class:`MachineError` that
        loop would raise first.
        """
        if count <= 0:
            return []
        self._check_index(start)
        frame = self._frames.get(mfn)
        if frame is None:
            self.check_mfn(mfn)
        if start + count > WORDS_PER_PAGE:
            self._check_index(WORDS_PER_PAGE)
        if frame is None:
            return [0] * count
        return frame[start:start + count].tolist()

    def write_words(self, mfn: int, start: int, values: Sequence[int]) -> None:
        """Write ``values`` to consecutive words from word ``start``.

        Equal to calling :meth:`write_word` for each value in turn.
        With no ``write_word`` subscribers and the whole run inside the
        page it is one slice assignment: the frame is materialised as
        :meth:`write_word` would, and only the blobs inside the run
        are destroyed.  Otherwise it is that per-word loop, so a
        subscriber sees one event per word in index order, and a run
        past the page end writes its in-range prefix before raising.
        An empty ``values`` touches nothing.
        """
        count = len(values)
        if not count:
            return
        if self._p_write_word.subs or not 0 <= start <= WORDS_PER_PAGE - count:
            for i, value in enumerate(values):
                self.write_word(mfn, start + i, value)
            return
        try:
            words = np.fromiter(values, np.uint64, count)
        except OverflowError:  # a negative value, or one wider than 64 bits
            words = [value & _WORD_MASK for value in values]
        end = start + count
        self._frame(mfn)[start:end] = words
        blobs = self._blobs
        if blobs:
            for key in [k for k in blobs if k[0] == mfn and start <= k[1] < end]:
                del blobs[key]

    def zero_frame(self, mfn: int) -> None:
        point = self._p_zero_frame
        if point.subs:
            return point.run(self._zero_frame_impl, (mfn,))
        return self._zero_frame_impl(mfn)

    def _zero_frame_impl(self, mfn: int) -> None:
        self.check_mfn(mfn)
        self._frames.pop(mfn, None)
        stale = [key for key in self._blobs if key[0] == mfn]
        for key in stale:
            del self._blobs[key]

    def copy_frame(self, src_mfn: int, dst_mfn: int) -> None:
        point = self._p_copy_frame
        if point.subs:
            return point.run(self._copy_frame_impl, (src_mfn, dst_mfn))
        return self._copy_frame_impl(src_mfn, dst_mfn)

    def _copy_frame_impl(self, src_mfn: int, dst_mfn: int) -> None:
        # Clear through the public method: the nested zero_frame probe
        # must fire, exactly as the pre-refactor instance hooks saw it.
        self.zero_frame(dst_mfn)
        if src_mfn in self._frames:
            self._frames[dst_mfn] = self._frames[src_mfn].copy()
        for (mfn, index), blob in list(self._blobs.items()):
            if mfn == src_mfn:
                self._blobs[(dst_mfn, index)] = blob

    # -- physical byte-address helpers --------------------------------------

    @staticmethod
    def split_paddr(paddr: int) -> Tuple[int, int]:
        """Split a byte-granular physical address into ``(mfn, word_index)``.

        The address must be 8-byte aligned — the simulator, like the
        paper's prototype interface, transfers whole words.
        """
        if paddr % 8:
            raise MachineError(f"unaligned physical address {paddr:#x}")
        return paddr >> PAGE_SHIFT, (paddr & (PAGE_SIZE - 1)) // 8

    def read_paddr(self, paddr: int) -> int:
        mfn, index = self.split_paddr(paddr)
        return self.read_word(mfn, index)

    def write_paddr(self, paddr: int, value: int) -> None:
        mfn, index = self.split_paddr(paddr)
        self.write_word(mfn, index, value)

    # -- blobs ("code" payloads) --------------------------------------------

    def attach_blob(self, mfn: int, index: int, blob: object) -> None:
        """Install an opaque payload at ``(mfn, index)``.

        Writes the blob marker word so that memory reads observe that
        *something* was written there.
        """
        point = self._p_attach_blob
        if point.subs:
            return point.run(self._attach_blob_impl, (mfn, index, blob))
        return self._attach_blob_impl(mfn, index, blob)

    def _attach_blob_impl(self, mfn: int, index: int, blob: object) -> None:
        self._check_index(index)
        frame = self._frame(mfn)
        frame[index] = BLOB_MARKER & _WORD_MASK
        self._blobs[(mfn, index)] = blob

    def blob_at(self, mfn: int, index: int) -> Optional[object]:
        return self._blobs.get((mfn, index))

    def iter_blobs(self) -> Iterator[Tuple[int, int, object]]:
        for (mfn, index), blob in self._blobs.items():
            yield mfn, index, blob

    # -- scanning ------------------------------------------------------------

    def find_word(self, value: int, start_mfn: int = 0) -> Optional[Tuple[int, int]]:
        """Linear scan of physical memory for a word value.

        Returns the first ``(mfn, index)`` at or after ``start_mfn``
        holding ``value``, or ``None``.  Used by tests; the exploits do
        their own scanning through their (possibly crafted) mappings.
        """
        target = np.uint64(value & _WORD_MASK)
        for mfn in range(start_mfn, self.num_frames):
            frame = self._frames.get(mfn)
            if frame is None:
                if target == 0:
                    return (mfn, 0)
                continue
            hits = np.nonzero(frame == target)[0]
            if hits.size:
                return (mfn, int(hits[0]))
        return None
