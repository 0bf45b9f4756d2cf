"""Machine-state snapshots, differential comparison, and restore.

Auditing an erroneous state ultimately means comparing memory against
what it should be.  The paper does this by hand (page-table walks,
re-reading corrupted words); this module generalises it: capture a
snapshot of all machine frames, run something, and diff — yielding
exactly which words changed.  The differential-equivalence analysis
(:mod:`repro.core.differential`) builds on this to compare an exploit
run against an injection run location by location.

Snapshots are also the substrate of ReHype-style microreboot recovery
(:mod:`repro.resilience.recovery`): :meth:`MachineSnapshot.restore`
rolls a machine back to the captured contents — words, code blobs and
the frame allocator — so a campaign can recover the simulated
hypervisor after a :class:`~repro.errors.HypervisorCrash` instead of
abandoning the trial.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import MachineError
from repro.xen.constants import WORDS_PER_PAGE
from repro.xen.machine import Machine

#: Byte image of an untouched (all-zero) frame, for digesting frames
#: that were never materialised in the machine's lazy frame map.
_ZERO_FRAME_BYTES = np.zeros(WORDS_PER_PAGE, dtype=np.uint64).tobytes()


def blob_fingerprint(blob: object) -> str:
    """A stable content fingerprint for an opaque code blob.

    Blobs are arbitrary Python objects, so the fingerprint covers what
    is stable and comparable across processes: the class name plus
    every public attribute with a primitive value.  Two payloads built
    from the same recorded parameters fingerprint identically; live
    object references (networks, callbacks) are deliberately excluded.
    """
    parts = [type(blob).__name__]
    attrs = getattr(blob, "__dict__", None) or {}
    for name in sorted(attrs):
        if name.startswith("_"):
            continue
        value = attrs[name]
        if isinstance(value, (bool, int, float, str)) or value is None:
            parts.append(f"{name}={value!r}")
    return "|".join(parts)


def frame_digest(machine: Machine, mfn: int) -> str:
    """Digest of one frame: its 512 words plus any blobs attached to it."""
    digest = hashlib.sha1()
    frame = machine._frames.get(mfn)  # noqa: SLF001 — digesting is privileged
    # .data hashes the array buffer without the tobytes() copy; frames
    # are contiguous 1-D uint64 arrays, so the bytes are identical.
    digest.update(frame.data if frame is not None else _ZERO_FRAME_BYTES)
    attached = [
        (word, blob)
        for (blob_mfn, word), blob in machine._blobs.items()  # noqa: SLF001
        if blob_mfn == mfn
    ]
    for word, blob in sorted(attached, key=lambda item: item[0]):
        digest.update(f"{word}:{blob_fingerprint(blob)}".encode())
    return digest.hexdigest()


def machine_digest(machine: Machine) -> str:
    """Digest of the whole machine: every materialised frame and blob.

    This is the state fingerprint the trace subsystem records at trial
    boundaries and the recovery manager re-validates after a rollback:
    two machines that executed the same operations digest identically.
    """
    digest = hashlib.sha1()
    for mfn, frame in sorted(machine._frames.items()):  # noqa: SLF001
        digest.update(mfn.to_bytes(8, "little"))
        digest.update(frame.data)
    for (mfn, word), blob in sorted(
        machine._blobs.items(), key=lambda item: item[0]  # noqa: SLF001
    ):
        digest.update(f"{mfn}:{word}:{blob_fingerprint(blob)}".encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class WordChange:
    """One changed memory word."""

    mfn: int
    word: int
    old: int
    new: int

    @property
    def location(self) -> Tuple[int, int]:
        return (self.mfn, self.word)


class MachineSnapshot:
    """An immutable copy of all frame contents at capture time.

    :meth:`capture` also records the blob map (opaque "code" payloads)
    and the frame allocator's state, which is what makes
    :meth:`restore` an exact inverse: capture → arbitrary mutations →
    restore leaves :meth:`diff` empty and the allocator exactly as it
    was.  Blob objects themselves are shared, not copied — they are
    opaque to the machine model and treated as immutable.
    """

    def __init__(
        self,
        frames: Dict[int, np.ndarray],
        num_frames: int,
        blobs: Optional[Dict[Tuple[int, int], object]] = None,
        allocated: Optional[Set[int]] = None,
        free: Optional[List[int]] = None,
    ):
        self._frames = frames
        self.num_frames = num_frames
        self._blobs = blobs
        self._allocated = allocated
        self._free = free

    @classmethod
    def capture(cls, machine: Machine) -> "MachineSnapshot":
        frames = {
            mfn: frame.copy()
            for mfn, frame in machine._frames.items()  # noqa: SLF001 — snapshotting is privileged
        }
        return cls(
            frames=frames,
            num_frames=machine.num_frames,
            blobs=dict(machine._blobs),  # noqa: SLF001
            allocated=set(machine._allocated),  # noqa: SLF001
            free=list(machine._free),  # noqa: SLF001
        )

    def word(self, mfn: int, index: int) -> int:
        frame = self._frames.get(mfn)
        if frame is None:
            return 0
        return int(frame[index])

    # ------------------------------------------------------------------

    def diff(self, machine: Machine) -> List[WordChange]:
        """All words that differ between this snapshot and ``machine``
        now, in (mfn, word) order."""
        changes: List[WordChange] = []
        mfns = set(self._frames) | set(machine._frames)  # noqa: SLF001
        zero = np.zeros(WORDS_PER_PAGE, dtype=np.uint64)
        for mfn in sorted(mfns):
            old = self._frames.get(mfn)
            new = machine._frames.get(mfn)  # noqa: SLF001
            old_arr = old if old is not None else zero
            new_arr = new if new is not None else zero
            hits = np.nonzero(old_arr != new_arr)[0]
            for index in hits:
                changes.append(
                    WordChange(
                        mfn=mfn,
                        word=int(index),
                        old=int(old_arr[index]),
                        new=int(new_arr[index]),
                    )
                )
        return changes

    def changed_frames(self, machine: Machine) -> Set[int]:
        return {change.mfn for change in self.diff(machine)}

    def changed_words(self, machine: Machine) -> int:
        """``len(self.diff(machine))``, counted without building the
        per-word :class:`WordChange` records."""
        live = machine._frames  # noqa: SLF001
        zero = np.zeros(WORDS_PER_PAGE, dtype=np.uint64)
        return sum(
            int(np.count_nonzero(self._frames.get(mfn, zero) != live.get(mfn, zero)))
            for mfn in set(self._frames) | set(live)
        )

    # ------------------------------------------------------------------

    def restore(self, machine: Machine) -> int:
        """Roll ``machine`` back to this snapshot's contents.

        Restores every frame's words, the blob map, and — when the
        snapshot captured them — the allocator's free list and
        allocated set, so subsequent :meth:`diff` calls against the
        restored machine are empty and later allocations proceed
        exactly as they would have from the checkpoint.

        Returns the number of words that had to be rewritten (the size
        of the diff at restore time), which recovery reports surface as
        the rollback's footprint.
        """
        if machine.num_frames != self.num_frames:
            raise MachineError(
                f"snapshot of a {self.num_frames}-frame machine cannot "
                f"restore a {machine.num_frames}-frame machine"
            )
        rewritten = self.changed_words(machine)
        machine._frames = {  # noqa: SLF001 — restore is privileged
            mfn: frame.copy() for mfn, frame in self._frames.items()
        }
        if self._blobs is not None:
            machine._blobs = dict(self._blobs)  # noqa: SLF001
        if self._allocated is not None and self._free is not None:
            machine._allocated = set(self._allocated)  # noqa: SLF001
            machine._free = list(self._free)  # noqa: SLF001
        return rewritten
