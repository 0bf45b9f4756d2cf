"""Whole-testbed checkpoints for snapshot-cached trial execution.

The fork-server (:mod:`repro.runner.forkserver`) boots one testbed per
(Xen version) in each persistent worker, captures a
:class:`TestbedCheckpoint`, and starts every subsequent trial by
*restoring* the checkpoint in place instead of rebuilding the machine.
That only works if restore is an exact inverse, so the checkpoint
covers three layers:

* **machine state** — every frame's words, the blob map and the frame
  allocator, via :class:`~repro.xen.snapshot.MachineSnapshot` (an
  exact inverse since the recovery work landed);
* **hypervisor bookkeeping** — the frame-table records and per-domain
  p2m maps, exactly what :class:`~repro.resilience.recovery.RecoveryManager`
  reintegrates after a microreboot, plus crash flags, console and
  audit rings, and the scheduler's accounting state;
* **guest-kernel leaf state** — clocks, pid counters, free-page lists,
  logs and process tables, so a restored bed does not carry one
  trial's guest-side drift into the next.

Deliberately *not* copied: live object graphs (domains, networks,
probe buses).  Deep-copying a whole testbed is known-unsafe — clones
share blob identity with their template, so a trial on the clone can
corrupt the template — which is why the protocol is capture-once /
restore-in-place, never a deep copy of the bed.  Every layer is copied
with a typed, flat copy instead (frame-table records through
:meth:`~repro.xen.frames.FrameTable.copy_info`), which is what keeps a
restore far cheaper than a cold boot.

Every restore is verified: :meth:`TestbedCheckpoint.restore` recomputes
:func:`~repro.xen.snapshot.machine_digest` and compares it against the
digest recorded at capture time.  A mismatch raises
:class:`CheckpointDiverged` — the caller (the fork-server's snapshot
cache) evicts the entry and falls back to a cold boot.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.xen.snapshot import MachineSnapshot, machine_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.testbed import TestBed
    from repro.xen.frames import PageInfo


class CheckpointDiverged(RuntimeError):
    """A restored testbed did not reproduce the checkpoint's digest.

    Either the cached snapshot rotted (corrupted bytes, a torn cache
    entry) or the testbed accumulated state the checkpoint does not
    cover.  Callers must treat the bed as unusable: evict the cache
    entry and boot a fresh testbed.
    """

    def __init__(self, expected: str, actual: str):
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"restored machine digest {actual[:16]} != checkpoint "
            f"digest {expected[:16]}; the cached snapshot is unusable"
        )


@dataclass
class _KernelState:
    """Leaf state of one guest kernel (scalars and flat containers)."""

    clock: float
    next_pid: int
    booted: bool
    free_pfns: List[int]
    log: List[str]
    processes: list
    events_received: List[int]


@dataclass
class TestbedCheckpoint:
    """One consistent, restorable view of a whole testbed."""

    __test__ = False  # "Test*" name, but not a pytest test class

    snapshot: MachineSnapshot
    frame_info: Dict[int, "PageInfo"]
    p2m: Dict[int, list]
    dead: Dict[int, bool]
    crashed: bool
    crash_banner: Optional[str]
    console: List[str]
    audit: List[Tuple[int, int, int]]
    sched_ticks: int
    sched_trace: list
    sched_pcpus: list
    sched_accounts: dict
    watches: list
    kernels: Dict[int, _KernelState]
    #: Machine digest at capture time — what a faithful restore must
    #: reproduce, byte for byte.
    digest: str

    @classmethod
    def capture(cls, bed: "TestBed") -> "TestbedCheckpoint":
        xen = bed.xen
        sched = xen.scheduler
        kernels: Dict[int, _KernelState] = {}
        for domain in bed.all_domains():
            kernel = domain.kernel
            kernels[domain.id] = _KernelState(
                clock=kernel._clock,  # noqa: SLF001 — checkpointing is privileged
                next_pid=kernel._next_pid,  # noqa: SLF001
                booted=kernel.booted,
                free_pfns=list(kernel._free_pfns),  # noqa: SLF001
                log=list(kernel.log),
                processes=[copy.copy(p) for p in kernel.processes],
                events_received=list(kernel.events_received),
            )
        return cls(
            snapshot=MachineSnapshot.capture(xen.machine),
            frame_info=xen.frames.copy_info(),
            p2m={d.id: list(d.p2m) for d in bed.all_domains()},
            dead={d.id: d.dead for d in bed.all_domains()},
            crashed=xen.crashed,
            crash_banner=xen.crash_banner,
            console=list(xen.console),
            audit=list(xen.audit),
            sched_ticks=sched._ticks,  # noqa: SLF001
            sched_trace=list(sched.trace),
            sched_pcpus=[copy.copy(p) for p in sched.pcpus],
            sched_accounts={
                key: copy.copy(account)
                for key, account in sched._accounts.items()  # noqa: SLF001
            },
            watches=list(xen.xenstore._watches),  # noqa: SLF001
            kernels=kernels,
            digest=machine_digest(xen.machine),
        )

    def restore(self, bed: "TestBed", verify: bool = True) -> int:
        """Roll ``bed`` back to this checkpoint, in place.

        Returns the number of machine words rewritten.  With ``verify``
        (the default) the restored machine is re-digested and compared
        against the capture-time digest; a mismatch raises
        :class:`CheckpointDiverged` *after* the python-level state has
        been restored — the machine itself is what diverged, so the bed
        must be discarded either way.
        """
        xen = bed.xen
        rewritten = self.snapshot.restore(xen.machine)
        xen.frames.restore_info(self.frame_info)
        xen.crashed = self.crashed
        xen.crash_banner = self.crash_banner
        xen.console = deque(self.console, maxlen=xen.console.maxlen)
        xen.audit = deque(self.audit, maxlen=xen.audit.maxlen)
        sched = xen.scheduler
        sched._ticks = self.sched_ticks  # noqa: SLF001
        sched.trace = list(self.sched_trace)
        sched.pcpus = [copy.copy(p) for p in self.sched_pcpus]
        sched._accounts = {  # noqa: SLF001
            key: copy.copy(account)
            for key, account in self.sched_accounts.items()
        }
        xen.xenstore._watches = list(self.watches)  # noqa: SLF001
        for domain in bed.all_domains():
            domain.p2m = list(self.p2m[domain.id])
            domain.dead = self.dead[domain.id]
            kernel = domain.kernel
            saved = self.kernels[domain.id]
            kernel._clock = saved.clock  # noqa: SLF001
            kernel._next_pid = saved.next_pid  # noqa: SLF001
            kernel.booted = saved.booted
            kernel._free_pfns = list(saved.free_pfns)  # noqa: SLF001
            kernel.log = list(saved.log)
            kernel.processes = [copy.copy(p) for p in saved.processes]
            kernel.events_received = list(saved.events_received)
        if verify:
            actual = machine_digest(xen.machine)
            if actual != self.digest:
                raise CheckpointDiverged(self.digest, actual)
        return rewritten

    def verify(self, bed: "TestBed") -> bool:
        """Does ``bed``'s machine currently match the capture digest?"""
        return machine_digest(bed.xen.machine) == self.digest
