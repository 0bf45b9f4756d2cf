"""Whole-testbed checkpoints for snapshot-cached job execution.

The fork-server (:mod:`repro.runner.forkserver`) boots one testbed per
(Xen version, topology) in each persistent worker, captures a
:class:`TestbedCheckpoint`, and starts every later matrix cell or fuzz
trial by *restoring* the checkpoint in place instead of rebuilding the
machine.  That only works if restore is an exact inverse of everything
a job can write, so the checkpoint covers every layer of the bed:

* **machine state** — every frame's words, the blob map and the frame
  allocator, via :class:`~repro.xen.snapshot.MachineSnapshot`;
* **hypervisor bookkeeping** — frame-table records, crash flags,
  console and audit rings, the domain map and next domain id, and the
  scheduler's accounting state;
* **inter-domain channels** — event channels, grant tables, xenstore
  values and watches, and the testbed network's listeners and
  connections;
* **domains and guest kernels** — P2M maps, ``dead``/``paused``, vCPU
  ``cr3`` and trap tables; kernel clocks, pid counters, free-page
  lists, logs, processes, received events, driver event handlers,
  exfiltrated ``loot`` and the filesystem.

Deep-copying a whole testbed is known-unsafe — clones share blob
identity with their template, so a job on the clone can corrupt the
template — which is why the protocol is capture-once /
restore-in-place, and the live objects themselves (domains, kernels,
the probe bus and its subscribers) are kept, not copied.  Every layer
is copied with a typed, flat copy instead (frame-table records through
:meth:`~repro.xen.frames.FrameTable.copy_info`), which is what keeps a
restore far cheaper than a cold boot.  Records the simulator replaces
rather than mutates (files, xenstore watches, event handlers, a
connection's shell) are shared; records it mutates in place are copied on capture and
again on every restore, so the bed never holds a container of the
checkpoint's.

Every restore rewrites only what the job touched, and finds it by
comparing, not by bookkeeping on the machine's write paths.
:meth:`MachineSnapshot.rollback <repro.xen.snapshot.MachineSnapshot.rollback>`
— the same rollback :class:`~repro.resilience.recovery.RecoveryManager`'s
microreboot uses — compares every live frame with the snapshot byte
for byte, rewrites the frames that differ, drops frames materialised
since the capture, and replaces the blob map and the allocator only
when they differ.  Frame-table records are Python objects, too costly
to compare on every restore, so the table alone keeps a dirty set:
capture begins a tracking *generation* on it, every record it hands
out is marked, and :meth:`~repro.xen.frames.FrameTable.restore_since`
rewrites those (or every record, when the table tracks another
generation).

Every restore is then verified against the capture, not against the
snapshot bytes, which may have rotted in the cache: the live frames
must be the ones materialised at capture, every rewritten frame must
hash to the sha1 recorded at capture, and every blob must fingerprint
as at capture.  A frame the rollback left alone equalled the snapshot
already, so rot in a snapshot frame can only reach the bed through a
rewrite, where the sha1 catches it.  A mismatch raises
:class:`CheckpointDiverged` — the caller (the fork-server's snapshot
cache) evicts the entry and falls back to a cold boot.  Only the
machine is verified: its snapshot bytes are the part of a cached entry
that can rot, while the Python layers are rebuilt from the
checkpoint's private copies on every restore.  That those layers and
the frame table's dirty set are complete is proved by tests — a bed
walk that compares a restored bed's whole object graph with a fresh
boot's, and a property over random mutator sequences — not by a check
on the hot path.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.net import Connection, Listener
from repro.xen.snapshot import MachineSnapshot, blob_fingerprint, machine_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.testbed import TestBed
    from repro.xen.domain import Domain
    from repro.xen.events import Channel
    from repro.xen.frames import PageInfo
    from repro.xen.granttable import GrantTable
    from repro.xen.machine import Machine


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
class _DomainState:
    """One domain's mutable state and its guest kernel's.

    Scalars and flat containers only.  Records the simulator replaces
    rather than mutates (files, event handlers, credentials) are
    shared with the checkpoint; records it mutates in place
    (processes) are copied.
    """

    p2m: list
    dead: bool
    paused: bool
    #: ``(cr3_mfn, trap_table)`` per vCPU.
    vcpus: List[Tuple[Optional[int], Dict[int, str]]]
    clock: float
    next_pid: int
    booted: bool
    free_pfns: List[int]
    log: List[str]
    processes: list
    events_received: List[int]
    event_handlers: Dict[int, Callable[[int], None]]
    loot: List[int]
    files: dict


def _flat_copy(record):
    """``copy.copy`` of a plain record (a scheduler ``PCpu`` or
    ``VcpuAccount``, a guest ``Process``) without the ``__reduce_ex__``
    round trip: a new instance sharing every field value."""
    clone = object.__new__(type(record))
    clone.__dict__.update(record.__dict__)
    return clone


def _frame_hashes(snapshot: MachineSnapshot) -> Dict[int, bytes]:
    return {
        mfn: hashlib.sha1(frame).digest()
        for mfn, frame in snapshot._frames.items()  # noqa: SLF001
    }


def _blob_prints(machine: "Machine") -> List[Tuple[Tuple[int, int], str]]:
    return sorted(
        (key, blob_fingerprint(blob))
        for key, blob in machine._blobs.items()  # noqa: SLF001
    )


def _copy_network(
    listeners: Dict[Tuple[str, int], Listener], connections: List[Connection]
) -> Tuple[Dict[Tuple[str, int], Listener], List[Connection]]:
    """Private copies of a network's listeners and connections.

    A connection sits on both its listener and the network's list, so
    each is copied once and both lists point at the copy.
    """
    copies: Dict[int, Connection] = {}

    def copy_of(conn: Connection) -> Connection:
        copied = copies.get(id(conn))
        if copied is None:
            copied = copies[id(conn)] = Connection(
                conn.from_host, conn.to_host, conn.port, conn.shell,
                list(conn.transcript),
            )
        return copied

    return (
        {
            key: Listener(lis.host, lis.port, [copy_of(c) for c in lis.connections])
            for key, lis in listeners.items()
        },
        [copy_of(c) for c in connections],
    )


@dataclass
class TestbedCheckpoint:
    """One consistent, restorable view of a whole testbed."""

    __test__ = False  # "Test*" name, but not a pytest test class

    snapshot: MachineSnapshot
    frame_info: Dict[int, "PageInfo"]
    crashed: bool
    crash_banner: Optional[str]
    console: List[str]
    audit: List[Tuple[int, int, int]]
    domains: Dict[int, "Domain"]
    next_domid: int
    sched_ticks: int
    sched_trace: list
    sched_pcpus: list
    sched_accounts: dict
    channels: Dict[Tuple[int, int], "Channel"]
    next_port: Dict[int, int]
    pending: Dict[int, List[int]]
    grant_tables: Dict[int, "GrantTable"]
    xenstore_values: Dict[str, str]
    watches: list
    listeners: Dict[Tuple[str, int], Listener]
    connections: List[Connection]
    domain_states: Dict[int, _DomainState]
    #: Machine digest at capture time — what a faithful restore must
    #: reproduce, byte for byte.
    digest: str
    #: sha1 of every snapshot frame's bytes at capture time, so a
    #: rewritten frame is checked against the capture, not against
    #: snapshot bytes that may have rotted since.
    frame_hashes: Dict[int, bytes]
    #: ``((mfn, word), fingerprint)`` of every blob at capture time.
    blob_prints: List[Tuple[Tuple[int, int], str]]
    #: Token of the dirty-tracking generation the capture began on the
    #: frame table.
    generation: object

    @classmethod
    def capture(cls, bed: "TestBed") -> "TestbedCheckpoint":
        xen = bed.xen
        sched = xen.scheduler
        events = xen.events
        states: Dict[int, _DomainState] = {}
        for domain in bed.all_domains():
            kernel = domain.kernel
            states[domain.id] = _DomainState(
                p2m=list(domain.p2m),
                dead=domain.dead,
                paused=domain.paused,
                vcpus=[(v.cr3_mfn, dict(v.trap_table)) for v in domain.vcpus],
                clock=kernel._clock,  # noqa: SLF001 — checkpointing is privileged
                next_pid=kernel._next_pid,  # noqa: SLF001
                booted=kernel.booted,
                free_pfns=list(kernel._free_pfns),  # noqa: SLF001
                log=list(kernel.log),
                processes=[_flat_copy(p) for p in kernel.processes],
                events_received=list(kernel.events_received),
                event_handlers=dict(kernel._event_handlers),  # noqa: SLF001
                loot=list(kernel.loot),
                files=dict(kernel.fs._files),  # noqa: SLF001
            )
        listeners, connections = _copy_network(
            bed.network._listeners, bed.network.connections  # noqa: SLF001
        )
        snapshot = MachineSnapshot.capture(xen.machine)
        generation = object()
        xen.frames.begin_generation(generation)
        return cls(
            snapshot=snapshot,
            frame_info=xen.frames.copy_info(),
            crashed=xen.crashed,
            crash_banner=xen.crash_banner,
            console=list(xen.console),
            audit=list(xen.audit),
            domains=dict(xen.domains),
            next_domid=xen.next_domid,
            sched_ticks=sched._ticks,  # noqa: SLF001
            sched_trace=list(sched.trace),
            sched_pcpus=[_flat_copy(p) for p in sched.pcpus],
            sched_accounts={
                key: _flat_copy(account)
                for key, account in sched._accounts.items()  # noqa: SLF001
            },
            channels={
                key: ch.copy() for key, ch in events._channels.items()  # noqa: SLF001
            },
            next_port=dict(events._next_port),  # noqa: SLF001
            pending={d: list(q) for d, q in events.pending.items()},
            grant_tables={d: t.copy() for d, t in xen.grants.tables.items()},
            xenstore_values=dict(xen.xenstore._values),  # noqa: SLF001
            watches=list(xen.xenstore._watches),  # noqa: SLF001
            listeners=listeners,
            connections=connections,
            domain_states=states,
            digest=machine_digest(xen.machine),
            frame_hashes=_frame_hashes(snapshot),
            blob_prints=_blob_prints(xen.machine),
            generation=generation,
        )

    def restore(self, bed: "TestBed") -> int:
        """Roll ``bed`` back to this checkpoint, in place.

        Returns the number of machine words rewritten.  The machine is
        rolled back by :meth:`MachineSnapshot.rollback
        <repro.xen.snapshot.MachineSnapshot.rollback>`, which rewrites
        only the frames whose bytes differ from the snapshot; the frame
        table by :meth:`FrameTable.restore_since
        <repro.xen.frames.FrameTable.restore_since>`, which rewrites
        the records handed out since the capture (or this checkpoint's
        last restore).  Every Python layer is replaced with a fresh copy
        of the checkpoint's, so no container is ever shared between the
        bed and the checkpoint.  The machine is then verified
        (:meth:`_verify`); a mismatch raises :class:`CheckpointDiverged`
        *after* the rest of the bed has been restored — the bed must be
        discarded either way.
        """
        xen = bed.xen
        machine = xen.machine
        rewritten, frames = self.snapshot.rollback(machine)
        xen.frames.restore_since(self.frame_info, self.generation)
        xen.crashed = self.crashed
        xen.crash_banner = self.crash_banner
        xen.console = deque(self.console, maxlen=xen.console.maxlen)
        xen.audit = deque(self.audit, maxlen=xen.audit.maxlen)
        xen.domains = dict(self.domains)
        xen.next_domid = self.next_domid
        sched = xen.scheduler
        sched._ticks = self.sched_ticks  # noqa: SLF001
        sched.trace = list(self.sched_trace)
        sched.pcpus = [_flat_copy(p) for p in self.sched_pcpus]
        sched._accounts = {  # noqa: SLF001
            key: _flat_copy(account)
            for key, account in self.sched_accounts.items()
        }
        events = xen.events
        events._channels = {  # noqa: SLF001
            key: ch.copy() for key, ch in self.channels.items()
        }
        events._next_port = dict(self.next_port)  # noqa: SLF001
        events.pending = {d: list(q) for d, q in self.pending.items()}
        xen.grants.tables = {d: t.copy() for d, t in self.grant_tables.items()}
        xen.xenstore._values = dict(self.xenstore_values)  # noqa: SLF001
        xen.xenstore._watches = list(self.watches)  # noqa: SLF001
        network = bed.network
        network._listeners, network.connections = _copy_network(  # noqa: SLF001
            self.listeners, self.connections
        )
        for domain in bed.all_domains():
            saved = self.domain_states[domain.id]
            domain.p2m = list(saved.p2m)
            domain.dead = saved.dead
            domain.paused = saved.paused
            for vcpu, (cr3_mfn, trap_table) in zip(domain.vcpus, saved.vcpus):
                vcpu.cr3_mfn = cr3_mfn
                vcpu.trap_table = dict(trap_table)
            kernel = domain.kernel
            kernel._clock = saved.clock  # noqa: SLF001
            kernel._next_pid = saved.next_pid  # noqa: SLF001
            kernel.booted = saved.booted
            kernel._free_pfns = list(saved.free_pfns)  # noqa: SLF001
            kernel.log = list(saved.log)
            kernel.processes = [_flat_copy(p) for p in saved.processes]
            kernel.events_received = list(saved.events_received)
            kernel._event_handlers = dict(saved.event_handlers)  # noqa: SLF001
            kernel.loot = list(saved.loot)
            kernel.fs._files = dict(saved.files)  # noqa: SLF001
        self._verify(machine, frames)
        return rewritten

    def _verify(self, machine: "Machine", rewritten: List[int]) -> None:
        """Raise :class:`CheckpointDiverged` unless ``machine`` holds
        exactly the capture-time state.

        The live frames must be the ones materialised at capture, every
        rewritten frame must hash to its capture-time sha1, and every
        blob must fingerprint as at capture.  A frame the rollback left
        alone already equalled the snapshot byte for byte, so the only
        way rot in a snapshot frame reaches the bed is by a rewrite,
        and the sha1 catches it there.  The whole machine digest is
        computed only to report a divergence.
        """
        live = machine._frames  # noqa: SLF001 — verifying is privileged
        hashes = self.frame_hashes
        if (
            live.keys() == hashes.keys()
            and all(
                hashlib.sha1(live[mfn]).digest() == hashes.get(mfn)
                for mfn in rewritten
            )
            and _blob_prints(machine) == self.blob_prints
        ):
            return
        raise CheckpointDiverged(self.digest, machine_digest(machine))
