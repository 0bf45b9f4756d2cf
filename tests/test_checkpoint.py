"""Restore completeness: a checkpoint rolls back every layer a job writes.

The fork-server serves matrix cells and fuzz trials from one warm bed
per (version, topology), restored to its boot-time
:class:`~repro.core.checkpoint.TestbedCheckpoint` before every job.
The restore verifies only the machine, so the proof that the Python
layers (event channels, grant tables, xenstore, the network, guest
kernels, ...) are complete is this test: after any cell, the restored
bed's canonical walk equals a freshly booted bed's.  The restore also
rewrites only what changed: machine frames whose bytes differ from the
snapshot, and the frame-table records the table handed out since the
capture.  A property over random mutator sequences checks that this
covers every public mutator, and a direct poke at a frame that
bypasses every write path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import Campaign, Mode
from repro.core.checkpoint import TestbedCheckpoint
from repro.core.fuzz import RandomErroneousStateCampaign, default_components
from repro.core.injections import resolve
from repro.core.injections.registry import registered_names
from repro.core.testbed import build_testbed
from repro.core.topology import CROSS_DOMAIN_TOPOLOGY, DEFAULT_TOPOLOGY
from repro.xen.constants import WORDS_PER_PAGE
from repro.xen.frames import PageType
from repro.xen.snapshot import machine_digest
from repro.xen.versions import ALL_VERSIONS, XEN_4_6, XEN_4_13
from tests.bed_walk import differences, walk
from tests.conftest import frame_table

TOPOLOGIES = {"default": DEFAULT_TOPOLOGY, "cross-domain": CROSS_DOMAIN_TOPOLOGY}

CELLS = [
    pytest.param(name, version, mode, topology, False,
                 id=f"{name}-{version.name}-{mode.value}-{topology}")
    for name in registered_names()
    for version in ALL_VERSIONS
    for mode in Mode
    for topology in TOPOLOGIES
] + [
    pytest.param(name, XEN_4_6, mode, "default", True,
                 id=f"{name}-{XEN_4_6.name}-{mode.value}-recover")
    for name in registered_names()
    for mode in Mode
]


def assert_restores_to_fresh(bed, checkpoint, fresh) -> None:
    checkpoint.restore(bed)
    leaked = differences(walk(bed), walk(fresh))
    assert not leaked, "restore left state behind:\n" + "\n".join(leaked[:20])


@pytest.mark.parametrize("name, version, mode, topology, recover", CELLS)
def test_cell_restores_to_a_fresh_boot(name, version, mode, topology, recover):
    shape = TOPOLOGIES[topology]
    bed = build_testbed(version, topology=shape)
    checkpoint = TestbedCheckpoint.capture(bed)
    Campaign(testbed_factory=lambda _version: bed, recover=recover).run(
        resolve(name), version, mode
    )
    assert_restores_to_fresh(bed, checkpoint, build_testbed(version, topology=shape))


@pytest.mark.parametrize("component", [c.name for c in default_components()])
def test_fuzz_trials_restore_to_a_fresh_boot(component):
    campaign = RandomErroneousStateCampaign(XEN_4_6)
    target = campaign.component_by_name(component)
    bed = build_testbed(XEN_4_6)
    checkpoint = TestbedCheckpoint.capture(bed)
    fresh = build_testbed(XEN_4_6)
    for seed in range(8):
        campaign.run_trial_on(bed, target, seed)
        assert_restores_to_fresh(bed, checkpoint, fresh)


def test_walk_sees_python_layer_leaks():
    """The walk is what this file relies on: it must notice a layer the
    machine digest cannot see."""
    bed, fresh = build_testbed(XEN_4_6), build_testbed(XEN_4_6)
    assert differences(walk(bed), walk(fresh)) == []
    bed.xen.xenstore._values["/local/domain/0/leak"] = "1"
    bed.network.listen("xen2", 1234)
    leaked = differences(walk(bed), walk(fresh))
    assert any("xenstore._values" in line for line in leaked)
    assert any("network._listeners" in line for line in leaked)


def test_restored_layers_share_no_container_with_the_checkpoint():
    bed = build_testbed(XEN_4_6, topology=CROSS_DOMAIN_TOPOLOGY)
    checkpoint = TestbedCheckpoint.capture(bed)
    Campaign(testbed_factory=lambda _version: bed).run(
        resolve("xdom-ring-tamper"), XEN_4_6, Mode.EXPLOIT
    )
    checkpoint.restore(bed)
    # Dirty the restored bed in place; the checkpoint must not notice.
    bed.xen.events._next_port[0] = 99
    bed.xen.events.pending.setdefault(0, []).append(1)
    bed.xen.grants.table(bed.dom0).entries.append(None)
    bed.network.connections.append(None)
    bed.dom0.kernel.loot.append(1)
    bed.dom0.current_vcpu.trap_table[99] = "leak"
    assert_restores_to_fresh(
        bed, checkpoint, build_testbed(XEN_4_6, topology=CROSS_DOMAIN_TOPOLOGY)
    )


class _Blob:
    def __init__(self, tag: int):
        self.tag = tag


_MUTATORS = (
    "write", "blob", "zero", "copy", "alloc", "free", "record", "assign", "release", "poke",
)
_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(_MUTATORS),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=2**64 - 1),
    ),
    max_size=12,
)


def _mutate(bed, mutations) -> None:
    """Apply ``(mutator, a, b, value)`` steps through the public
    ``Machine`` and ``FrameTable`` mutators, or a ``poke`` straight into
    ``Machine._frames`` that bypasses every write path, over booted
    frames and a few frames no boot touched."""
    machine, frames = bed.xen.machine, bed.xen.frames
    mfns = sorted(machine._frames) + [machine.num_frames - 1 - i for i in range(4)]
    for name, a, b, value in mutations:
        mfn, other = mfns[a % len(mfns)], mfns[b % len(mfns)]
        index = b % WORDS_PER_PAGE
        if name == "write":
            machine.write_word(mfn, index, value)
        elif name == "blob":
            machine.attach_blob(mfn, index, _Blob(value))
        elif name == "zero":
            machine.zero_frame(mfn)
        elif name == "copy":
            machine.copy_frame(mfn, other)
        elif name == "alloc":
            machine.alloc_frame()
        elif name == "free":
            allocated = sorted(machine._allocated)
            machine.free_frame(allocated[a % len(allocated)])
        elif name == "record":
            record = frames.info(mfn)
            record.count += 1 + value % 3
            record.pinned = not record.pinned
            record.type = list(PageType)[value % len(PageType)]
        elif name == "assign":
            frames.assign(mfn, value % 4, pfn=b)
        elif name == "poke":
            machine._frames.setdefault(mfn, np.zeros(WORDS_PER_PAGE, dtype=np.uint64))
            machine._frames[mfn][index] = np.uint64(value)
        else:
            record = frames.info(mfn)
            record.count = record.type_count = 0
            frames.release(mfn)


def _machine_and_table(bed):
    machine = bed.xen.machine
    return (
        machine_digest(machine),
        list(machine._blobs.items()),
        list(machine._free),
        set(machine._allocated),
        list(frame_table(bed).items()),
    )


@given(rounds=st.lists(_MUTATIONS, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_restore_undoes_any_mutator_sequence(rounds):
    """Whatever the mutators write, restore puts back exactly the
    capture: words, blobs, allocator and frame table (key order too),
    and counts exactly the words it rewrote."""
    bed = build_testbed(XEN_4_13)
    checkpoint = TestbedCheckpoint.capture(bed)
    captured = _machine_and_table(bed)
    for mutations in rounds:
        _mutate(bed, mutations)
        changed = checkpoint.snapshot.changed_words(bed.xen.machine)
        assert checkpoint.restore(bed) == changed
        assert _machine_and_table(bed) == captured
