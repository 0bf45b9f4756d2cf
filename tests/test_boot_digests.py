"""Booted machine state against committed digests.

The parity digests pin what a plan computes; they say nothing about
the raw machine a boot leaves behind.  ``tests/data/boot_digests.json``
does: for every Xen version it holds the ``machine_digest`` of
``build_testbed`` in the default and the cross-domain topology, and of
a bare ``Xen(version, Machine(256))``.  A change to how the boot writes
memory must reproduce every entry exactly.

Regenerate (only when what a boot writes is meant to change, and say
why in CHANGES.md)::

    PYTHONPATH=src:. python -m tests.test_boot_digests > tests/data/boot_digests.json
"""

import json
import pathlib

import pytest

from repro.core.testbed import build_testbed
from repro.core.topology import CROSS_DOMAIN_TOPOLOGY
from repro.xen.hypervisor import Xen
from repro.xen.machine import Machine
from repro.xen.snapshot import machine_digest
from repro.xen.versions import ALL_VERSIONS

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "boot_digests.json"

#: How each entry's machine is booted, by shape name.
BOOTS = {
    "default": lambda version: build_testbed(version).xen.machine,
    "cross-domain": lambda version: build_testbed(
        version, topology=CROSS_DOMAIN_TOPOLOGY
    ).xen.machine,
    "bare": lambda version: Xen(version, Machine(256)).machine,
}


def boot_digests() -> dict:
    return {
        version.name: {
            shape: machine_digest(boot(version)) for shape, boot in BOOTS.items()
        }
        for version in ALL_VERSIONS
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_covers_every_version_and_shape():
    assert set(GOLDEN) == {version.name for version in ALL_VERSIONS}
    for shapes in GOLDEN.values():
        assert set(shapes) == set(BOOTS)


@pytest.mark.parametrize("version", ALL_VERSIONS, ids=lambda v: v.name)
@pytest.mark.parametrize("shape", sorted(BOOTS))
def test_boot_reproduces_the_golden_machine(version, shape):
    assert machine_digest(BOOTS[shape](version)) == GOLDEN[version.name][shape]


if __name__ == "__main__":
    print(json.dumps(boot_digests(), indent=2, sort_keys=True))
