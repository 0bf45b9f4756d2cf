"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.core.testbed import TestBed, build_testbed
from repro.guest.kernel import GuestKernel
from repro.runner.store import ResultStore
from repro.xen.frames import PageType
from repro.xen.hypervisor import Xen
from repro.xen.machine import Machine
from repro.xen.versions import XEN_4_6, XEN_4_8, XEN_4_13

ALL_VERSIONS = (XEN_4_6, XEN_4_8, XEN_4_13)
FIXED_VERSIONS = (XEN_4_8, XEN_4_13)


@pytest.fixture
def machine() -> Machine:
    return Machine(512)


@pytest.fixture
def xen46() -> Xen:
    return Xen(XEN_4_6, Machine(512))


@pytest.fixture
def xen48() -> Xen:
    return Xen(XEN_4_8, Machine(512))


@pytest.fixture
def xen413() -> Xen:
    return Xen(XEN_4_13, Machine(512))


@pytest.fixture(params=ALL_VERSIONS, ids=lambda v: f"xen-{v.name}")
def any_version(request):
    """Parametrised over the three evaluated Xen versions."""
    return request.param


@pytest.fixture
def xen(any_version) -> Xen:
    return Xen(any_version, Machine(512))


def make_guest(xen: Xen, name: str = "guest", pages: int = 32, privileged=False):
    domain = xen.create_domain(name, num_pages=pages, is_privileged=privileged)
    kernel = GuestKernel(xen, domain)
    kernel.boot()
    return domain


@pytest.fixture
def guest(xen):
    """A booted guest on the parametrised hypervisor."""
    return make_guest(xen)


@pytest.fixture
def bed46() -> TestBed:
    return build_testbed(XEN_4_6)


@pytest.fixture
def bed48() -> TestBed:
    return build_testbed(XEN_4_8)


@pytest.fixture
def bed413() -> TestBed:
    return build_testbed(XEN_4_13)


@pytest.fixture(params=ALL_VERSIONS, ids=lambda v: f"bed-{v.name}")
def bed(request) -> TestBed:
    """A full testbed, parametrised over all three versions."""
    return build_testbed(request.param)


def frame_table(bed: TestBed) -> dict:
    """The bed's frame table as plain ``{mfn: {field: value}}`` data."""
    return {mfn: asdict(record) for mfn, record in bed.xen.frames._info.items()}


def churn_frames(bed: TestBed) -> None:
    """Move the frame table the ways trials do: unpin a page-table
    root, pin and retype other frames, take references, and grow the
    table with a record for a frame no boot touched."""
    frames = bed.xen.frames
    info = frames._info
    pinned = next(mfn for mfn, r in sorted(info.items()) if r.pinned)
    frames.unpin(pinned)
    owned = [
        mfn for mfn, r in sorted(info.items())
        if r.owner == 1 and r.type == PageType.NONE
    ]
    frames.pin(owned[0], PageType.L1, None)
    frames.get_page(owned[1], 1)
    frames.get_page_type(owned[1], PageType.WRITABLE)
    frames.get_page(owned[2], 1)
    untouched = bed.xen.machine.num_frames - 1
    assert untouched not in info
    frames.assign(untouched, 2, pfn=7)


class CommitCountingStore(ResultStore):
    """A result store that counts its real commits.

    Only a commit that closes an open transaction counts: committing
    with nothing pending writes nothing to disk.
    """

    def __init__(self, *args, **kwargs):
        self.commits = 0
        super().__init__(*args, **kwargs)

    def _commit(self) -> None:
        if self._conn.in_transaction:
            self.commits += 1
        super()._commit()
