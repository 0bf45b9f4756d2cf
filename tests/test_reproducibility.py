"""Reproducibility guarantees: identical inputs → identical results.

Scientific claims rest on re-runnable experiments; these tests pin
down that the simulator is fully deterministic (no hidden randomness)
so every table in EXPERIMENTS.md regenerates bit-identically.
"""

import hashlib
import json

import pytest

from repro.core.campaign import Campaign, Mode
from repro.core.comparison import compare_runs
from repro.core.testbed import build_testbed
from repro.core.topology import CROSS_DOMAIN_TOPOLOGY
from repro.exploits import USE_CASES, XSA148Priv
from repro.xen.snapshot import machine_digest
from repro.xen.versions import XEN_4_6, XEN_4_8, XEN_4_13, version_by_name


class TestDeterminism:
    def test_testbed_layout_is_deterministic(self):
        a = build_testbed(XEN_4_8)
        b = build_testbed(XEN_4_8)
        assert [d.id for d in a.all_domains()] == [d.id for d in b.all_domains()]
        assert a.dom0.p2m == b.dom0.p2m
        assert a.xen.idt_mfns == b.xen.idt_mfns
        assert a.xen.xen_pud_mfn == b.xen.xen_pud_mfn

    @pytest.mark.parametrize("use_case", USE_CASES, ids=lambda u: u.name)
    def test_runs_repeat_identically(self, use_case):
        campaign = Campaign()
        first = campaign.run(use_case, XEN_4_6, Mode.INJECTION)
        second = campaign.run(use_case, XEN_4_6, Mode.INJECTION)
        assert first.erroneous_state.fingerprint == second.erroneous_state.fingerprint
        assert first.erroneous_state.evidence == second.erroneous_state.evidence
        assert first.violation.kind == second.violation.kind
        assert first.guest_log == second.guest_log

    def test_table3_repeats_identically(self):
        campaign = Campaign()
        first = campaign.table3_runs(USE_CASES, (XEN_4_8, XEN_4_13))
        second = campaign.table3_runs(USE_CASES, (XEN_4_8, XEN_4_13))
        for key in first:
            assert (
                first[key].erroneous_state.achieved,
                first[key].violation.occurred,
            ) == (
                second[key].erroneous_state.achieved,
                second[key].violation.occurred,
            )

    def test_exploit_injection_comparison_stable(self):
        campaign = Campaign()
        verdicts = []
        for _ in range(2):
            exploit = campaign.run(XSA148Priv, XEN_4_6, Mode.EXPLOIT)
            injection = campaign.run(XSA148Priv, XEN_4_6, Mode.INJECTION)
            verdicts.append(compare_runs(exploit, injection).equivalent)
        assert verdicts == [True, True]

    def test_machine_allocation_is_deterministic(self):
        from repro.xen.machine import Machine

        a = Machine(64)
        b = Machine(64)
        assert a.alloc_frames(10) == b.alloc_frames(10)


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


#: Machine digest, hash of the sorted frame-table records and hash of
#: the per-domain p2m of a fresh ``build_testbed``, for the default
#: and the stock cross-domain topology.  Any change to the boot path
#: (validation and its page-table scans included) must leave these
#: exactly as they are.
_FRAMES_DEFAULT = "057082fd2beb6d06686a44f41efcae83410b299244a4baa77f63f33358104a5e"
_P2M_DEFAULT = "174bd8fe1c7fc5a7d183ed43030f32b5ceb3a78377601b68f5cfbfe6024ae050"
_FRAMES_XDOM = "1f4914526b6ac9681831fe9e66a6349a5417b51a3b8ed1d0d4802f99b843ef2a"
_P2M_XDOM = "8768ade1d7b5e37b32eedbcdbeb6152eaa17c15a27c0d65f46713647b68dc865"
BOOT_FINGERPRINTS = {
    ("4.6", "default"): (
        "86f08c5c3ac8065823d26ee441e1cfddadbe5292", _FRAMES_DEFAULT, _P2M_DEFAULT,
    ),
    ("4.8", "default"): (
        "86f08c5c3ac8065823d26ee441e1cfddadbe5292", _FRAMES_DEFAULT, _P2M_DEFAULT,
    ),
    ("4.13", "default"): (
        "10b312b0d36b03174936bda791fd4ad36e4837d5", _FRAMES_DEFAULT, _P2M_DEFAULT,
    ),
    ("4.6", "cross-domain"): (
        "d011c73aa4be36e113f24268320e4407c6c8352b", _FRAMES_XDOM, _P2M_XDOM,
    ),
    ("4.8", "cross-domain"): (
        "d011c73aa4be36e113f24268320e4407c6c8352b", _FRAMES_XDOM, _P2M_XDOM,
    ),
    ("4.13", "cross-domain"): (
        "172459e6913fd4787490e11029acf8207d912e5a", _FRAMES_XDOM, _P2M_XDOM,
    ),
}


class TestBootFingerprint:
    @pytest.mark.parametrize(
        "version,topology", sorted(BOOT_FINGERPRINTS), ids="-".join
    )
    def test_fresh_boot_is_pinned(self, version, topology):
        bed = build_testbed(
            version_by_name(version),
            topology=CROSS_DOMAIN_TOPOLOGY if topology == "cross-domain" else None,
        )
        records = [
            [
                r.mfn, r.owner, r.count, r.type.value, r.type_count,
                r.validated, r.pinned, r.pfn,
            ]
            for _, r in sorted(bed.xen.frames.copy_info().items())
        ]
        p2m = {domain.name: domain.p2m for domain in bed.all_domains()}
        assert (
            machine_digest(bed.xen.machine), _sha256(records), _sha256(p2m)
        ) == BOOT_FINGERPRINTS[(version, topology)]
