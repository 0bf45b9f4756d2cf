"""Synthetic use cases: corpus specs as first-class ``UseCase``\\ s.

:func:`make_use_case` turns a :class:`~repro.vulngen.corpus.VulnSpec`
into a class satisfying the exact contract the four hand-written XSA
use cases satisfy — no-arg construction, class-level ``name`` /
``advisory`` / ``functionality``, ``run_exploit`` / ``run_injection``
twins, audit and detection — so ``Campaign.run``, ``inject_by_name``
and the runner execute synthetic vulnerabilities through the very same
code path as the real ones.

The twins mirror the paper's asymmetry:

* ``run_exploit`` models abusing the synthetic defect itself, so it
  checks the spec's :class:`~repro.vulngen.corpus.VersionGate` first
  and refuses (``ExploitFailed``) on builds where the anchoring
  advisory is fixed;
* ``run_injection`` recreates the post-intrusion erroneous state with
  the ``arbitrary_access`` injector and therefore works on *every*
  version — that substitutability is the paper's core claim.

Each taxonomy class maps to an injection template (DESIGN.md §11):

=====================  ==============================================
class                  erroneous state injected
=====================  ==============================================
missing-ownership      attacker-chosen word in a victim-owned frame
                       (physical-mode write)
missing-privilege      attacker-chosen word in hypervisor-reserved
                       memory (linear-mode write via the directmap)
refcount-imbalance     a writable L1 alias of a live page-table frame
                       (the retype a get/put imbalance permits)
bounds-error           a span write that crosses the target frame's
                       boundary into its neighbour
toctou-window          a validated word whose content flips after a
                       scheduling tick (decoy write, tick, real write)
=====================  ==============================================

:func:`run_synthetic_trial` is the fuzz-side entry point: one spec +
one mutation + one private seed -> one classified
:class:`~repro.core.fuzz.FuzzResult`, optionally with the trial's
coverage signature attached (the coverage-guided scheduler's raw
material).  It boots a fresh testbed; :func:`run_synthetic_trial_on`
runs the same trial on a bed the caller provides, which is how the
job interpreter runs it on a leased bed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import types as _types

from repro.core.erroneous_state import ErroneousStateReport
from repro.core.fuzz import FuzzResult, RandomErroneousStateCampaign, default_components
from repro.core.injector import ArbitraryAccessAction, IntrusionInjector
from repro.core.monitor import (
    CrashMonitor,
    IdtIntegrityMonitor,
    ViolationReport,
)
from repro.core.testbed import build_testbed
from repro.errors import GuestFault, HypervisorCrash
from repro.exploits.base import ExploitFailed, UseCase
from repro.guest.kernel import KernelOops
from repro.vulngen.corpus import VulnSpec
from repro.vulngen.taxonomy import CLASS_FUNCTIONALITY, VulnClass
from repro.xen import layout
from repro.xen.constants import PAGE_SIZE, PTE_PRESENT, PTE_RW
from repro.xen.paging import make_pte

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.testbed import TestBed
    from repro.xen.versions import XenVersion

_MASK64 = (1 << 64) - 1


def _component_frames(bed: "TestBed", component: str) -> List[int]:
    """Resolve a component name to its candidate frames, reusing the
    fuzz campaign's selector table so the vocabularies stay aligned."""
    for target in default_components():
        if target.name == component:
            return list(target.frames(bed))
    raise KeyError(f"unknown component {component!r}")


class SyntheticUseCase(UseCase, register=False):
    """Base of all generated use cases (never instantiated directly).

    Subclasses produced by :func:`make_use_case` bind ``spec`` at class
    level; everything else — target resolution, the per-class write
    plan, audit, detection — is shared here.  ``register=False``: a
    synthetic id resolves through the corpus (it *is* its own spec),
    so the global registry stays bounded by the hand-written cases.
    """

    spec: VulnSpec

    def __init__(self) -> None:
        self.target_mfn: Optional[int] = None
        #: The final expected erroneous words: ``[(mfn, word, value)]``.
        self.writes: List[Tuple[int, int, int]] = []
        #: Did the injected values differ from what was there before?
        self.changed: bool = False

    # ------------------------------------------------------------------
    # Write plan
    # ------------------------------------------------------------------

    def _plan(self, bed: "TestBed") -> List[Tuple[int, int, int]]:
        """The erroneous words this spec leaves behind (final state)."""
        spec = self.spec
        frames = _component_frames(bed, spec.component)
        mfn = frames[spec.frame_pick % len(frames)]
        self.target_mfn = mfn
        if spec.vuln_class is VulnClass.BOUNDS_ERROR:
            return [
                (
                    mfn + (spec.word + i) // 512,
                    (spec.word + i) % 512,
                    (spec.value + i) & _MASK64,
                )
                for i in range(spec.span)
            ]
        if spec.vuln_class is VulnClass.REFCOUNT_IMBALANCE:
            # The consequence of the imbalance: a writable alias of the
            # live page-table frame, parked in a victim L1 slot.
            victim = bed.victim_domain
            alias_slot_frame = victim.pfn_to_mfn(victim.kernel.l1_pfns[0])
            alias = make_pte(mfn, PTE_PRESENT | PTE_RW)
            return [(alias_slot_frame, spec.word, alias)]
        return [(mfn, spec.word, spec.value)]

    def _record(self, bed: "TestBed", plan: List[Tuple[int, int, int]]) -> None:
        previous = [bed.xen.machine.read_word(m, w) for m, w, _ in plan]
        self.writes = list(plan)
        self.changed = any(p != v for p, (_, _, v) in zip(previous, plan))

    # ------------------------------------------------------------------
    # Exploit / injection twins
    # ------------------------------------------------------------------

    def run_exploit(self, bed: "TestBed") -> None:
        """Abuse the synthetic defect (present only while the gate's
        anchoring advisory is unfixed on this build)."""
        kernel = bed.attacker_domain.kernel
        spec = self.spec
        if not spec.gate.applies(bed.xen.version):
            kernel.printk(
                f"{spec.id}: not vulnerable ({spec.gate.advisory} "
                "family is fixed on this version)"
            )
            raise ExploitFailed(
                f"synthetic defect {spec.id} absent on {bed.xen.version.name}"
            )
        plan = self._plan(bed)
        self._record(bed, plan)
        kernel.printk(
            f"{spec.id}: abusing {spec.vuln_class.value} defect in "
            f"{spec.component} ({spec.gate.advisory} family)"
        )
        if spec.vuln_class is VulnClass.TOCTOU_WINDOW:
            mfn, word, value = plan[0]
            bed.xen.machine.write_word(mfn, word, value ^ _MASK64)
            bed.tick()  # the check/use window
            bed.xen.machine.write_word(mfn, word, value)
            return
        for mfn, word, value in plan:
            bed.xen.machine.write_word(mfn, word, value)

    def run_injection(self, bed: "TestBed") -> None:
        """Recreate the same erroneous state with ``arbitrary_access``
        — works on every version, that is the injector's point."""
        kernel = bed.attacker_domain.kernel
        spec = self.spec
        plan = self._plan(bed)
        self._record(bed, plan)
        injector = IntrusionInjector(kernel)
        kernel.printk(
            f"{spec.id}: injecting {spec.vuln_class.value} erroneous "
            f"state into {spec.component}"
        )
        if spec.vuln_class is VulnClass.MISSING_PRIVILEGE_CHECK:
            mfn, word, value = plan[0]
            rc = injector.write_word(layout.directmap_va(mfn, word), value)
        elif spec.vuln_class is VulnClass.BOUNDS_ERROR:
            base_mfn, base_word, _ = plan[0]
            rc = injector.write(
                base_mfn * PAGE_SIZE + base_word * 8,
                [value for _, _, value in plan],
                ArbitraryAccessAction.WRITE_PHYSICAL,
            )
        elif spec.vuln_class is VulnClass.TOCTOU_WINDOW:
            mfn, word, value = plan[0]
            addr = layout.directmap_va(mfn, word)
            rc = injector.write_word(addr, value ^ _MASK64)
            if rc == 0:
                bed.tick()  # the check/use window
                rc = injector.write_word(addr, value)
        else:  # ownership / refcount: physical-mode single word
            mfn, word, value = plan[0]
            rc = injector.write_word(mfn * PAGE_SIZE + word * 8, value, linear=False)
        if rc != 0:
            raise ExploitFailed(f"arbitrary_access failed: rc={rc}")

    # ------------------------------------------------------------------
    # Audit / detection
    # ------------------------------------------------------------------

    def audit_erroneous_state(self, bed: "TestBed") -> ErroneousStateReport:
        spec = self.spec
        if not self.writes:
            self._record(bed, self._plan(bed))
        readback = [
            (m, w, v, bed.xen.machine.read_word(m, w)) for m, w, v in self.writes
        ]
        achieved = all(found == v for _, _, v, found in readback)
        return ErroneousStateReport(
            achieved=achieved,
            description=(
                f"{spec.vuln_class.value} erroneous state in {spec.component}"
            ),
            fingerprint={
                "class": spec.vuln_class.value,
                "component": spec.component,
                "word": spec.word,
                "span": spec.span,
                "values": [f"{v:#018x}" for _, _, v in self.writes],
            },
            evidence=[
                f"mfn {m:#06x}[{w}] = {found:#018x} (expected {v:#018x})"
                for m, w, v, found in readback
            ],
        )

    def detect_violation(self, bed: "TestBed") -> ViolationReport:
        crash = CrashMonitor().observe(bed)
        if crash.occurred:
            return crash
        if self.spec.component == "idt":
            idt = IdtIntegrityMonitor().observe(bed)
            if idt.occurred:
                return idt
        victim_frames = {m for m in bed.victim_domain.p2m if m is not None}
        corrupted = [
            (m, w, v)
            for m, w, v in self.writes
            if m in victim_frames and bed.xen.machine.read_word(m, w) == v
        ]
        if self.changed and corrupted:
            return ViolationReport(
                occurred=True,
                kind="integrity violation (victim-owned state corrupted)",
                evidence=[
                    f"victim mfn {m:#06x}[{w}] holds injected {v:#018x}"
                    for m, w, v in corrupted
                ],
            )
        return ViolationReport.none()


def make_use_case(spec: VulnSpec) -> type:
    """Build the per-spec ``UseCase`` class (uniform campaign entry)."""

    def fill(ns: dict) -> None:
        ns["spec"] = spec
        ns["name"] = spec.id
        ns["advisory"] = spec.gate.advisory
        ns["functionality"] = CLASS_FUNCTIONALITY[spec.vuln_class]
        ns["description"] = (
            f"synthetic {spec.vuln_class.value} defect in {spec.component} "
            f"({spec.gate.advisory} family, corpus seed {spec.root_seed})"
        )
        ns["__doc__"] = ns["description"]

    return _types.new_class(
        f"Synthetic_{spec.index:04d}",
        (SyntheticUseCase,),
        {"register": False},
        fill,
    )


# ----------------------------------------------------------------------
# Mutations (the fuzz dimension over a corpus entry)
# ----------------------------------------------------------------------


def _mut_baseline(spec: VulnSpec, rng: random.Random) -> VulnSpec:
    return spec


def _mut_bitflip(spec: VulnSpec, rng: random.Random) -> VulnSpec:
    return replace(spec, value=spec.value ^ (1 << rng.randrange(64)))


def _mut_word_shift(spec: VulnSpec, rng: random.Random) -> VulnSpec:
    if spec.vuln_class is VulnClass.BOUNDS_ERROR:
        return replace(spec, word=512 - rng.randrange(1, spec.span))
    return replace(spec, word=rng.randrange(512))


def _mut_zero(spec: VulnSpec, rng: random.Random) -> VulnSpec:
    return replace(spec, value=0)


def _mut_ones(spec: VulnSpec, rng: random.Random) -> VulnSpec:
    return replace(spec, value=_MASK64)


#: Name -> mutation operator.  A trial's mutated spec is a pure
#: function of ``(entry id, mutation name, trial seed)`` — every draw
#: comes from the trial's private RNG before any other use — so any
#: worker (or a later replay) re-derives it exactly.
MUTATIONS: Dict[str, Callable[[VulnSpec, random.Random], VulnSpec]] = {
    "baseline": _mut_baseline,
    "bitflip": _mut_bitflip,
    "word-shift": _mut_word_shift,
    "zero": _mut_zero,
    "ones": _mut_ones,
}

#: Stable iteration order for schedulers.
MUTATION_NAMES: Tuple[str, ...] = tuple(sorted(MUTATIONS))


def run_synthetic_trial(
    spec: VulnSpec,
    version: "XenVersion",
    seed: int,
    mutation: str = "baseline",
    collect_coverage: bool = False,
) -> FuzzResult:
    """One fuzz trial of one corpus entry on a fresh testbed."""
    return run_synthetic_trial_on(
        build_testbed(version), spec, seed, mutation, collect_coverage
    )


def run_synthetic_trial_on(
    bed: "TestBed",
    spec: VulnSpec,
    seed: int,
    mutation: str = "baseline",
    collect_coverage: bool = False,
) -> FuzzResult:
    """One fuzz trial of one corpus entry on a caller-provided testbed.

    Injects the (mutated) spec through its use case, exercises the
    system with the standard fuzz workload, classifies the outcome
    with the standard classifier, and — when ``collect_coverage`` —
    attaches the trial's probe-coverage signature to the result.  The
    coverage collector leaves the bed's probe bus even when the trial
    raises, so a reused bed never carries it into the next trial.
    """
    try:
        mutate = MUTATIONS[mutation]
    except KeyError:
        raise KeyError(
            f"unknown mutation {mutation!r}; known: {sorted(MUTATIONS)}"
        ) from None
    rng = random.Random(seed)
    mutated = mutate(spec, rng)
    collector = None
    if collect_coverage:
        from repro.probes.metrics import MetricsCollector

        collector = MetricsCollector(bed.probes).attach()
    try:
        use_case: SyntheticUseCase = make_use_case(mutated)()
        use_case.prepare(bed)
        outcome = None
        try:
            use_case.run_injection(bed)
        except ExploitFailed:
            outcome = "refused"
        except (HypervisorCrash, KernelOops, GuestFault):
            outcome = "crash" if bed.xen.crashed else "exception"
        if outcome is None:
            outcome = RandomErroneousStateCampaign._exercise(
                bed,
                use_case.target_mfn if use_case.target_mfn is not None else 0,
                mutated.word % 512,
                changed=use_case.changed,
            )
    finally:
        if collector is not None:
            collector.detach()
    coverage: Optional[List[str]] = None
    if collector is not None:
        coverage = collector.coverage_signature()
    return FuzzResult(
        component=spec.id,
        mfn=use_case.target_mfn if use_case.target_mfn is not None else -1,
        word=mutated.word,
        value=mutated.value,
        outcome=outcome,
        seed=seed,
        coverage=coverage,
    )
