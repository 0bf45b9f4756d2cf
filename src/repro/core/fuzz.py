"""Randomized erroneous-state campaigns (paper §IV-C).

"One possibility is to randomize inputs to an injector, creating an
approach that resembles fuzzing testing but in another level of
interaction, in a post-attack phase."  This module is that approach as
a library: draw random single-word corruptions of chosen hypervisor
components (the *Write Unauthorized Arbitrary Memory* intrusion model
with randomized inputs), inject each into a fresh testbed, exercise
the system, and classify the outcome.

Outcome classes:

``crash``
    the corruption brought the hypervisor down (availability);
``exception``
    contained in a guest-visible fault — the system noticed;
``silent``
    victim-owned state changed with no error anywhere (latent
    integrity violation);
``latent``
    no observable effect during the exercise window;
``refused``
    the injector itself rejected the write (should not happen for
    valid components).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.injector import IntrusionInjector
from repro.core.testbed import TestBed, build_testbed, uncarried_settings
from repro.errors import GuestFault, HypervisorCrash
from repro.guest.kernel import KernelOops
from repro.xen import layout
from repro.xen.versions import XenVersion

#: A component is a name plus a frame-selector over a testbed.
FrameSelector = Callable[[TestBed], Sequence[int]]


def trial_seed(root_seed: int, component: str, index: int) -> int:
    """Derive the RNG seed of one trial from the campaign root seed.

    Every trial owns a private ``random.Random`` seeded by this value —
    no trial ever observes another trial's draws — so the outcome of
    trial ``(component, index)`` depends only on ``(version, root_seed,
    component, index)``.  That makes campaigns order-independent (and
    therefore parallelizable) and every single trial replayable
    standalone from its recorded seed.
    """
    blob = f"{root_seed}:{component}:{index}".encode()
    digest = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    return digest >> 1  # 63 bits: fits SQLite's signed INTEGER


@dataclass(frozen=True)
class ComponentTarget:
    """One corruptible component of the virtualization layer."""

    name: str
    frames: FrameSelector


_DEFAULT_COMPONENTS = (
    ComponentTarget("idt", lambda bed: bed.xen.idt_mfns[:1]),
    ComponentTarget("shared-pud", lambda bed: [bed.xen.xen_pud_mfn]),
    ComponentTarget("m2p", lambda bed: bed.xen.m2p_frames),
    ComponentTarget(
        "victim-pagetables",
        lambda bed: [
            bed.victim_domain.pfn_to_mfn(bed.victim_domain.kernel.l4_pfn),
            bed.victim_domain.pfn_to_mfn(bed.victim_domain.kernel.l1_pfns[0]),
        ],
    ),
    ComponentTarget("victim-data", lambda bed: [bed.victim_domain.pfn_to_mfn(4)]),
)


def default_components() -> List[ComponentTarget]:
    """The five components the §IV-C example campaign corrupts.

    The same objects on every call, so a component is default exactly
    when it is one of them, selector function included: a custom
    selector under a default name is not.
    """
    return list(_DEFAULT_COMPONENTS)


@dataclass
class FuzzResult:
    """One random injection and its classified outcome."""

    component: str
    mfn: int
    word: int
    value: int
    outcome: str
    #: The trial's private RNG seed; replay with
    #: :meth:`RandomErroneousStateCampaign.replay`.
    seed: Optional[int] = None
    #: The trial's probe-coverage signature (sorted feature strings,
    #: see :meth:`repro.probes.metrics.MetricsCollector.coverage_signature`);
    #: populated only when coverage collection was requested.
    coverage: Optional[List[str]] = None


@dataclass
class FuzzReport:
    """Aggregated campaign output."""

    version: str
    results: List[FuzzResult] = field(default_factory=list)

    def outcomes_by_component(self) -> Dict[str, Counter]:
        grouped: Dict[str, Counter] = {}
        for result in self.results:
            grouped.setdefault(result.component, Counter())[result.outcome] += 1
        return grouped

    def rate(self, component: str, outcome: str) -> float:
        hits = [r for r in self.results if r.component == component]
        if not hits:
            return 0.0
        return sum(1 for r in hits if r.outcome == outcome) / len(hits)

    def render(self) -> str:
        lines = [
            f"random erroneous-state campaign on Xen {self.version} "
            f"({len(self.results)} injections)",
            f"{'component':<22}{'crash':<8}{'exception':<11}"
            f"{'silent':<8}{'latent':<8}{'refused':<8}",
            "-" * 65,
        ]
        for component, counts in self.outcomes_by_component().items():
            lines.append(
                f"{component:<22}{counts.get('crash', 0):<8}"
                f"{counts.get('exception', 0):<11}"
                f"{counts.get('silent', 0):<8}{counts.get('latent', 0):<8}"
                f"{counts.get('refused', 0):<8}"
            )
        return "\n".join(lines)


class RandomErroneousStateCampaign:
    """Fuzz-style intrusion injection over hypervisor components."""

    def __init__(
        self,
        version: XenVersion,
        seed: int = 2023,
        components: Optional[Sequence[ComponentTarget]] = None,
        testbed_factory: Callable[[XenVersion], TestBed] = build_testbed,
    ):
        self.version = version
        self.seed = seed
        self.components = list(components or default_components())
        self.testbed_factory = testbed_factory

    # ------------------------------------------------------------------

    def run(
        self,
        runs_per_component: int = 20,
        runner=None,
        store=None,
    ) -> FuzzReport:
        """Run the campaign; trials derive private seeds from the root.

        Every trial is one job.  The jobs run on ``runner`` (a
        :class:`repro.runner.SerialRunner` or
        :class:`repro.runner.WorkerPool`), resumable through ``store``,
        or by default on a ``SerialRunner``; because every trial is
        seeded independently, every engine assembles the same report.
        A job spec names its component and version, so custom
        components, a custom factory or an unshipped version run each
        trial through :meth:`run_trial` instead
        (:func:`repro.runner.engine_for`).
        """
        from repro.runner import by_spec_name, engine_for, plan_fuzz

        components = by_spec_name(self.components, "components")
        specs = plan_fuzz(
            self.version.name,
            [c.name for c in self.components],
            runs_per_component,
            self.seed,
        )

        def run_trial(spec, attempt: int) -> dict:
            return asdict(self.run_trial(components[spec.use_case], spec.seed))

        uncarried = uncarried_settings(self.testbed_factory, [self.version])
        custom = [c.name for c in self.components if c not in _DEFAULT_COMPONENTS]
        if custom:
            uncarried.append(f"custom components {custom}")
        engine = engine_for(runner, store, uncarried, run_trial)
        payloads = engine.run(specs, store=store).payloads_for(specs)
        return FuzzReport(
            version=self.version.name,
            results=[FuzzResult(**payload) for payload in payloads],
        )

    def run_trial(self, component: ComponentTarget, seed: int) -> FuzzResult:
        """One injection with a private, recorded RNG seed."""
        return self.run_trial_on(
            self.testbed_factory(self.version), component, seed
        )

    def run_trial_on(
        self, bed: TestBed, component: ComponentTarget, seed: int
    ) -> FuzzResult:
        """One injection against a caller-provided testbed.

        The snapshot-cached execution path: the caller
        owns testbed construction (typically a checkpoint restore
        instead of a fresh boot).  Because the trial RNG is private and
        every draw depends only on the bed's frame layout — identical
        after an exact restore — the result is byte-for-byte the same
        as :meth:`run_trial`'s fresh-boot path, which the fork-server
        parity tests assert.
        """
        rng = random.Random(seed)
        frames = list(component.frames(bed))
        mfn = rng.choice(frames)
        word = rng.randrange(512)
        value = rng.getrandbits(64)
        previous = bed.xen.machine.read_word(mfn, word)
        injector = IntrusionInjector(bed.attacker_domain.kernel)
        rc = injector.write_word(layout.directmap_va(mfn, word), value)
        if rc != 0:
            outcome = "refused"
        else:
            outcome = self._exercise(bed, mfn, word, changed=value != previous)
        return FuzzResult(
            component=component.name, mfn=mfn, word=word, value=value,
            outcome=outcome, seed=seed,
        )

    def component_by_name(self, component_name: str) -> ComponentTarget:
        by_name = {c.name: c for c in self.components}
        try:
            return by_name[component_name]
        except KeyError:
            raise KeyError(
                f"unknown component {component_name!r}; "
                f"known: {sorted(by_name)}"
            ) from None

    def replay(self, component_name: str, seed: int) -> FuzzResult:
        """Re-run one recorded trial standalone from its seed."""
        return self.run_trial(self.component_by_name(component_name), seed)

    # ------------------------------------------------------------------

    @staticmethod
    def _exercise(bed: TestBed, mfn: int, word: int, changed: bool) -> str:
        attacker = bed.attacker_domain.kernel
        victim = bed.victim_domain.kernel
        victim_frames = {m for m in bed.victim_domain.p2m if m is not None}
        try:
            for pfn in range(2, 8):
                victim.read_va(victim.kva(pfn))
            try:
                attacker.trigger_page_fault()
            except KernelOops:
                pass  # normal delivery: guest oops, Xen survives
            if mfn in bed.xen.idt_mfns:
                bed.xen.software_interrupt(bed.attacker_domain, word // 2)
            attacker.read_va(layout.RO_MPT_START + word * 8)
            bed.tick()
        except HypervisorCrash:
            return "crash"
        except (KernelOops, GuestFault):
            return "exception"
        if bed.xen.crashed:
            return "crash"
        if changed and mfn in victim_frames:
            return "silent"
        return "latent"


#: The name the runner subsystem (and the ISSUE tracker) use for this
#: campaign class.
FuzzCampaign = RandomErroneousStateCampaign
