"""The intrusion-injection test-case registry (paper §X).

"We also plan to implement different injectors and an open-source
list of tests and experiments covering various Intrusion Models,
fostering community involvement and broader applicability."  This
module is that list: every injection scenario the repository ships,
registered under a stable name with its intrusion model and the
security attribute it probes, runnable individually or as a suite.

>>> from repro.core.testcases import REGISTRY, run_test_case
>>> outcome = run_test_case("xsa-182-test", XEN_4_13)
>>> outcome.erroneous_state, outcome.violation
(True, False)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.campaign import Campaign, Mode
from repro.core.injections.extensions import (
    FATAL_EXCEPTION_IM,
    HANG_IM,
    INTERRUPT_STORM_IM,
    READ_UNAUTHORIZED_IM,
    inject_fatal_exception,
    inject_hang_state,
    inject_interrupt_storm,
    inject_read_unauthorized,
)
from repro.core.model import IntrusionModel
from repro.core.testbed import TestBed, build_testbed
from repro.exploits import XSA148Priv, XSA182Test, XSA212Crash, XSA212Priv
from repro.xen.versions import XenVersion


@dataclass
class TestCaseOutcome:
    """What one registered test case observed on one version."""

    name: str
    version: str
    erroneous_state: bool
    violation: bool
    violation_kind: Optional[str] = None

    @property
    def handled(self) -> bool:
        return self.erroneous_state and not self.violation


@dataclass(frozen=True)
class InjectionTestCase:
    """One entry of the open test-case list."""

    name: str
    intrusion_model: IntrusionModel
    attribute: str  # confidentiality / integrity / availability
    description: str
    runner: Callable[[TestBed], Tuple[bool, bool, Optional[str]]]
    origin: str = "paper"  # "paper" | "extension"

    def run_on(self, bed: TestBed) -> TestCaseOutcome:
        """Run this test case on a caller-provided testbed."""
        erroneous, violation, kind = self.runner(bed)
        return TestCaseOutcome(
            name=self.name,
            version=bed.xen.version.name,
            erroneous_state=erroneous,
            violation=violation,
            violation_kind=kind,
        )


def _use_case_runner(use_case_cls):
    def run(bed: TestBed):
        campaign = Campaign(testbed_factory=lambda _v: bed)
        result = campaign.run(use_case_cls, bed.xen.version, Mode.INJECTION)
        return (
            result.erroneous_state.achieved,
            result.violation.occurred,
            result.violation.kind,
        )

    return run


def _extension_runner(script):
    def run(bed: TestBed):
        erroneous, violation = script(bed)
        return erroneous.achieved, violation.occurred, violation.kind

    return run


def _build_registry() -> Dict[str, InjectionTestCase]:
    cases = [
        InjectionTestCase(
            name="xsa-212-crash",
            intrusion_model=XSA212Crash.intrusion_model(),
            attribute="availability",
            description=XSA212Crash.description,
            runner=_use_case_runner(XSA212Crash),
        ),
        InjectionTestCase(
            name="xsa-212-priv",
            intrusion_model=XSA212Priv.intrusion_model(),
            attribute="integrity",
            description=XSA212Priv.description,
            runner=_use_case_runner(XSA212Priv),
        ),
        InjectionTestCase(
            name="xsa-148-priv",
            intrusion_model=XSA148Priv.intrusion_model(),
            attribute="confidentiality",
            description=XSA148Priv.description,
            runner=_use_case_runner(XSA148Priv),
        ),
        InjectionTestCase(
            name="xsa-182-test",
            intrusion_model=XSA182Test.intrusion_model(),
            attribute="integrity",
            description=XSA182Test.description,
            runner=_use_case_runner(XSA182Test),
        ),
        InjectionTestCase(
            name="interrupt-storm",
            intrusion_model=INTERRUPT_STORM_IM,
            attribute="availability",
            description=INTERRUPT_STORM_IM.description,
            runner=_extension_runner(inject_interrupt_storm),
            origin="extension",
        ),
        InjectionTestCase(
            name="host-hang",
            intrusion_model=HANG_IM,
            attribute="availability",
            description=HANG_IM.description,
            runner=_extension_runner(inject_hang_state),
            origin="extension",
        ),
        InjectionTestCase(
            name="fatal-exception",
            intrusion_model=FATAL_EXCEPTION_IM,
            attribute="availability",
            description=FATAL_EXCEPTION_IM.description,
            runner=_extension_runner(inject_fatal_exception),
            origin="extension",
        ),
        InjectionTestCase(
            name="read-unauthorized",
            intrusion_model=READ_UNAUTHORIZED_IM,
            attribute="confidentiality",
            description=READ_UNAUTHORIZED_IM.description,
            runner=_extension_runner(inject_read_unauthorized),
            origin="extension",
        ),
    ]
    return {case.name: case for case in cases}


#: The shipped test-case list.
REGISTRY: Dict[str, InjectionTestCase] = _build_registry()


def list_test_cases(origin: Optional[str] = None) -> List[InjectionTestCase]:
    """The registered test cases, optionally filtered by origin."""
    cases = list(REGISTRY.values())
    if origin is not None:
        cases = [case for case in cases if case.origin == origin]
    return cases


def run_test_case(name: str, version: XenVersion) -> TestCaseOutcome:
    """Run one registered test case by name against a version."""
    try:
        case = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown test case {name!r}; known: {sorted(REGISTRY)}"
        ) from None
    return case.run_on(build_testbed(version))


def run_suite(
    version: XenVersion, runner=None, store=None
) -> List[TestCaseOutcome]:
    """Run every registered test case against one configuration.

    Each test case executes as one isolated job on ``runner`` (a
    :class:`~repro.runner.SerialRunner` by default; a pool runs them in
    parallel, resumable through ``store``); outcomes come back in
    registry order.
    """
    from repro.runner import SerialRunner, plan_testcases

    specs = plan_testcases(list(REGISTRY), version.name)
    outcome = (runner or SerialRunner()).run(specs, store=store)
    return [TestCaseOutcome(**payload) for payload in outcome.payloads_for(specs)]
