"""A security benchmark for virtualized infrastructures.

The paper's conclusion: "We expect to apply it in assessing the
security attributes of hypervisors and establish a security benchmark
for virtualized infrastructures in the future."  This module is a
first cut of that benchmark: a fixed suite of intrusion models — the
paper's four memory use cases plus the four extension IMs — executed
against a hypervisor configuration, scored by which *security
attribute* each unhandled erroneous state violates.

The score card reports, per attribute (confidentiality, integrity,
availability), how many injected states the system handled, plus an
overall handling rate usable for ranking configurations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.testbed import TestBed, build_testbed, uncarried_settings
from repro.core.testcases import REGISTRY
from repro.xen.versions import XenVersion

#: Security attributes (CIA).
CONFIDENTIALITY = "confidentiality"
INTEGRITY = "integrity"
AVAILABILITY = "availability"


@dataclass(frozen=True)
class BenchmarkItem:
    """One suite entry: an injection plus the attribute it threatens."""

    name: str
    attribute: str
    #: Runs the injection on a testbed; returns (state_injected,
    #: violation_occurred).
    run: Callable[[TestBed], Tuple[bool, bool]]


def default_suite() -> List[BenchmarkItem]:
    """The standard eight-IM suite: the test-case registry, in order.

    Each item is named after its case's intrusion model and reports
    the first two fields of the case's outcome.
    """
    return [
        BenchmarkItem(
            name=case.intrusion_model.name,
            attribute=case.attribute,
            run=lambda bed, runner=case.runner: runner(bed)[:2],
        )
        for case in REGISTRY.values()
    ]


@dataclass
class ItemResult:
    name: str
    attribute: str
    injected: bool
    violated: bool

    @property
    def handled(self) -> bool:
        return self.injected and not self.violated


@dataclass
class ScoreCard:
    """Benchmark output for one hypervisor configuration."""

    version: str
    items: List[ItemResult] = field(default_factory=list)

    @property
    def handled(self) -> int:
        return sum(1 for item in self.items if item.handled)

    @property
    def injected(self) -> int:
        return sum(1 for item in self.items if item.injected)

    @property
    def handling_rate(self) -> float:
        return self.handled / self.injected if self.injected else 0.0

    def by_attribute(self) -> Dict[str, Tuple[int, int]]:
        """attribute -> (handled, total injected)."""
        summary: Dict[str, Tuple[int, int]] = {}
        for attribute in (CONFIDENTIALITY, INTEGRITY, AVAILABILITY):
            relevant = [i for i in self.items if i.attribute == attribute]
            summary[attribute] = (
                sum(1 for i in relevant if i.handled),
                sum(1 for i in relevant if i.injected),
            )
        return summary

    def render(self) -> str:
        lines = [
            f"security score card — Xen {self.version}",
            f"{'intrusion model':<20}{'attribute':<17}{'outcome':<12}",
            "-" * 49,
        ]
        for item in self.items:
            if not item.injected:
                outcome = "not injected"
            elif item.handled:
                outcome = "HANDLED"
            else:
                outcome = "violated"
            lines.append(f"{item.name:<20}{item.attribute:<17}{outcome:<12}")
        lines.append("-" * 49)
        for attribute, (handled, total) in self.by_attribute().items():
            lines.append(f"{attribute:<20}handled {handled}/{total}")
        lines.append(
            f"overall handling rate: {self.handling_rate:.0%} "
            f"({self.handled}/{self.injected})"
        )
        return "\n".join(lines)


class SecurityBenchmark:
    """Run the default suite against hypervisor configurations and rank them."""

    def __init__(
        self,
        testbed_factory: Callable[[XenVersion], TestBed] = build_testbed,
    ):
        self.testbed_factory = testbed_factory

    def score(self, version: XenVersion, runner=None, store=None) -> ScoreCard:
        return self.score_many([version], runner, store)[0]

    def score_many(
        self, versions: Sequence[XenVersion], runner=None, store=None
    ) -> List[ScoreCard]:
        """Score versions; every (version × suite item) cell is one job.

        The jobs run on ``runner`` (a :class:`repro.runner.SerialRunner`
        or :class:`repro.runner.WorkerPool`), resumable through
        ``store``, or by default on a ``SerialRunner``.  A job spec names
        its version, so a custom testbed factory or an unshipped version
        runs each item on ``testbed_factory(version)`` on a
        ``SerialRunner`` and is refused with an explicit runner or store
        (:func:`repro.runner.engine_for`).
        """
        from repro.runner import by_spec_name, engine_for, plan_benchmark

        suite = {item.name: item for item in default_suite()}
        specs = plan_benchmark(list(suite), [v.name for v in versions])
        by_name = by_spec_name(versions, "versions")

        def run_item(spec, attempt: int) -> dict:
            item = suite[spec.use_case]
            bed = self.testbed_factory(by_name[spec.version])
            injected, violated = item.run(bed)
            return asdict(ItemResult(item.name, item.attribute, injected, violated))

        uncarried = uncarried_settings(self.testbed_factory, versions)
        engine = engine_for(runner, store, uncarried, run_item)
        payloads = engine.run(specs, store=store).payloads_for(specs)
        return [
            ScoreCard(
                version=version.name,
                items=[
                    ItemResult(**payload)
                    for payload in payloads[i * len(suite):(i + 1) * len(suite)]
                ],
            )
            for i, version in enumerate(versions)
        ]

    def rank(
        self, versions: Sequence[XenVersion], runner=None, store=None
    ) -> List[ScoreCard]:
        """Score each version; best handling rate first."""
        cards = self.score_many(versions, runner, store)
        return sorted(cards, key=lambda c: c.handling_rate, reverse=True)
