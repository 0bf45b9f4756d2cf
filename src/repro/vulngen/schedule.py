"""Coverage-guided scheduling of synthetic-vulnerability fuzz trials.

The §IV-C campaign draws trials uniformly.  With a corpus of hundreds
of synthetic vulnerabilities that is wasteful: most entries collapse
onto a handful of behaviours, and the interesting ones — the entries
whose corruption drives the hypervisor down *new* paths — deserve the
budget.  This module adds the classic fuzzing feedback loop on top of
the probe-coverage map:

1. plan a **round** of ``(entry, mutation, seed)`` trials;
2. execute them as runner jobs (on the serial runner by default),
   each on the bed the job interpreter leases for it: a restored
   snapshot on the serial runner and the fork-server, a fresh boot on
   the spawn pool;
3. fold each trial's coverage signature into the global
   :class:`~repro.vulngen.coverage.CoverageMap`;
4. credit entries whose trials contributed unseen features with
   **energy**, which weights the next round's draw.

Determinism is the design constraint, not an afterthought.  Every
scheduling decision is a pure function of ``(root seed, round number,
coverage digest after the previous round)``: the round RNG is seeded
from exactly those values, trial seeds hash the plan coordinates, and
results are integrated in slot order regardless of completion order.
Since each trial's outcome (and coverage) is itself a pure function of
its plan, by induction the whole schedule — and therefore the whole
campaign — is identical serially and under ``--jobs N``, byte for
byte.  The tests and the CI job pin this.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.core.fuzz import FuzzResult
from repro.vulngen.corpus import Corpus
from repro.vulngen.coverage import CoverageMap
from repro.vulngen.synthetic import MUTATION_NAMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.versions import XenVersion


@dataclass(frozen=True)
class TrialPlan:
    """One scheduled trial: the complete recipe to run it anywhere."""

    round: int
    slot: int
    entry_id: str
    mutation: str
    seed: int


def _plan_seed(
    root_seed: int, entry_id: str, mutation: str, round_no: int, slot: int
) -> int:
    """A trial's private RNG seed, hashed from its plan coordinates
    (63 bits, like :func:`repro.core.fuzz.trial_seed`)."""
    blob = f"{root_seed}:{entry_id}:{mutation}:{round_no}:{slot}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def _round_rng(root_seed: int, round_no: int, coverage_digest: str) -> random.Random:
    """The round's planning RNG — seeded from exactly the values a
    schedule is allowed to depend on."""
    blob = f"{root_seed}:round:{round_no}:{coverage_digest}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))


class UniformScheduler:
    """The §IV-C baseline: draw entry and mutation uniformly.

    Deliberately ignores coverage (the round RNG is seeded with a
    constant digest), so it is the controlled comparison arm for
    ``bench_vulngen_coverage``.
    """

    name = "uniform"

    def __init__(self, entry_ids: Sequence[str], root_seed: int):
        if not entry_ids:
            raise ValueError("scheduler needs a non-empty corpus")
        self.entry_ids = list(entry_ids)
        self.root_seed = root_seed

    def plan_round(
        self, round_no: int, budget: int, coverage_digest: str
    ) -> List[TrialPlan]:
        rng = _round_rng(self.root_seed, round_no, "uniform")
        plans = []
        for slot in range(budget):
            entry_id = self.entry_ids[rng.randrange(len(self.entry_ids))]
            mutation = MUTATION_NAMES[rng.randrange(len(MUTATION_NAMES))]
            plans.append(
                TrialPlan(
                    round=round_no,
                    slot=slot,
                    entry_id=entry_id,
                    mutation=mutation,
                    seed=_plan_seed(
                        self.root_seed, entry_id, mutation, round_no, slot
                    ),
                )
            )
        return plans

    def observe(self, plan: TrialPlan, result: FuzzResult, new_features: int) -> None:
        """Uniform scheduling learns nothing from feedback."""


class CoverageGuidedScheduler:
    """Novelty-weighted scheduling over the corpus.

    Two-phase selection, AFL-queue style:

    * **exploration floor** — an entry that has never been tried is
      always scheduled before any entry is re-tried (drawn by the
      round RNG from the untried set), so the corpus is swept before
      the budget starts concentrating;
    * **exploitation** — once every entry has run, each entry's
      **energy** is ``1 + (coverage features its past trials were
      first to exhibit)``: entries that keep finding new behaviour get
      proportionally more budget, entries that plateau decay back to
      the uniform floor (the ``1`` keeps every entry reachable — no
      starvation).

    An entry's first trial is always the ``baseline`` mutation (the
    spec as generated); subsequent trials draw mutations from the
    round RNG.
    """

    name = "coverage"

    def __init__(self, entry_ids: Sequence[str], root_seed: int):
        if not entry_ids:
            raise ValueError("scheduler needs a non-empty corpus")
        self.entry_ids = list(entry_ids)
        self.root_seed = root_seed
        self.trials_done: Dict[str, int] = {e: 0 for e in self.entry_ids}
        self.novelty: Dict[str, int] = {e: 0 for e in self.entry_ids}

    # -- planning ------------------------------------------------------

    def energy(self, entry_id: str) -> int:
        return 1 + self.novelty[entry_id]

    def _pick_entry(self, rng: random.Random) -> str:
        weights = [self.energy(e) for e in self.entry_ids]
        total = sum(weights)
        point = rng.randrange(total)
        acc = 0
        for entry_id, weight in zip(self.entry_ids, weights):
            acc += weight
            if point < acc:
                return entry_id
        return self.entry_ids[-1]  # unreachable: point < total == acc

    def plan_round(
        self, round_no: int, budget: int, coverage_digest: str
    ) -> List[TrialPlan]:
        rng = _round_rng(self.root_seed, round_no, coverage_digest)
        planned: Dict[str, int] = {}
        untried = [
            e for e in self.entry_ids if self.trials_done[e] == 0
        ]
        plans = []
        for slot in range(budget):
            if untried:
                entry_id = untried.pop(rng.randrange(len(untried)))
            else:
                entry_id = self._pick_entry(rng)
            prior = self.trials_done[entry_id] + planned.get(entry_id, 0)
            if prior == 0:
                mutation = "baseline"
            else:
                mutation = MUTATION_NAMES[rng.randrange(len(MUTATION_NAMES))]
            planned[entry_id] = planned.get(entry_id, 0) + 1
            plans.append(
                TrialPlan(
                    round=round_no,
                    slot=slot,
                    entry_id=entry_id,
                    mutation=mutation,
                    seed=_plan_seed(
                        self.root_seed, entry_id, mutation, round_no, slot
                    ),
                )
            )
        return plans

    # -- feedback ------------------------------------------------------

    def observe(self, plan: TrialPlan, result: FuzzResult, new_features: int) -> None:
        """Integrate one trial (callers must feed trials in slot order
        within a round — the campaign does)."""
        self.trials_done[plan.entry_id] += 1
        self.novelty[plan.entry_id] += new_features


@dataclass
class RoundStats:
    """Aggregates of one scheduler round."""

    round: int
    trials: int
    new_features: int
    coverage_size: int
    #: Coverage digest *after* this round (next round's planning input).
    digest: str


@dataclass
class CoverageReport:
    """Everything a coverage-guided campaign produced."""

    version: str
    root_seed: int
    scheduler: str
    rounds: List[RoundStats] = field(default_factory=list)
    plans: List[TrialPlan] = field(default_factory=list)
    results: List[FuzzResult] = field(default_factory=list)
    coverage: List[str] = field(default_factory=list)

    def distinct_outcomes(self) -> List[Tuple[str, str]]:
        """Sorted distinct ``(entry, outcome)`` pairs — the campaign's
        behavioural footprint (the bench's primary metric)."""
        return sorted({(r.component, r.outcome) for r in self.results})

    def novelty_curve(self) -> List[int]:
        """Cumulative coverage-map size after each round (monotone
        non-decreasing by construction; CI asserts it)."""
        return [stats.coverage_size for stats in self.rounds]

    def schedule_digest(self) -> str:
        """Content digest of the full schedule — the serial-vs-parallel
        identity the tests compare."""
        blob = json.dumps(
            [asdict(plan) for plan in self.plans], sort_keys=True
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "root_seed": self.root_seed,
            "scheduler": self.scheduler,
            "rounds": [asdict(s) for s in self.rounds],
            "plans": [asdict(p) for p in self.plans],
            "schedule_digest": self.schedule_digest(),
            "distinct_outcomes": [list(pair) for pair in self.distinct_outcomes()],
            "novelty_curve": self.novelty_curve(),
            "coverage_size": len(self.coverage),
            "coverage_digest": self.rounds[-1].digest if self.rounds else "",
        }

    def render(self) -> str:
        lines = [
            f"coverage-guided campaign on Xen {self.version} "
            f"({self.scheduler} scheduler, root seed {self.root_seed}, "
            f"{len(self.results)} trials)",
            f"{'round':<7}{'trials':<8}{'new features':<14}{'coverage':<10}",
            "-" * 45,
        ]
        for stats in self.rounds:
            lines.append(
                f"{stats.round:<7}{stats.trials:<8}"
                f"{stats.new_features:<14}{stats.coverage_size:<10}"
            )
        lines += [
            "-" * 45,
            f"distinct (entry, outcome) pairs: {len(self.distinct_outcomes())}",
            f"schedule digest: {self.schedule_digest()[:16]}",
        ]
        return "\n".join(lines)


class CoverageFuzzCampaign:
    """Round-based fuzz campaign over a synthetic corpus.

    Rounds are barriers: round *k* is planned only from the coverage
    digest after round *k-1*, executed as one runner job per trial (the
    serial runner unless ``run`` is given one), and integrated in slot
    order.  Every trial goes through the job interpreter, so on the
    serial runner and the fork-server it runs on a restored snapshot
    instead of a cold boot.
    Multi-round campaigns must not share a result store across rounds
    (each round is a different job plan), so every round runs with
    ``store=None`` — coverage campaigns are cheap to re-run precisely
    because they are deterministic.
    """

    def __init__(
        self,
        version: "XenVersion",
        corpus: Corpus,
        root_seed: int = 2023,
        guided: bool = True,
    ):
        self.version = version
        self.corpus = corpus
        self.root_seed = root_seed
        scheduler_cls = CoverageGuidedScheduler if guided else UniformScheduler
        self.scheduler = scheduler_cls(corpus.ids, root_seed)

    def run(
        self, rounds: int = 4, trials_per_round: int = 8, runner=None
    ) -> CoverageReport:
        coverage = CoverageMap()
        report = CoverageReport(
            version=self.version.name,
            root_seed=self.root_seed,
            scheduler=self.scheduler.name,
        )
        for round_no in range(rounds):
            plans = self.scheduler.plan_round(
                round_no, trials_per_round, coverage.digest
            )
            results = self._execute(plans, runner)
            new_total = 0
            for plan, result in sorted(
                zip(plans, results), key=lambda pair: pair[0].slot
            ):
                new = coverage.observe(result.coverage or [])
                self.scheduler.observe(plan, result, new)
                new_total += new
            report.plans.extend(plans)
            report.results.extend(results)
            report.rounds.append(
                RoundStats(
                    round=round_no,
                    trials=len(plans),
                    new_features=new_total,
                    coverage_size=len(coverage),
                    digest=coverage.digest,
                )
            )
        report.coverage = coverage.features()
        return report

    def _execute(self, plans: List[TrialPlan], runner=None) -> List[FuzzResult]:
        """Run one round's trials as jobs on ``runner`` (a
        :class:`~repro.runner.SerialRunner` by default); results align
        with ``plans``."""
        from repro.runner import SerialRunner, plan_coverage_round

        specs = plan_coverage_round(self.version.name, plans)
        outcome = (runner or SerialRunner()).run(specs, store=None)
        return [FuzzResult(**payload) for payload in outcome.payloads_for(specs)]
