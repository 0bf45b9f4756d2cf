"""Tests for coverage-guided scheduling — determinism above all.

The tentpole guarantee: a coverage-guided campaign's schedule (and
therefore its full report) is a pure function of (root seed, corpus,
version).  Serial runs, repeated serial runs, and ``--jobs N`` worker
pools must produce byte-identical schedules; the novelty curve must be
monotone; and guided scheduling must cover at least as many distinct
(entry, outcome) behaviours as the uniform baseline at the same
budget.
"""

import textwrap

from repro.runner import WorkerPool, plan_coverage_round
from repro.staticcheck import check_source
from repro.vulngen.corpus import generate_corpus
from repro.vulngen.coverage import CoverageMap
from repro.vulngen.schedule import (
    CoverageFuzzCampaign,
    CoverageGuidedScheduler,
    TrialPlan,
    UniformScheduler,
)
from repro.vulngen.synthetic import MUTATION_NAMES
from repro.xen.versions import XEN_4_6

#: Small but non-trivial campaign shape shared by the identity tests.
CORPUS = generate_corpus(root_seed=7, size=20)
ROUNDS, TRIALS = 3, 6


def run_campaign(runner=None, guided=True, root_seed=7):
    campaign = CoverageFuzzCampaign(
        XEN_4_6, CORPUS, root_seed=root_seed, guided=guided
    )
    return campaign.run(rounds=ROUNDS, trials_per_round=TRIALS, runner=runner)


class TestCoverageMap:
    def test_observe_counts_new_features(self):
        cover = CoverageMap()
        assert cover.observe(["a:1", "b:2"]) == 2
        assert cover.observe(["a:1", "c:1"]) == 1
        assert len(cover) == 3

    def test_novelty_check(self):
        cover = CoverageMap()
        cover.observe(["a:1"])
        assert cover.is_novel(["a:1", "b:1"])
        assert not cover.is_novel(["a:1"])

    def test_digest_is_content_addressed(self):
        a, b = CoverageMap(), CoverageMap()
        a.observe(["x:1", "y:2"])
        b.observe(["y:2"])
        b.observe(["x:1"])
        assert a.digest == b.digest
        assert a.digest != CoverageMap().digest


class TestSchedulerPurity:
    def test_plans_are_pure_functions_of_seed_and_digest(self):
        a = CoverageGuidedScheduler(CORPUS.ids, root_seed=3)
        b = CoverageGuidedScheduler(CORPUS.ids, root_seed=3)
        assert a.plan_round(0, 8, "d0") == b.plan_round(0, 8, "d0")

    def test_plans_react_to_coverage_digest(self):
        sched = CoverageGuidedScheduler(CORPUS.ids, root_seed=3)
        # Sweep phase consumed: mark every entry tried.
        for entry in CORPUS.ids:
            sched.trials_done[entry] = 1
        assert sched.plan_round(1, 8, "aaaa") != sched.plan_round(1, 8, "bbbb")

    def test_uniform_ignores_coverage_digest(self):
        sched = UniformScheduler(CORPUS.ids, root_seed=3)
        assert sched.plan_round(0, 8, "aaaa") == sched.plan_round(0, 8, "bbbb")

    def test_untried_entries_scheduled_before_retries(self):
        sched = CoverageGuidedScheduler(CORPUS.ids, root_seed=3)
        plans = sched.plan_round(0, len(CORPUS.ids), "d0")
        assert sorted(p.entry_id for p in plans) == sorted(CORPUS.ids)
        assert all(p.mutation == "baseline" for p in plans)

    def test_first_trial_of_entry_is_baseline_mutation(self):
        sched = CoverageGuidedScheduler(CORPUS.ids, root_seed=3)
        seen = set()
        for round_no in range(3):
            for plan in sched.plan_round(round_no, 10, f"d{round_no}"):
                if plan.entry_id not in seen:
                    assert plan.mutation == "baseline"
                    seen.add(plan.entry_id)
                sched.trials_done[plan.entry_id] += 1

    def test_novelty_weights_energy(self):
        sched = CoverageGuidedScheduler(CORPUS.ids, root_seed=3)
        entry = CORPUS.ids[0]
        assert sched.energy(entry) == 1
        sched.observe(
            TrialPlan(0, 0, entry, "baseline", 1), None, new_features=5
        )
        assert sched.energy(entry) == 6


class TestScheduleIdentity:
    def test_serial_equals_serial(self):
        assert run_campaign().to_dict() == run_campaign().to_dict()

    def test_serial_equals_parallel_pool(self):
        serial = run_campaign()
        parallel = run_campaign(runner=WorkerPool(jobs=2))
        assert serial.schedule_digest() == parallel.schedule_digest()
        assert serial.to_dict() == parallel.to_dict()

    def test_different_root_seeds_schedule_differently(self):
        assert (
            run_campaign(root_seed=7).schedule_digest()
            != run_campaign(root_seed=8).schedule_digest()
        )


class TestCampaignQuality:
    def test_novelty_curve_is_monotone(self):
        curve = run_campaign().novelty_curve()
        assert len(curve) == ROUNDS
        assert all(a <= b for a, b in zip(curve, curve[1:]))

    def test_guided_covers_at_least_uniform(self):
        guided = run_campaign(guided=True)
        uniform = run_campaign(guided=False)
        assert len(guided.distinct_outcomes()) >= len(
            uniform.distinct_outcomes()
        )
        assert len(guided.coverage) >= 1

    def test_report_dict_is_json_shaped(self):
        import json

        report = run_campaign().to_dict()
        assert json.loads(json.dumps(report)) == report
        assert report["scheduler"] == "coverage"
        assert len(report["plans"]) == ROUNDS * TRIALS


class TestRunnerIntegration:
    def test_plan_coverage_round_job_shape(self):
        plans = CoverageGuidedScheduler(CORPUS.ids, 7).plan_round(0, 4, "d")
        specs = plan_coverage_round("4.6", plans)
        assert len(specs) == 4
        for spec, plan in zip(specs, plans):
            assert spec.use_case == plan.entry_id
            assert spec.mode == plan.mutation
            assert spec.seed == plan.seed
            assert spec.trial == plan.slot
            assert spec.metrics is True
        assert len({s.job_id for s in specs}) == len(specs)

    def test_mutation_names_are_stable(self):
        assert MUTATION_NAMES == tuple(sorted(MUTATION_NAMES))
        assert "baseline" in MUTATION_NAMES


class TestR4CoversVulngen:
    """Satellite: the determinism lint now guards repro/vulngen/."""

    PATH = "src/repro/vulngen/fixture.py"

    def test_module_level_rng_flagged_in_vulngen(self):
        result = check_source(
            textwrap.dedent(
                """
                import random

                def pick(items):
                    return random.choice(items)
                """
            ),
            self.PATH,
            rules=["R4"],
        )
        assert [f.rule for f in result.findings] == ["R4"]

    def test_seeded_rng_allowed_in_vulngen(self):
        result = check_source(
            textwrap.dedent(
                """
                import random

                def pick(items, seed):
                    return random.Random(seed).choice(items)
                """
            ),
            self.PATH,
            rules=["R4"],
        )
        assert result.findings == []
