"""Tests for the randomized erroneous-state campaign library."""

import pytest

from repro.core.fuzz import (
    ComponentTarget,
    FuzzReport,
    FuzzResult,
    RandomErroneousStateCampaign,
    default_components,
    trial_seed,
)
from repro.xen.versions import XEN_4_8, XEN_4_13


@pytest.fixture(scope="module")
def small_report():
    campaign = RandomErroneousStateCampaign(XEN_4_13, seed=42)
    return campaign.run(runs_per_component=4)


class TestCampaign:
    def test_run_count(self, small_report):
        assert len(small_report.results) == 4 * len(default_components())

    def test_outcomes_are_classified(self, small_report):
        valid = {"crash", "exception", "silent", "latent", "refused"}
        assert all(r.outcome in valid for r in small_report.results)

    def test_no_refusals_on_valid_components(self, small_report):
        assert all(r.outcome != "refused" for r in small_report.results)

    def test_deterministic_under_seed(self):
        report_a = RandomErroneousStateCampaign(XEN_4_8, seed=7).run(2)
        report_b = RandomErroneousStateCampaign(XEN_4_8, seed=7).run(2)
        assert [(r.component, r.mfn, r.word, r.outcome) for r in report_a.results] == [
            (r.component, r.mfn, r.word, r.outcome) for r in report_b.results
        ]

    def test_different_seeds_differ(self):
        report_a = RandomErroneousStateCampaign(XEN_4_8, seed=1).run(3)
        report_b = RandomErroneousStateCampaign(XEN_4_8, seed=2).run(3)
        assert [(r.mfn, r.word) for r in report_a.results] != [
            (r.mfn, r.word) for r in report_b.results
        ]

    def test_victim_data_corruption_is_silent(self):
        campaign = RandomErroneousStateCampaign(
            XEN_4_13,
            seed=3,
            components=[
                ComponentTarget("victim-data", lambda bed: [bed.dom0.pfn_to_mfn(4)])
            ],
        )
        report = campaign.run(runs_per_component=5)
        # Corrupting a plain data page never faults, so every changed
        # word is a silent integrity violation.
        assert all(r.outcome in ("silent", "latent") for r in report.results)
        assert any(r.outcome == "silent" for r in report.results)

    def test_custom_component(self):
        campaign = RandomErroneousStateCampaign(
            XEN_4_8,
            seed=5,
            components=[ComponentTarget("idt", lambda bed: bed.xen.idt_mfns[:1])],
        )
        report = campaign.run(runs_per_component=3)
        assert {r.component for r in report.results} == {"idt"}


class TestRegressions:
    def test_shared_pud_alias_in_lower_slot_is_classified(self):
        # This trial copies a linear-alias descriptor into the PUD slot
        # the RO M2P read goes through; the read used to escape as an
        # unclassified MachineError (negative frame number).
        root = 1227950264
        shared_pud = [c for c in default_components() if c.name == "shared-pud"]
        campaign = RandomErroneousStateCampaign(
            XEN_4_13, seed=root, components=shared_pud
        )
        result = campaign.run_trial(
            shared_pud[0], trial_seed(root, "shared-pud", 5)
        )
        assert result.outcome == "exception"


class TestReport:
    def test_outcomes_by_component(self, small_report):
        grouped = small_report.outcomes_by_component()
        assert set(grouped) == {c.name for c in default_components()}
        assert all(sum(counts.values()) == 4 for counts in grouped.values())

    def test_rate(self):
        report = FuzzReport(
            version="x",
            results=[
                FuzzResult("a", 0, 0, 0, "crash"),
                FuzzResult("a", 0, 0, 0, "latent"),
            ],
        )
        assert report.rate("a", "crash") == 0.5
        assert report.rate("missing", "crash") == 0.0

    def test_render_contains_components(self, small_report):
        text = small_report.render()
        for component in default_components():
            assert component.name in text


class TestSeeding:
    def test_seed_recorded_and_private_per_trial(self, small_report):
        seeds = [r.seed for r in small_report.results]
        assert all(s is not None for s in seeds)
        assert len(set(seeds)) == len(seeds)

    def test_bench_output_stable_under_fixed_seed(self):
        """The archived fuzz bench artefact must be reproducible."""
        import pathlib

        archived = (
            pathlib.Path(__file__).parent.parent
            / "benchmarks" / "output" / "fuzz_campaign.txt"
        )
        report = RandomErroneousStateCampaign(XEN_4_13, seed=20230701).run(
            runs_per_component=25
        )
        assert archived.read_text().startswith(report.render())
