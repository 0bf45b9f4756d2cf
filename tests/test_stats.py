"""Tests for the statistics module."""

import itertools
import math
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.analysis.stats import (
    bootstrap_rate,
    compare_handling,
    fisher_exact_2x2,
    handling_scores,
)
from repro.core.campaign import Campaign, Mode
from repro.core.fuzz import FuzzReport, FuzzResult
from repro.exploits import USE_CASES
from repro.xen.versions import XEN_4_8, XEN_4_13


@pytest.fixture(scope="module")
def injection_results():
    campaign = Campaign()
    return campaign.run_matrix(USE_CASES, [XEN_4_8, XEN_4_13], [Mode.INJECTION])


class TestHandlingComparison:
    def test_counts_from_table3(self, injection_results):
        comparison = compare_handling(injection_results, "4.13", "4.8")
        assert comparison.handled_a == 2
        assert comparison.violated_a == 2
        assert comparison.handled_b == 0
        assert comparison.violated_b == 4

    def test_p_value_in_range(self, injection_results):
        comparison = compare_handling(injection_results, "4.13", "4.8")
        assert 0.0 <= comparison.p_value <= 1.0

    def test_four_samples_not_significant(self, injection_results):
        """With only four use cases, the paper's contrast cannot reach
        significance — worth stating explicitly."""
        comparison = compare_handling(injection_results, "4.13", "4.8")
        assert not comparison.significant

    def test_render(self, injection_results):
        text = compare_handling(injection_results, "4.13", "4.8").render()
        assert "handled 2/4" in text
        assert "Fisher" in text

    def test_missing_version_treated_empty(self, injection_results):
        comparison = compare_handling(injection_results, "4.13", "9.9")
        assert comparison.handled_b == 0
        assert comparison.violated_b == 0

    def test_identical_versions_p_one(self, injection_results):
        comparison = compare_handling(injection_results, "4.8", "4.8")
        assert comparison.p_value == pytest.approx(1.0)


class TestFisherExact:
    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(pathlib.Path(repro.__file__).parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import repro.cli; "
            "print('scipy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert proc.stdout.strip() == "False"

    # (a, b, c, d) -> (odds ratio, two-sided p) from
    # scipy.stats.fisher_exact 1.17.1: asymmetric tables, tables whose
    # rivals tie P_obs, zero cells, empty rows and columns, a larger n.
    SCIPY_REFERENCE = {
        (3, 1, 1, 3): (9.0, 0.48571428571428565),
        (1, 9, 11, 3): (0.030303030303030304, 0.0027594561852200836),
        (8, 2, 1, 5): (20.0, 0.034965034965034975),
        (4, 1, 2, 6): (12.0, 0.10256410256410257),
        (2, 7, 8, 2): (0.07142857142857142, 0.02301413756522116),
        (12, 5, 3, 20): (16.0, 0.0002999894216743347),
        (30, 14, 9, 41): (9.761904761904763, 9.367266767507896e-07),
        (10, 10, 10, 10): (1.0, 1.0),
        (0, 5, 5, 0): (0.0, 0.007936507936507938),
        (5, 0, 0, 5): (math.inf, 0.007936507936507938),
        (7, 0, 2, 9): (math.inf, 0.002262443438914028),
        (0, 3, 2, 1): (0.0, 0.4000000000000001),
        (1, 0, 0, 1): (math.inf, 1.0),
        (0, 0, 3, 4): (math.nan, 1.0),
        (2, 3, 0, 0): (math.nan, 1.0),
        (0, 4, 0, 6): (math.nan, 1.0),
        (0, 0, 0, 0): (math.nan, 1.0),
    }

    @pytest.mark.parametrize("table", sorted(SCIPY_REFERENCE))
    def test_matches_pinned_scipy_values(self, table):
        want_odds, want_p = self.SCIPY_REFERENCE[table]
        odds, p = fisher_exact_2x2(*table)
        assert p == pytest.approx(want_p, rel=1e-9)
        if math.isnan(want_odds):
            assert math.isnan(odds)
        else:
            assert odds == want_odds

    def test_matches_scipy_on_every_small_table(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        checked = 0
        for a, b, c, d in itertools.product(range(17), repeat=4):
            if a + b + c + d > 16:
                continue
            want_odds, want_p = scipy_stats.fisher_exact([[a, b], [c, d]])
            odds, p = fisher_exact_2x2(a, b, c, d)
            assert p == pytest.approx(want_p, rel=1e-9), (a, b, c, d)
            if math.isnan(want_odds):
                assert math.isnan(odds), (a, b, c, d)
            else:
                assert odds == want_odds, (a, b, c, d)
            checked += 1
        assert checked == math.comb(16 + 4, 4)

    def test_hand_computed_table(self):
        # [[3, 1], [1, 3]]: P(x) = C(4,x) C(4,4-x) / C(8,4) = 1,16,36,16,1
        # over 70; tables at most as likely as x=3 sum to 34/70.
        odds, p = fisher_exact_2x2(3, 1, 1, 3)
        assert odds == 9.0
        assert p == pytest.approx(34 / 70, rel=1e-12)


class TestHandlingScores:
    def test_scores_match_table3(self, injection_results):
        scores = handling_scores(injection_results)
        assert scores["4.8"] == 0.0
        assert scores["4.13"] == 0.5


class TestBootstrap:
    def _report(self, outcomes):
        return FuzzReport(
            version="t",
            results=[FuzzResult("c", 0, 0, 0, o) for o in outcomes],
        )

    def test_point_estimate(self):
        report = self._report(["crash"] * 3 + ["latent"] * 7)
        interval = bootstrap_rate(report, "c", "crash")
        assert interval.rate == pytest.approx(0.3)

    def test_ci_brackets_rate(self):
        report = self._report(["crash"] * 5 + ["latent"] * 15)
        interval = bootstrap_rate(report, "c", "crash")
        assert interval.low <= interval.rate <= interval.high
        assert 0.0 <= interval.low and interval.high <= 1.0

    def test_degenerate_all_same(self):
        report = self._report(["latent"] * 10)
        interval = bootstrap_rate(report, "c", "latent")
        assert interval.rate == 1.0
        assert interval.low == 1.0 and interval.high == 1.0

    def test_empty_component(self):
        report = self._report([])
        interval = bootstrap_rate(report, "missing", "crash")
        assert interval.rate == 0.0

    def test_render(self):
        report = self._report(["crash", "latent"])
        assert "P[crash]" in bootstrap_rate(report, "c", "crash").render()

    def test_deterministic_seed(self):
        report = self._report(["crash"] * 4 + ["latent"] * 6)
        a = bootstrap_rate(report, "c", "crash", seed=11)
        b = bootstrap_rate(report, "c", "crash", seed=11)
        assert (a.low, a.high) == (b.low, b.high)
