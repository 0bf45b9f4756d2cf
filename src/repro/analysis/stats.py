"""Statistics over campaign results.

Two questions recur when intrusion injection is used for assessment:

* *is version A's handling of injected states significantly better
  than version B's?* — answered with Fisher's exact test over the
  handled/violated contingency table;
* *how confident are we in a fuzz campaign's outcome rates?* —
  answered with bootstrap confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.analysis.report import VersionSummary, summarize_by_version
from repro.core.campaign import RunResult
from repro.core.fuzz import FuzzReport


@dataclass
class HandlingComparison:
    """Fisher's exact test between two versions' handling outcomes."""

    version_a: str
    version_b: str
    handled_a: int
    violated_a: int
    handled_b: int
    violated_b: int
    odds_ratio: float
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05

    def render(self) -> str:
        return (
            f"Xen {self.version_a} handled {self.handled_a}/"
            f"{self.handled_a + self.violated_a} vs Xen {self.version_b} "
            f"{self.handled_b}/{self.handled_b + self.violated_b} "
            f"(Fisher p={self.p_value:.3f}"
            f"{', significant' if self.significant else ''})"
        )


def fisher_exact_2x2(a: int, b: int, c: int, d: int) -> Tuple[float, float]:
    """Fisher's exact test on the 2x2 table ``[[a, b], [c, d]]``.

    Returns ``(odds_ratio, p_value)`` as ``scipy.stats.fisher_exact``
    does: the sample odds ratio ``a*d / (b*c)`` (``inf`` when ``b*c``
    is 0, ``nan`` when a row or column is empty) and the two-sided
    p-value — the summed hypergeometric probability of every table
    with the observed margins that is at most ``(1 + 1e-7)`` times as
    likely as the observed one.  The probabilities share one
    denominator, so the comparison runs on exact integer weights.
    """
    row, col, n = a + b, a + c, a + b + c + d
    if 0 in (row, col, n - row, n - col):
        return math.nan, 1.0
    odds_ratio = a * d / (b * c) if b * c else math.inf

    def weight(x: int) -> int:
        # C(n, row) * P(top-left cell == x) under fixed margins.
        return math.comb(col, x) * math.comb(n - col, row - x)

    observed = weight(a)
    tail = sum(
        w
        for w in map(weight, range(max(0, row + col - n), min(row, col) + 1))
        if w * 10**7 <= observed * (10**7 + 1)
    )
    return odds_ratio, min(1.0, tail / math.comb(n, row))


def compare_handling(
    results: Sequence[RunResult], version_a: str, version_b: str
) -> HandlingComparison:
    """Compare two versions' injected-state handling (RQ3 with a
    p-value).  With only four use cases per version the test is
    underpowered — which is itself useful to report — but campaigns
    with many IMs produce meaningful contrasts."""
    summaries = summarize_by_version(results)
    a = summaries.get(version_a, VersionSummary(version=version_a))
    b = summaries.get(version_b, VersionSummary(version=version_b))
    odds_ratio, p_value = fisher_exact_2x2(
        a.handled, a.violated, b.handled, b.violated
    )
    return HandlingComparison(
        version_a=version_a,
        version_b=version_b,
        handled_a=a.handled,
        violated_a=a.violated,
        handled_b=b.handled,
        violated_b=b.violated,
        odds_ratio=float(odds_ratio) if math.isfinite(odds_ratio) else float("inf"),
        p_value=float(p_value),
    )


@dataclass
class RateInterval:
    """A bootstrap confidence interval for an outcome rate."""

    component: str
    outcome: str
    rate: float
    low: float
    high: float

    def render(self) -> str:
        return (
            f"{self.component}: P[{self.outcome}] = {self.rate:.2f} "
            f"(95% CI {self.low:.2f}..{self.high:.2f})"
        )


def bootstrap_rate(
    report: FuzzReport,
    component: str,
    outcome: str,
    n_boot: int = 2000,
    seed: int = 7,
) -> RateInterval:
    """Bootstrap CI for one component's outcome rate in a fuzz run."""
    hits = [r for r in report.results if r.component == component]
    if not hits:
        return RateInterval(component, outcome, 0.0, 0.0, 0.0)
    indicator = np.array([1.0 if r.outcome == outcome else 0.0 for r in hits])
    rng = np.random.default_rng(seed)
    samples = rng.choice(indicator, size=(n_boot, indicator.size), replace=True)
    means = samples.mean(axis=1)
    low, high = np.percentile(means, [2.5, 97.5])
    return RateInterval(
        component=component,
        outcome=outcome,
        rate=float(indicator.mean()),
        low=float(low),
        high=float(high),
    )


def handling_scores(results: Sequence[RunResult]) -> Dict[str, float]:
    """Per-version handling rate (RQ3's simple indicator)."""
    return {
        version: summary.handling_rate
        for version, summary in summarize_by_version(results).items()
    }
