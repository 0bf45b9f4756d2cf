"""Tests for the security benchmark (the paper's future-work goal)."""

import pytest

from repro.core.benchmarking import (
    AVAILABILITY,
    CONFIDENTIALITY,
    INTEGRITY,
    ScoreCard,
    ItemResult,
    SecurityBenchmark,
    default_suite,
)
from repro.xen.versions import XEN_4_6, XEN_4_8, XEN_4_13


@pytest.fixture(scope="module")
def cards():
    benchmark = SecurityBenchmark()
    return {v.name: benchmark.score(v) for v in (XEN_4_6, XEN_4_8, XEN_4_13)}


class TestSuite:
    def test_eight_items(self):
        assert len(default_suite()) == 8

    def test_attributes_covered(self):
        attributes = {item.attribute for item in default_suite()}
        assert attributes == {CONFIDENTIALITY, INTEGRITY, AVAILABILITY}

    def test_paper_use_cases_included(self):
        names = {item.name for item in default_suite()}
        assert {"XSA-212-crash", "XSA-212-priv", "XSA-148-priv",
                "XSA-182-test"} <= names


class TestScoring:
    def test_all_states_injectable_everywhere(self, cards):
        for card in cards.values():
            assert card.injected == 8, card.version

    def test_46_and_48_handle_nothing(self, cards):
        assert cards["4.6"].handled == 0
        assert cards["4.8"].handled == 0

    def test_413_handles_the_two_integrity_states(self, cards):
        card = cards["4.13"]
        assert card.handled == 2
        handled, total = card.by_attribute()[INTEGRITY]
        assert (handled, total) == (2, 2)

    def test_413_availability_unprotected(self, cards):
        handled, total = cards["4.13"].by_attribute()[AVAILABILITY]
        assert handled == 0 and total == 4

    def test_handling_rates(self, cards):
        assert cards["4.6"].handling_rate == 0.0
        assert cards["4.13"].handling_rate == pytest.approx(0.25)


class TestRanking:
    def test_413_ranks_first(self):
        benchmark = SecurityBenchmark()
        ranked = benchmark.rank((XEN_4_6, XEN_4_13, XEN_4_8))
        assert ranked[0].version == "4.13"

    def test_render(self, cards):
        text = cards["4.13"].render()
        assert "security score card — Xen 4.13" in text
        assert "HANDLED" in text
        assert "overall handling rate: 25%" in text


class TestScoreCardMechanics:
    def test_empty_card(self):
        card = ScoreCard(version="x")
        assert card.handling_rate == 0.0

    def test_not_injected_item(self):
        card = ScoreCard(
            version="x",
            items=[ItemResult("a", INTEGRITY, injected=False, violated=False)],
        )
        assert card.injected == 0
        assert "not injected" in card.render()

    def test_handled_property(self):
        handled = ItemResult("a", INTEGRITY, injected=True, violated=False)
        violated = ItemResult("b", INTEGRITY, injected=True, violated=True)
        assert handled.handled and not violated.handled


class TestOneEngine:
    def test_custom_factory_runs_every_item_on_its_own_bed(self):
        from repro.core.testbed import build_testbed
        from repro.runner import SerialRunner

        calls = []

        def factory(version):
            calls.append(version.name)
            return build_testbed(version)

        benchmark = SecurityBenchmark(testbed_factory=factory)
        card = benchmark.score(XEN_4_13)
        assert calls == ["4.13"] * len(default_suite())
        assert card == SecurityBenchmark().score(XEN_4_13)
        with pytest.raises(ValueError, match="cannot cross process boundaries"):
            benchmark.score(XEN_4_13, runner=SerialRunner())
