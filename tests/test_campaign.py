"""Unit tests for the campaign runner and run results."""

import pytest

from repro.core.campaign import Campaign, Mode
from repro.core.comparison import compare_runs
from repro.exploits import XSA148Priv, XSA182Test, XSA212Crash
from repro.exploits.base import ExploitFailed
from repro.xen.versions import XEN_4_6, XEN_4_8, XEN_4_13


@pytest.fixture(scope="module")
def campaign():
    return Campaign()


class TestSingleRun:
    def test_result_carries_metadata(self, campaign):
        result = campaign.run(XSA212Crash, XEN_4_6, Mode.EXPLOIT)
        assert result.use_case == "XSA-212-crash"
        assert result.version == "4.6"
        assert result.mode is Mode.EXPLOIT

    def test_console_and_guest_log_captured(self, campaign):
        result = campaign.run(XSA212Crash, XEN_4_6, Mode.EXPLOIT)
        assert result.console
        assert result.guest_log

    def test_fresh_testbed_per_run(self, campaign):
        """A crash in one run must not leak into the next."""
        first = campaign.run(XSA212Crash, XEN_4_6, Mode.EXPLOIT)
        assert first.crashed
        second = campaign.run(XSA182Test, XEN_4_6, Mode.EXPLOIT)
        assert not second.crashed

    def test_summary_mentions_everything(self, campaign):
        result = campaign.run(XSA212Crash, XEN_4_6, Mode.EXPLOIT)
        assert "XSA-212-crash" in result.summary
        assert "4.6" in result.summary
        assert "err-state:YES" in result.summary
        assert "violation:YES" in result.summary

    def test_summary_shield_wording(self, campaign):
        result = campaign.run(XSA182Test, XEN_4_13, Mode.INJECTION)
        assert "violation:no (handled)" in result.summary


class TestMatrices:
    def test_run_matrix_cardinality(self, campaign):
        results = campaign.run_matrix(
            [XSA212Crash], [XEN_4_6, XEN_4_8], [Mode.INJECTION]
        )
        assert len(results) == 2

    def test_rq1_pairs_are_exploit_then_injection(self, campaign):
        pairs = campaign.rq1_runs([XSA182Test], XEN_4_6)
        (exploit, injection), = pairs
        assert exploit.mode is Mode.EXPLOIT
        assert injection.mode is Mode.INJECTION

    def test_table3_keys(self, campaign):
        cells = campaign.table3_runs([XSA182Test], [XEN_4_8, XEN_4_13])
        assert set(cells) == {("XSA-182-test", "4.8"), ("XSA-182-test", "4.13")}
        assert all(r.mode is Mode.INJECTION for r in cells.values())


class TestComparison:
    def test_equivalent_pair(self, campaign):
        exploit, injection = campaign.rq1_runs([XSA148Priv], XEN_4_6)[0]
        verdict = compare_runs(exploit, injection)
        assert verdict.equivalent
        assert "EQUIVALENT" in verdict.render()

    def test_non_equivalent_pair_detected(self, campaign):
        """Exploit on 4.8 fails while injection succeeds — comparing
        them must yield non-equivalence with explanatory notes."""
        exploit = campaign.run(XSA148Priv, XEN_4_8, Mode.EXPLOIT)
        injection = campaign.run(XSA148Priv, XEN_4_8, Mode.INJECTION)
        verdict = compare_runs(exploit, injection)
        assert not verdict.equivalent
        assert verdict.notes

    def test_mismatched_use_cases_rejected(self, campaign):
        a = campaign.run(XSA148Priv, XEN_4_6, Mode.EXPLOIT)
        b = campaign.run(XSA182Test, XEN_4_6, Mode.EXPLOIT)
        with pytest.raises(ValueError):
            compare_runs(a, b)

    def test_mismatched_versions_rejected(self, campaign):
        a = campaign.run(XSA182Test, XEN_4_6, Mode.EXPLOIT)
        b = campaign.run(XSA182Test, XEN_4_8, Mode.EXPLOIT)
        with pytest.raises(ValueError):
            compare_runs(a, b)


class TestCustomTestbedFactory:
    def test_injector_free_testbed(self):
        from repro.core.testbed import build_testbed

        campaign = Campaign(
            testbed_factory=lambda v: build_testbed(v, enable_injector=False)
        )
        result = campaign.run(XSA212Crash, XEN_4_8, Mode.INJECTION)
        assert not result.erroneous_state.achieved
        assert "rc=" in result.failure


class TestOneEngine:
    """Every matrix runs on a runner; no setting is dropped on the way."""

    def test_table3_custom_factory_called_once_per_cell(self):
        from repro.core.testbed import build_testbed

        calls = []

        def factory(version):
            calls.append(version.name)
            return build_testbed(version)

        campaign = Campaign(testbed_factory=factory)
        cells = campaign.table3_runs([XSA182Test, XSA212Crash], [XEN_4_8, XEN_4_13])
        assert calls == ["4.8", "4.13", "4.8", "4.13"]
        for use_case in (XSA182Test, XSA212Crash):
            for version in (XEN_4_8, XEN_4_13):
                alone = campaign.run(use_case, version, Mode.INJECTION)
                cell = cells[(use_case.name, version.name)]
                assert cell.summary == alone.summary

    def test_custom_factory_refused_by_a_pool(self):
        from repro.core.testbed import build_testbed
        from repro.runner import WorkerPool

        campaign = Campaign(testbed_factory=lambda v: build_testbed(v))
        with pytest.raises(ValueError, match="cannot cross process boundaries"):
            campaign.run_matrix([XSA182Test], [XEN_4_13], runner=WorkerPool(jobs=2))

    def test_trace_keep_always_is_honoured_serially(self, tmp_path):
        campaign = Campaign(trace_dir=str(tmp_path), trace_keep="always")
        results = campaign.run_matrix([XSA182Test], [XEN_4_13])
        assert len(list(tmp_path.iterdir())) == 2
        assert all(r.trace is not None for r in results)

    def test_trace_keep_always_is_refused_by_a_runner(self, tmp_path):
        from repro.runner import SerialRunner

        campaign = Campaign(trace_dir=str(tmp_path), trace_keep="always")
        with pytest.raises(ValueError, match="trace_keep='always'"):
            campaign.run_matrix([XSA182Test], [XEN_4_13], runner=SerialRunner())
        assert list(tmp_path.iterdir()) == []

    def test_unregistered_use_case_and_derived_version(self):
        from repro.runner import SerialRunner
        from repro.xen.versions import Vulnerability

        class Unnamed(XSA148Priv):
            """A subclass that inherits its name and so never registers."""

            def run_injection(self, bed):
                raise ExploitFailed("this subclass injects nothing")

        without_148 = XEN_4_6.derive(remove_vulns=[Vulnerability.XSA_148])
        campaign = Campaign()
        injection, = campaign.run_matrix([Unnamed], [XEN_4_6], [Mode.INJECTION])
        assert injection.failure == "injection failed: this subclass injects nothing"
        exploit, = campaign.run_matrix([XSA148Priv], [without_148], [Mode.EXPLOIT])
        assert exploit.version == "4.6*" and not exploit.violation.occurred
        for use_case, version in ((Unnamed, XEN_4_6), (XSA148Priv, without_148)):
            with pytest.raises(ValueError, match="unregistered|unshipped"):
                campaign.run_matrix([use_case], [version], runner=SerialRunner())

    def test_failing_cell_fails_the_matrix_after_the_rest_ran(self):
        from repro.runner import CampaignFailed

        ran = []

        class Broken(XSA182Test, register=False):
            name = "broken"

            def run_injection(self, bed):
                raise RuntimeError("broken script")

        class Counted(XSA182Test, register=False):
            name = "counted"

            def run_injection(self, bed):
                ran.append(True)
                super().run_injection(bed)

        with pytest.raises(CampaignFailed, match="broken script"):
            Campaign().run_matrix([Broken, Counted], [XEN_4_13], [Mode.INJECTION])
        assert ran == [True]
