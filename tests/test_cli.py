"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestTables:
    def test_table1(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        assert "Memory Access - 35 CVEs" in out

    def test_table2(self, capsys):
        code, out = run_cli(capsys, "table2")
        assert code == 0
        assert "Write Page Table Entries" in out

    def test_table3(self, capsys):
        code, out = run_cli(capsys, "table3")
        assert code == 0
        assert "SHIELD" in out

    def test_rq1(self, capsys):
        code, out = run_cli(capsys, "rq1")
        assert code == 0
        assert "4/4 use cases" in out

    def test_rq2(self, capsys):
        code, out = run_cli(capsys, "rq2")
        assert code == 0
        assert "all exploits failed" in out

    def test_sigint_during_table3_is_a_resumable_interrupt(self, capsys):
        import os
        import signal
        from unittest import mock

        from repro.core.campaign import Campaign

        cells = []
        original_run = Campaign.run

        def interrupted_run(self, *args):
            cells.append(args)
            os.kill(os.getpid(), signal.SIGINT)
            return original_run(self, *args)

        with mock.patch.object(Campaign, "run", interrupted_run):
            code = main(["table3"])
        assert code == 130
        assert len(cells) == 1  # the cell running at the signal finishes
        assert capsys.readouterr().err.startswith("interrupted: ")


class TestRun:
    def test_run_injection(self, capsys):
        code, out = run_cli(
            capsys, "run", "--use-case", "XSA-212-crash",
            "--version", "4.8", "--mode", "injection",
        )
        assert code == 0
        assert "violation:YES (hypervisor crash)" in out

    def test_run_exploit_failure_reported(self, capsys):
        code, out = run_cli(
            capsys, "run", "--use-case", "XSA-182-test",
            "--version", "4.13", "--mode", "exploit",
        )
        assert code == 0
        assert "failure:" in out

    def test_run_verbose_dumps_logs(self, capsys):
        _, out = run_cli(
            capsys, "run", "--use-case", "XSA-182-test",
            "--version", "4.6", "--mode", "exploit", "--verbose",
        )
        assert "--- guest log ---" in out
        assert "--- Xen console ---" in out

    def test_bad_use_case_rejected(self, capsys):
        code = main(["run", "--use-case", "XSA-999", "--version", "4.6"])
        assert code == 2
        assert "unknown use case" in capsys.readouterr().err

    def test_synthetic_use_case_runs(self, capsys):
        code, out = run_cli(
            capsys, "run", "--use-case", "syn-2023-0003-bounds-error",
            "--version", "4.6", "--mode", "injection",
        )
        assert code == 0
        assert "err-state:YES" in out


class TestCampaign:
    def test_campaign_prints_summaries(self, capsys):
        code, out = run_cli(capsys, "campaign")
        assert code == 0
        assert out.count("[XSA-") == 24  # 4 use cases x 3 versions x 2 modes

    def test_campaign_writes_artifacts(self, capsys, tmp_path):
        json_path = tmp_path / "results.json"
        md_path = tmp_path / "report.md"
        code, _ = run_cli(
            capsys, "campaign", "--json", str(json_path),
            "--markdown", str(md_path),
        )
        assert code == 0
        parsed = json.loads(json_path.read_text())
        assert len(parsed) == 24
        assert md_path.read_text().startswith("# Intrusion-injection campaign")


class TestStudyAndVersions:
    def test_study_default(self, capsys):
        _, out = run_cli(capsys, "study")
        assert "TABLE I" in out

    def test_study_by_year(self, capsys):
        _, out = run_cli(capsys, "study", "--by-year")
        totals = sum(int(line.split(": ")[1]) for line in out.strip().splitlines())
        assert totals == 100

    def test_study_by_component(self, capsys):
        _, out = run_cli(capsys, "study", "--by-component")
        assert "grant tables" in out

    def test_versions(self, capsys):
        _, out = run_cli(capsys, "versions")
        assert "Xen 4.6" in out
        assert "linear-pt-alias-removed" in out

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestBenchmarkAndFuzz:
    def test_benchmark_ranks_413_first(self, capsys):
        code, out = run_cli(capsys, "benchmark", "--versions", "4.8", "4.13")
        assert code == 0
        assert out.index("Xen 4.13") < out.index("Xen 4.8")
        assert "overall handling rate: 25%" in out

    def test_fuzz_renders_components(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--runs", "2", "--seed", "1")
        assert code == 0
        assert "random erroneous-state campaign" in out
        assert "victim-data" in out

    def test_fuzz_version_selectable(self, capsys):
        _, out = run_cli(capsys, "fuzz", "--version", "4.8", "--runs", "1")
        assert "Xen 4.8" in out

    def test_coverage(self, capsys):
        code, out = run_cli(capsys, "coverage")
        assert code == 0
        assert "functionalities covered: 11/16" in out


class TestTestcaseCommand:
    def test_list(self, capsys):
        code, out = run_cli(capsys, "testcase", "list")
        assert code == 0
        assert "xsa-212-crash" in out
        assert "[extension/availability]" in out

    def test_run_single(self, capsys):
        code, out = run_cli(
            capsys, "testcase", "run", "xsa-182-test", "--version", "4.13"
        )
        assert code == 0
        assert "handled (no violation)" in out

    def test_run_missing_name(self, capsys):
        assert main(["testcase", "run"]) == 2

    def test_run_unknown_name(self, capsys):
        assert main(["testcase", "run", "xsa-999"]) == 2
        assert "known:" in capsys.readouterr().err

    def test_suite(self, capsys):
        code, out = run_cli(capsys, "testcase", "suite", "--version", "4.13")
        assert code == 0
        assert "handled 2/8" in out


class TestPoolOptionErrors:
    """An option the pool refuses ends in the same clean ``error:`` exit
    as ``--jobs 0``: no traceback, and no job run with a budget that
    fails it."""

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--jobs", "0", "--jobs"),
            ("--batch", "0", "batch"),
            ("--recycle-after", "0", "recycle_after"),
            ("--timeout", "-1", "timeout"),
            ("--heartbeat-timeout", "-1", "liveness_grace"),
        ],
    )
    def test_fuzz_exits_cleanly(self, flag, value, named):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--runs", "1", "--jobs", "2", flag, value])
        assert str(exc.value.code).startswith(f"error: {named}")

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--jobs", "0", "jobs"),
            ("--timeout", "-1", "timeout"),
            ("--heartbeat-timeout", "-1", "liveness_grace"),
        ],
    )
    def test_serve_exits_before_binding(
        self, tmp_path, monkeypatch, flag, value, named
    ):
        from repro.service import server

        def bind(*args, **kwargs):
            raise AssertionError("serve started with an option the pool refuses")

        monkeypatch.setattr(server, "serve", bind)
        data_dir = tmp_path / "data"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--data-dir", str(data_dir), "--jobs", "2", flag, value])
        assert str(exc.value.code).startswith(f"error: {named}")
        assert not data_dir.exists()
