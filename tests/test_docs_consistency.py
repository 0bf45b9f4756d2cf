"""Documentation consistency: the markdown files must not drift.

EXPERIMENTS.md and DESIGN.md reference modules, benchmarks and
examples by path; these tests fail the suite when a referenced
artefact disappears (or a new benchmark is never documented).
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
THROUGHPUT_BENCH = "benchmarks/bench_runner_throughput.py"


def _text(name: str) -> str:
    return (ROOT / name).read_text()


class TestExperimentsMd:
    def test_every_referenced_bench_exists(self):
        text = _text("EXPERIMENTS.md")
        for match in re.findall(r"bench_[a-z0-9_]+\.py", text):
            assert (ROOT / "benchmarks" / match).exists(), match

    def test_every_bench_is_documented(self):
        text = _text("EXPERIMENTS.md")
        for bench in (ROOT / "benchmarks").glob("bench_*.py"):
            assert bench.name in text, f"{bench.name} missing from EXPERIMENTS.md"

    def test_final_run_commands_present(self):
        text = _text("EXPERIMENTS.md")
        assert "pytest tests/ 2>&1 | tee test_output.txt" in text
        assert "pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt" in text


class TestDesignMd:
    def test_referenced_modules_exist(self):
        text = _text("DESIGN.md")
        for match in set(re.findall(r"`repro\.([a-z_.]+)`", text)):
            parts = match.split(".")
            base = ROOT / "src" / "repro"
            as_module = base.joinpath(*parts[:-1], parts[-1] + ".py")
            as_package = base.joinpath(*parts, "__init__.py")
            assert as_module.exists() or as_package.exists(), match

    def test_referenced_examples_exist(self):
        text = _text("DESIGN.md")
        for match in set(re.findall(r"examples/([a-z_0-9]+\.py)", text)):
            assert (ROOT / "examples" / match).exists(), match

    def test_no_title_mismatch_flag(self):
        # DESIGN.md §0 confirms the provided text matched the paper.
        assert "no\ntitle collision" in _text("DESIGN.md") or \
            "no title collision" in _text("DESIGN.md")


class TestReadme:
    def test_examples_table_matches_directory(self):
        text = _text("README.md")
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in text, f"{example.name} missing from README"

    def test_quickstart_snippet_runs(self):
        """The README's code snippet must stay executable."""
        from repro import IntrusionInjector, XEN_4_13, build_testbed
        from repro.errors import HypervisorCrash

        bed = build_testbed(XEN_4_13)
        injector = IntrusionInjector(bed.attacker_domain.kernel)
        gate_va = bed.xen.sidt(0) + 14 * 16
        assert injector.write_word(gate_va, 0xDEAD_BEEF_DEAD_BEEF) == 0
        with pytest.raises(Exception) as excinfo:
            bed.attacker_domain.kernel.trigger_page_fault()
        assert isinstance(excinfo.value, HypervisorCrash)

    def test_campaign_snippet_runs(self):
        from repro import Campaign, Mode, XEN_4_8
        from repro.exploits import XSA182Test

        result = Campaign().run(XSA182Test, XEN_4_8, Mode.INJECTION)
        assert "err-state:YES" in result.summary


class TestPaperMapping:
    def test_referenced_files_exist(self):
        text = _text("docs/paper_mapping.md")
        for match in set(re.findall(r"`(benchmarks|examples|tests)/([a-z_0-9]+\.py)`", text)):
            directory, name = match
            assert (ROOT / directory / name).exists(), f"{directory}/{name}"


class TestQuotedThroughputFigures:
    """Figures the docs quote from the throughput artifacts match them.

    ``runner_throughput.json`` backs the fork-server figures (in the
    docs and in the docstring of the benchmark that writes it) and
    ``service_throughput.json`` the service-overhead ones.

    Each quoted figure is the artifact's value rounded to the number of
    decimals the prose shows, so re-archiving the artifact without
    updating the prose (or the reverse) fails here.
    """

    @pytest.fixture(scope="class")
    def artifact(self):
        import json

        path = ROOT / "benchmarks" / "output" / "runner_throughput.json"
        return json.loads(path.read_text())

    @pytest.fixture(scope="class")
    def service_artifact(self):
        import json

        path = ROOT / "benchmarks" / "output" / "service_throughput.json"
        return json.loads(path.read_text())

    @staticmethod
    def _quoted(doc: str, pattern: str) -> tuple:
        text = " ".join(_text(doc).split())
        match = re.search(pattern, text)
        assert match, f"{doc} no longer quotes {pattern!r}"
        return match.groups()

    @staticmethod
    def _rounds_to(value: float, quoted: str) -> bool:
        decimals = len(quoted.partition(".")[2])
        return f"{value:.{decimals}f}" == quoted

    def _check_restore_vs_boot(self, artifact, doc, pattern):
        restore, boot = self._quoted(doc, pattern)
        block = artifact["restore_vs_boot"]
        assert self._rounds_to(block["restore_ms_p50"], restore), restore
        assert self._rounds_to(block["boot_ms_p50"], boot), boot

    def test_design_restore_and_boot_times(self, artifact):
        self._check_restore_vs_boot(
            artifact, "DESIGN.md",
            r"restore of a trial-dirtied bed takes ([\d.]+) ms "
            r"against a ([\d.]+) ms cold boot",
        )

    def test_experiments_restore_and_boot_times(self, artifact):
        self._check_restore_vs_boot(
            artifact, "EXPERIMENTS.md",
            r"restore` of a trial-dirtied bed took ([\d.]+) ms "
            r"against a ([\d.]+) ms `build_testbed`",
        )

    def _check_fork_server_curve(self, artifact, doc, pattern):
        quoted = self._quoted(doc, pattern)
        curve = {
            row["workers"]: row["jobs_per_s"]
            for row in artifact["matrix"]
            if row["mode"] == "fork-server" and row["jobs"] == 3000
        }
        for workers, figure in zip((1, 2, 4, 8), quoted):
            assert self._rounds_to(curve[workers], figure), (workers, figure)

    def test_experiments_fork_server_curve(self, artifact):
        self._check_fork_server_curve(
            artifact, "EXPERIMENTS.md",
            r"At 3000 jobs 1 → 2 workers went ([\d.]+) → ([\d.]+) jobs/s, "
            r"and 4 and 8 workers gave ([\d.]+) and ([\d.]+)",
        )

    def test_benchmark_docstring_fork_server_curve(self, artifact):
        self._check_fork_server_curve(
            artifact, THROUGHPUT_BENCH,
            r"at 3000 jobs, 1 -> 2 workers went ([\d.]+) -> ([\d.]+) jobs/s, "
            r"and 4 and 8 workers on the same two CPUs gave ([\d.]+) and ([\d.]*\d)",
        )

    def test_benchmark_docstring_pool_vs_serial(self, artifact):
        quoted = self._quoted(
            THROUGHPUT_BENCH,
            r"30-job campaign, ([\d.]+) vs ([\d.]+) jobs/s in the archived "
            r"run \(([\d.]+) s vs ([\d.]+) s\)",
        )
        rows = {
            row["mode"]: row for row in artifact["matrix"] if row["jobs"] == 30
        }
        pool, serial = rows["worker-pool"], rows["serial"]
        figures = (
            pool["jobs_per_s"], serial["jobs_per_s"], pool["wall_s"], serial["wall_s"]
        )
        for value, figure in zip(figures, quoted):
            assert self._rounds_to(value, figure), (value, figure)

    @pytest.mark.parametrize("doc", ["README.md", "EXPERIMENTS.md"])
    def test_archived_service_overhead_ratio(self, service_artifact, doc):
        (ratio,) = self._quoted(doc, r"([\d.]+)x archived")
        assert self._rounds_to(service_artifact["overhead_ratio"], ratio), ratio

    def test_experiments_service_wall_ranges(self, service_artifact):
        """The archived run is the slowest-service, fastest-pool one of
        the three quoted, so its walls are the ranges' outer ends."""
        service_lo, service_hi, direct_lo, direct_hi = self._quoted(
            "EXPERIMENTS.md",
            r"wall time \(([\d.]+)–([\d.]+) s vs ([\d.]+)–([\d.]+) s; "
            r"[\d.]+x archived",
        )
        assert self._rounds_to(service_artifact["service"]["wall_s"], service_hi)
        assert self._rounds_to(service_artifact["direct"]["wall_s"], direct_lo)
        assert float(service_lo) <= float(service_hi)
        assert float(direct_lo) <= float(direct_hi)


class TestQuotedCommitInterval:
    """The commit interval and loss bound the docs quote are the
    runner's ``_COMMIT_INTERVAL``."""

    @staticmethod
    def _seconds(text: str, pattern: str) -> float:
        text = " ".join(text.split())
        match = re.search(pattern, text)
        assert match, f"no longer quoted: {pattern!r}"
        return float(match.group(1))

    @pytest.fixture(scope="class")
    def durability(self) -> str:
        text = _text("DESIGN.md")
        start = text.index("### Store durability")
        return text[start:text.index("\n## ", start)]

    @pytest.mark.parametrize("pattern", [
        r"`_COMMIT_INTERVAL` \(([\d.]+) s",
        r"within one interval \(([\d.]+) s\) of the last commit",
        r"at most ([\d.]+) s of finished work per worker",
    ], ids=["interval", "loss-bound", "per-worker"])
    def test_design_store_durability(self, durability, pattern):
        from repro.runner import pool

        assert self._seconds(durability, pattern) == pool._COMMIT_INTERVAL

    @pytest.mark.parametrize("pattern", [
        r"once ([\d.]+) s \(``repro\.runner\.pool\._COMMIT_INTERVAL``\)",
        r"finished within ([\d.]+) s of the last commit",
    ], ids=["interval", "loss-bound"])
    def test_store_docstring(self, pattern):
        from repro.runner import pool, store

        assert self._seconds(store.__doc__, pattern) == pool._COMMIT_INTERVAL


class TestQuotedSerialCachePairs:
    """The serial snapshot-cache entry in EXPERIMENTS.md quotes the
    medians and quartiles of the benchmark pairs archived beside it."""

    ARCHIVE = ROOT / "benchmarks" / "output" / "serial_snapshot_cache_pairs.json"

    @pytest.fixture(scope="class")
    def pairs(self):
        import json

        return json.loads(self.ARCHIVE.read_text())["workloads"]

    @staticmethod
    def _summary(runs, side, metric):
        import statistics

        values = [run[side][metric] for run in runs]
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3

    @pytest.mark.parametrize(
        "workload", ["fuzz-serial", "fuzz-fork", "matrix-fork", "service-tenants"]
    )
    def test_jobs_per_s_medians_and_quartiles(self, pairs, workload):
        runs = pairs[workload]
        quoted = TestQuotedThroughputFigures._quoted(
            "EXPERIMENTS.md",
            rf"\| {workload} \| {len(runs)} \({runs[0]['seed']}–"
            rf"{runs[-1]['seed']}\) \| ([\d.]+) \[([\d.]+)–([\d.]+)\] → "
            r"([\d.]+) \[([\d.]+)–([\d.]+)\]",
        )
        figures = self._summary(runs, "parent", "jobs_per_s") + self._summary(
            runs, "change", "jobs_per_s"
        )
        for value, figure in zip(figures, quoted):
            assert TestQuotedThroughputFigures._rounds_to(value, figure), (
                value, figure,
            )

    def test_fuzz_serial_campaign_p50_medians(self, pairs):
        runs = pairs["fuzz-serial"]
        quoted = TestQuotedThroughputFigures._quoted(
            "EXPERIMENTS.md",
            r"serial `campaign_p50_s` went ([\d.]+) → ([\d.]+) s",
        )
        figures = [
            self._summary(runs, side, "campaign_p50_s")[0]
            for side in ("parent", "change")
        ]
        for value, figure in zip(figures, quoted):
            assert TestQuotedThroughputFigures._rounds_to(value, figure), (
                value, figure,
            )

    def test_every_archived_run_was_correct(self, pairs):
        for workload, runs in pairs.items():
            for run in runs:
                for side in ("parent", "change"):
                    assert run[side]["correct"], (workload, run["seed"], side)
                    assert run[side]["failed"] == 0, (workload, run["seed"], side)
