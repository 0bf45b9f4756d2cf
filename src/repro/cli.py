"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1`` / ``table2`` / ``table3`` / ``rq1`` / ``rq2`` — regenerate
  the paper's tables and research-question results;
* ``run --use-case U --version V --mode M`` — one experiment;
* ``campaign [--json PATH] [--markdown PATH]`` — the full matrix with
  optional report artefacts;
* ``study [--by-year | --by-component]`` — the Table I dataset;
* ``versions`` — the shipped hypervisor configurations.

The ``campaign``, ``fuzz``, ``benchmark`` and ``testcase`` commands
accept runner flags: ``--jobs N`` executes on a worker pool (fault
isolation, per-job ``--timeout``), ``--store PATH`` persists every
job to SQLite, and ``--resume PATH`` re-launches a half-finished
campaign without re-running completed jobs.  ``--jobs 1`` without a
store keeps each command's serial default and its exact output: the
in-process loops of ``campaign``, classic ``fuzz`` and ``benchmark``,
and the serial job runner for ``testcase suite`` and ``fuzz --coverage``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.report import render_markdown_report, results_to_json
from repro.analysis.tables import (
    render_rq1,
    render_rq2,
    render_table1,
    render_table2,
    render_table3,
)
from repro.core.campaign import Campaign, Mode
from repro.core.comparison import compare_runs
from repro.cvedata import FunctionalityStudy
from repro.exploits import USE_CASE_BY_NAME, USE_CASES
from repro.xen.versions import ALL_VERSIONS, XEN_4_6, version_by_name


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """Campaign-execution flags shared by the heavy commands."""
    group = parser.add_argument_group("execution")
    group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1 = serial in-process, the default)",
    )
    group.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (parallel runs only)",
    )
    group.add_argument(
        "--fork-server", action="store_true",
        help="persistent snapshot-cached workers: boot once per worker, "
        "restore a verified checkpoint per trial (fastest for "
        "fuzz campaigns; implies --jobs workers stay warm)",
    )
    group.add_argument(
        "--batch", type=int, default=8, metavar="N",
        help="jobs dispatched to a fork-server worker at a time",
    )
    group.add_argument(
        "--recycle-after", type=int, default=256, metavar="N",
        help="recycle a pool worker after serving N jobs",
    )
    group.add_argument(
        "--heartbeat-timeout", type=float, default=30.0, metavar="SECONDS",
        help="worker heartbeat grace before a wedged worker is killed "
        "(parallel runs only; default 30)",
    )
    group.add_argument(
        "--backoff-cap", type=float, default=5.0, metavar="SECONDS",
        help="ceiling on the exponential retry backoff (default 5)",
    )
    group.add_argument(
        "--store", metavar="PATH",
        help="persist jobs and results to a SQLite store",
    )
    group.add_argument(
        "--resume", metavar="PATH",
        help="resume from an existing store, skipping completed jobs",
    )


def _runner_from_args(args):
    """(runner, store) from the execution flags.

    Returns ``(None, None)`` when the plain serial path applies: the
    command's entry point then runs its jobs on its default engine, a
    :class:`~repro.runner.SerialRunner`, with its exact output.  For a
    default-configured experiment that runner's job is
    :func:`~repro.runner.execute_job` on the run's snapshot cache, the
    engine the parity oracle checks as ``serial``, so the flags pick
    only the engine and the store.
    """
    if args.jobs < 1:
        raise SystemExit(f"error: --jobs must be at least 1, got {args.jobs}")
    fork_server = getattr(args, "fork_server", False)
    if args.resume and not os.path.exists(args.resume):
        raise SystemExit(f"error: --resume store {args.resume!r} does not exist")
    store_path = args.resume or args.store
    if args.jobs <= 1 and store_path is None and not fork_server:
        return None, None
    from repro.runner import ConsoleRenderer, ResultStore, make_runner

    renderer = ConsoleRenderer() if (args.jobs > 1 or fork_server) else None
    try:
        runner = make_runner(
            jobs=args.jobs, timeout=args.timeout, on_event=renderer,
            max_backoff=getattr(args, "backoff_cap", 5.0),
            liveness_grace=getattr(args, "heartbeat_timeout", 30.0),
            fork_server=fork_server,
            batch=getattr(args, "batch", 8),
            recycle_after=getattr(args, "recycle_after", 256),
        )
    except ValueError as exc:  # an option the pool refuses
        raise SystemExit(f"error: {exc}") from None
    store = ResultStore(store_path) if store_path else None
    if args.resume and store is not None:
        summary = store.summary()
        if summary.total:
            print(f"resuming: {summary.render()}", file=sys.stderr)
    return runner, store


def _add_topology_args(parser: argparse.ArgumentParser) -> None:
    """Scenario-topology flags shared by ``run`` and ``campaign``."""
    group = parser.add_argument_group("scenario topology")
    group.add_argument(
        "--guests", type=int, default=None, metavar="N",
        help="number of unprivileged guests to boot (default 2)",
    )
    group.add_argument(
        "--attacker", metavar="DOMAIN",
        help="domain the adversary drives (default: the last guest)",
    )
    group.add_argument(
        "--victim", metavar="DOMAIN",
        help="domain holding the targeted state (default dom0)",
    )
    group.add_argument(
        "--observer", metavar="DOMAIN",
        help="domain monitors watch for cross-domain observables "
        "(default: the victim)",
    )


def _topology_from_args(args):
    """Build the scenario topology the flags describe.

    Returns ``None`` when no flag was given, so callers pass nothing to
    :class:`Campaign` and the default path stays byte-identical.
    """
    from repro.core.topology import ScenarioTopology, TopologyError

    if getattr(args, "cross_domain", False):
        for flag in ("guests", "attacker", "victim", "observer"):
            if getattr(args, flag, None) is not None:
                raise SystemExit(
                    f"error: --cross-domain fixes the topology; drop --{flag}"
                )
        from repro.core.topology import CROSS_DOMAIN_TOPOLOGY

        return CROSS_DOMAIN_TOPOLOGY
    if all(
        getattr(args, flag, None) is None
        for flag in ("guests", "attacker", "victim", "observer")
    ):
        return None
    try:
        base = ScenarioTopology.paper_default(
            args.guests if args.guests is not None else 2
        )
        return ScenarioTopology(
            num_guests=base.num_guests,
            attacker=args.attacker or base.attacker,
            victim=args.victim or base.victim,
            observer=args.observer or args.victim or base.observer,
        )
    except TopologyError as exc:
        raise SystemExit(f"error: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Intrusion injection for virtualized systems "
        "(DSN 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I: abusive-functionality study")
    sub.add_parser("table2", help="Table II: use cases and functionalities")
    sub.add_parser("table3", help="Table III: injection campaign")
    sub.add_parser("rq1", help="exploit vs injection on Xen 4.6")
    sub.add_parser("rq2", help="original exploits on fixed versions")
    sub.add_parser("versions", help="shipped hypervisor configurations")

    run = sub.add_parser("run", help="one experiment run")
    run.add_argument(
        "--use-case", required=True, metavar="NAME",
        help=f"one of {', '.join(sorted(USE_CASE_BY_NAME))}, or a "
             "synthetic corpus id (syn-<seed>-<index>-<class>)",
    )
    run.add_argument("--version", required=True, help="4.6 / 4.8 / 4.13 / 4.16")
    run.add_argument(
        "--mode", default="injection", choices=["exploit", "injection"]
    )
    run.add_argument("--verbose", action="store_true", help="dump logs")
    run.add_argument(
        "--recover", action="store_true",
        help="microreboot the hypervisor after a crash and report the "
        "recovery outcome (crash-then-recovered / crash-unrecoverable)",
    )
    run.add_argument(
        "--trace", metavar="DIR",
        help="record the run into DIR as a replayable trace (kept when "
        "the run crashes, violates, or recovers)",
    )
    run.add_argument(
        "--metrics", action="store_true",
        help="collect per-trial probe metrics (op counters, hypercall "
        "breakdown, timings) and print them after the run",
    )
    _add_topology_args(run)

    campaign = sub.add_parser("campaign", help="full experiment matrix")
    campaign.add_argument("--json", help="write raw results as JSON")
    campaign.add_argument("--markdown", help="write a markdown report")
    campaign.add_argument(
        "--recover", action="store_true",
        help="run every cell under the microreboot crash watchdog",
    )
    campaign.add_argument(
        "--trace", metavar="DIR",
        help="record every cell into DIR; traces of crashing/violating/"
        "recovering runs are kept as replayable artefacts",
    )
    campaign.add_argument(
        "--metrics", action="store_true",
        help="collect per-trial probe metrics; counters land in the "
        "JSON/markdown artefacts and the result store",
    )
    campaign.add_argument(
        "--cross-domain", action="store_true",
        help="run the cross-domain matrix: the stock inject-in-A/"
        "observe-in-B topology with the xdom-* use cases",
    )
    _add_topology_args(campaign)
    _add_runner_args(campaign)

    replay = sub.add_parser(
        "replay",
        help="re-execute a recorded trace against a fresh machine and "
        "verify outcome and state digests op by op",
    )
    replay.add_argument("trace", help="trace file to replay")
    replay.add_argument(
        "--probe", action="store_true",
        help="probe mode: skip divergence checks, just report the "
        "terminal state",
    )

    triage = sub.add_parser(
        "triage",
        help="delta-debug a crashing trace to a minimal standalone "
        "reproducer plus a triage report",
    )
    triage.add_argument("trace", help="crashing trace file to minimize")
    triage.add_argument(
        "--out", metavar="PATH",
        help="minimized trace destination (default: <trace>.min.trace)",
    )
    triage.add_argument(
        "--report", metavar="PATH",
        help="markdown report destination (default: <trace>.triage.md)",
    )

    study = sub.add_parser("study", help="the 100-CVE dataset")
    study.add_argument("--by-year", action="store_true")
    study.add_argument("--by-component", action="store_true")

    bench = sub.add_parser(
        "benchmark", help="the eight-IM security benchmark, ranked"
    )
    bench.add_argument(
        "--versions", nargs="+", default=["4.6", "4.8", "4.13"],
        help="configurations to score",
    )
    _add_runner_args(bench)

    fuzz = sub.add_parser(
        "fuzz", help="randomized erroneous-state campaign (§IV-C)"
    )
    fuzz.add_argument("--version", default="4.13")
    fuzz.add_argument("--runs", type=int, default=20)
    fuzz.add_argument("--seed", type=int, default=2023)
    coverage_group = fuzz.add_argument_group(
        "coverage-guided mode (synthetic corpus)"
    )
    coverage_group.add_argument(
        "--coverage", action="store_true",
        help="fuzz the synthetic vulnerability corpus with "
        "coverage-guided scheduling instead of uniform component "
        "corruption (probe counters are the coverage map)",
    )
    coverage_group.add_argument(
        "--corpus-seed", type=int, default=2023, metavar="SEED",
        help="root seed of the synthetic corpus (default 2023)",
    )
    coverage_group.add_argument(
        "--corpus-size", type=int, default=32, metavar="N",
        help="corpus entries to generate (default 32)",
    )
    coverage_group.add_argument(
        "--rounds", type=int, default=4, metavar="N",
        help="scheduler rounds (default 4)",
    )
    coverage_group.add_argument(
        "--trials", type=int, default=8, metavar="N",
        help="trials per round (default 8)",
    )
    coverage_group.add_argument(
        "--uniform", action="store_true",
        help="use the uniform baseline scheduler (the control arm)",
    )
    coverage_group.add_argument(
        "--report-json", metavar="PATH",
        help="write the coverage report (schedule digest, novelty "
        "curve, distinct outcomes) as JSON",
    )
    _add_runner_args(fuzz)

    vulngen = sub.add_parser(
        "vulngen",
        help="generate the synthetic hypercall-vulnerability corpus "
        "(deterministic, version-gated, injectable like the real XSAs)",
    )
    vulngen.add_argument(
        "--seed", type=int, default=2023,
        help="corpus root seed (default 2023)",
    )
    vulngen.add_argument(
        "--size", type=int, default=125,
        help="number of entries to generate (default 125)",
    )
    vulngen.add_argument(
        "--manifest", metavar="PATH",
        help="write the canonical JSON manifest (byte-stable, digested)",
    )
    vulngen.add_argument(
        "--resolve", metavar="ID",
        help="resolve one synthetic id back to its full spec and exit",
    )

    sub.add_parser(
        "coverage", help="Table I functionalities vs shipped injectors"
    )

    testcase = sub.add_parser(
        "testcase", help="the §X open test-case list"
    )
    testcase.add_argument(
        "action", choices=["list", "run", "suite"],
    )
    testcase.add_argument("name", nargs="?", help="test case for 'run'")
    testcase.add_argument("--version", default="4.13")
    _add_runner_args(testcase)

    chaos = sub.add_parser(
        "chaos",
        help="run the campaign under seeded infrastructure faults and "
        "assert serial == chaos-parallel store contents",
    )
    chaos.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2, 3], metavar="SEED",
        help="chaos seeds to run (each is an independent campaign)",
    )
    chaos.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="worker processes for the chaos pool",
    )
    chaos.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="per-job wall-clock budget (hanging jobs exceed this)",
    )
    chaos.add_argument(
        "--events", metavar="PATH",
        help="append every runner event as JSON lines (the CI artifact)",
    )
    chaos.add_argument(
        "--trace", metavar="DIR",
        help="record traces for both the serial reference and the "
        "chaos run into DIR/<seed>/{serial,chaos} and assert they are "
        "byte-identical",
    )
    chaos.add_argument(
        "--metrics", action="store_true",
        help="collect probe metrics in every job; the serial-vs-chaos "
        "identity check then covers the metric counters too",
    )
    chaos.add_argument(
        "--metrics-json", metavar="PATH",
        help="write the aggregated metric counters of the serial "
        "reference as JSON (implies --metrics)",
    )
    chaos.add_argument(
        "--pool", choices=("spawn", "fork-server"), default="spawn",
        help="pool mode for the chaos episodes; fork-server adds "
        "snapshot-corruption and restore-wedge faults",
    )
    chaos.add_argument(
        "--report-json", metavar="PATH",
        help="write per-seed chaos reports (episodes, faults, verdict, "
        "store sha256) as JSON — CI compares these across pool modes",
    )

    serve = sub.add_parser(
        "serve",
        help="run the campaign service: HTTP submissions, SSE progress, "
        "per-tenant quotas, crash-safe journal",
    )
    serve.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="service state root (journal, registry, per-tenant shards)",
    )
    serve.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="listen port (0 = ephemeral; the bound port lands in "
        "<data-dir>/service.json)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per campaign runner",
    )
    serve.add_argument(
        "--fork-server", action="store_true",
        help="run campaigns on the snapshot-cached fork-server pool",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget",
    )
    serve.add_argument(
        "--heartbeat-timeout", type=float, default=30.0, metavar="SECONDS",
        help="worker heartbeat grace before a wedged worker is killed",
    )
    serve.add_argument(
        "--backoff-cap", type=float, default=5.0, metavar="SECONDS",
        help="ceiling on the exponential retry backoff",
    )
    serve.add_argument(
        "--ack-every", type=int, default=8, metavar="N",
        help="journal a progress checkpoint every N completed jobs",
    )
    serve.add_argument(
        "--quota-rate", type=float, default=2.0, metavar="PER_SEC",
        help="per-tenant submission token refill rate",
    )
    serve.add_argument(
        "--quota-burst", type=int, default=8, metavar="N",
        help="per-tenant submission burst size",
    )
    serve.add_argument(
        "--max-tenant-jobs", type=int, default=10000, metavar="N",
        help="max unfinished jobs one tenant may hold",
    )
    serve.add_argument(
        "--max-active", type=int, default=2, metavar="N",
        help="campaigns executing concurrently",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="admitted-but-waiting campaigns before load shedding",
    )
    serve.add_argument(
        "--ready-file", metavar="PATH",
        help="where to write the host/port/pid file "
        "(default <data-dir>/service.json)",
    )

    service = sub.add_parser(
        "service",
        help="offline service-data operations (compact, chaos)",
    )
    service_sub = service.add_subparsers(dest="service_command", required=True)
    compact = service_sub.add_parser(
        "compact",
        help="fold per-campaign shard stores into one byte-stable "
        "aggregate store and print its sha256",
    )
    compact.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="service data directory to compact",
    )
    compact.add_argument(
        "--out", metavar="PATH",
        help="aggregate store path (default <data-dir>/compacted.sqlite)",
    )
    svc_chaos = service_sub.add_parser(
        "chaos",
        help="kill-and-restart the service mid-campaign under seeded "
        "faults and assert the compacted store is byte-identical to "
        "an uninterrupted run",
    )
    svc_chaos.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2, 3], metavar="SEED",
        help="chaos seeds (each is an independent service lifetime)",
    )
    svc_chaos.add_argument(
        "--workdir", metavar="DIR",
        help="scratch directory (default: a fresh temp dir per seed)",
    )
    svc_chaos.add_argument(
        "--report-json", metavar="PATH",
        help="write per-seed service chaos reports as JSON",
    )

    metrics = sub.add_parser(
        "metrics",
        help="aggregate and print the probe metrics stored by a "
        "--metrics campaign run with --store",
    )
    metrics.add_argument("store", help="SQLite result store to read")
    metrics.add_argument(
        "--json", metavar="PATH",
        help="also write the aggregate as JSON",
    )

    from repro.staticcheck.cli import (
        add_staticcheck_eval_parser,
        add_staticcheck_parser,
    )

    add_staticcheck_parser(sub)
    add_staticcheck_eval_parser(sub)

    return parser


def _cmd_run(args) -> int:
    from repro.core.injections import resolve

    try:
        use_case = resolve(args.use_case)
    except KeyError as exc:
        print(f"run: {exc.args[0]}", file=sys.stderr)
        return 2
    version = version_by_name(args.version)
    mode = Mode(args.mode)
    result = Campaign(
        recover=args.recover,
        trace_dir=args.trace,
        collect_metrics=args.metrics,
        topology=_topology_from_args(args),
    ).run(use_case, version, mode)
    print(result.summary)
    if result.trace is not None:
        print(
            f"trace: {os.path.join(args.trace, result.trace['file'])} "
            f"({result.trace['ops']} ops)"
        )
    if result.failure:
        print(f"failure: {result.failure}")
    if result.recovery is not None:
        report = result.recovery
        print(
            f"recovery: {report.outcome_class} after {report.reboots} "
            f"microreboot(s) in {report.wall_time * 1000:.1f} ms"
        )
        for line in report.evidence:
            print(f"recovery: {line}")
    for line in result.erroneous_state.evidence:
        print(f"audit: {line}")
    for line in result.violation.evidence:
        print(f"violation: {line}")
    if result.metrics is not None:
        print("\n--- metrics ---")
        for key, value in result.metrics.get("counters", {}).items():
            print(f"{key:<32} {value}")
        for key, value in result.metrics.get("timings", {}).items():
            print(f"{key:<32} {value * 1000:.3f} ms")
    if args.verbose:
        print("\n--- guest log ---")
        print("\n".join(result.guest_log))
        print("\n--- Xen console ---")
        print("\n".join(result.console))
    return 0


def _cmd_campaign(args) -> int:
    campaign = Campaign(
        recover=args.recover,
        trace_dir=args.trace,
        collect_metrics=args.metrics,
        topology=_topology_from_args(args),
    )
    use_cases = USE_CASES
    if args.cross_domain:
        from repro.exploits import CROSS_DOMAIN_USE_CASES

        use_cases = CROSS_DOMAIN_USE_CASES
    runner, store = _runner_from_args(args)
    try:
        results = campaign.run_matrix(
            use_cases, ALL_VERSIONS, runner=runner, store=store
        )
    finally:
        if store is not None:
            store.close()
    for result in results:
        print(result.summary)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(results_to_json(results))
        print(f"\nraw results written to {args.json}")
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(
                render_markdown_report(results, "Intrusion-injection campaign")
            )
        print(f"report written to {args.markdown}")
    return 0


def _cmd_study(args) -> int:
    study = FunctionalityStudy.default()
    if args.by_year:
        for year, count in study.by_year().items():
            print(f"{year}: {count}")
        return 0
    if args.by_component:
        for component, count in study.by_component().items():
            print(f"{component:<24} {count}")
        return 0
    print(render_table1(study))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    from repro.runner.pool import CampaignFailed, CampaignInterrupted
    from repro.runner.store import (
        StoreBusy,
        StoreCorrupt,
        StorePlanMismatch,
        StoreSchemaMismatch,
    )

    try:
        return _dispatch(args)
    except CampaignFailed as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
        return 1
    except CampaignInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130  # the conventional fatal-signal exit code
    except (StoreBusy, StoreCorrupt, StorePlanMismatch, StoreSchemaMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    campaign = Campaign()

    if args.command == "table1":
        print(render_table1(FunctionalityStudy.default()))
    elif args.command == "table2":
        print(render_table2(USE_CASES))
    elif args.command == "table3":
        from repro.xen.versions import XEN_4_8, XEN_4_13

        cells = campaign.table3_runs(USE_CASES, (XEN_4_8, XEN_4_13))
        print(render_table3(cells, [u.name for u in USE_CASES], ["4.8", "4.13"]))
    elif args.command == "rq1":
        pairs = campaign.rq1_runs(USE_CASES, XEN_4_6)
        verdicts = [compare_runs(e, i) for e, i in pairs]
        print(render_rq1(pairs, verdicts))
    elif args.command == "rq2":
        from repro.xen.versions import XEN_4_8, XEN_4_13

        results = campaign.run_matrix(
            USE_CASES, (XEN_4_8, XEN_4_13), (Mode.EXPLOIT,)
        )
        print(render_rq2(results))
    elif args.command == "versions":
        for version in ALL_VERSIONS:
            vulns = ", ".join(sorted(v.value for v in version.vulnerabilities))
            hard = ", ".join(sorted(h.value for h in version.hardening)) or "none"
            print(f"Xen {version.name} ({version.release_year}): "
                  f"vulnerabilities=[{vulns or 'none'}] hardening=[{hard}]")
    elif args.command == "run":
        return _cmd_run(args)
    elif args.command == "campaign":
        return _cmd_campaign(args)
    elif args.command == "study":
        return _cmd_study(args)
    elif args.command == "benchmark":
        from repro.core.benchmarking import SecurityBenchmark

        versions = [version_by_name(name) for name in args.versions]
        runner, store = _runner_from_args(args)
        try:
            cards = SecurityBenchmark().rank(versions, runner=runner, store=store)
        finally:
            if store is not None:
                store.close()
        for rank, card in enumerate(cards, start=1):
            print(f"rank {rank}:")
            print(card.render())
            print()
    elif args.command == "fuzz":
        return _cmd_fuzz(args)
    elif args.command == "vulngen":
        return _cmd_vulngen(args)
    elif args.command == "coverage":
        from repro.analysis.coverage import coverage_report

        print(coverage_report().render())
    elif args.command == "testcase":
        return _cmd_testcase(args)
    elif args.command == "chaos":
        return _cmd_chaos(args)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "service":
        return _cmd_service(args)
    elif args.command == "metrics":
        return _cmd_metrics(args)
    elif args.command == "replay":
        return _cmd_replay(args)
    elif args.command == "triage":
        return _cmd_triage(args)
    elif args.command == "staticcheck":
        from repro.staticcheck.cli import run_staticcheck

        return run_staticcheck(args)
    elif args.command == "staticcheck-eval":
        from repro.staticcheck.cli import run_staticcheck_eval

        return run_staticcheck_eval(args)
    return 0


def _cmd_fuzz(args) -> int:
    if args.coverage:
        return _cmd_fuzz_coverage(args)
    from repro.core.fuzz import RandomErroneousStateCampaign

    fuzz_campaign = RandomErroneousStateCampaign(
        version_by_name(args.version), seed=args.seed
    )
    runner, store = _runner_from_args(args)
    try:
        report = fuzz_campaign.run(
            runs_per_component=args.runs, runner=runner, store=store
        )
    finally:
        if store is not None:
            store.close()
    print(report.render())
    return 0


def _cmd_fuzz_coverage(args) -> int:
    if args.store or args.resume:
        print(
            "error: --coverage campaigns are multi-round (each round is "
            "its own job plan) and cannot share a result store; drop "
            "--store/--resume — the campaign is deterministic, so "
            "re-running it is exact",
            file=sys.stderr,
        )
        return 2
    from repro.vulngen.corpus import generate_corpus
    from repro.vulngen.schedule import CoverageFuzzCampaign

    corpus = generate_corpus(args.corpus_seed, args.corpus_size)
    runner, _ = _runner_from_args(args)
    campaign = CoverageFuzzCampaign(
        version_by_name(args.version),
        corpus,
        root_seed=args.seed,
        guided=not args.uniform,
    )
    report = campaign.run(
        rounds=args.rounds, trials_per_round=args.trials, runner=runner
    )
    print(report.render())
    if args.report_json:
        import json

        with open(args.report_json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"coverage report written to {args.report_json}")
    return 0


def _cmd_vulngen(args) -> int:
    from repro.vulngen.corpus import generate_corpus, is_synthetic_id, spec_by_id

    if args.resolve:
        if not is_synthetic_id(args.resolve):
            print(
                f"vulngen: {args.resolve!r} is not a synthetic id "
                "(expected 'syn-<seed>-<index>-<class>')",
                file=sys.stderr,
            )
            return 2
        spec = spec_by_id(args.resolve)
        print(f"id:        {spec.id}")
        print(f"class:     {spec.vuln_class.value}")
        print(f"component: {spec.component}")
        print(f"gate:      {spec.gate.kind}:{spec.gate.advisory}")
        print(f"word:      {spec.word} (span {spec.span})")
        print(f"value:     {spec.value:#018x}")
        return 0
    corpus = generate_corpus(args.seed, args.size)
    print(corpus.render())
    if args.manifest:
        with open(args.manifest, "w") as handle:
            handle.write(corpus.manifest_json())
        print(f"manifest written to {args.manifest}")
    return 0


def _cmd_testcase(args) -> int:
    from repro.core.testcases import REGISTRY, run_suite, run_test_case

    if args.action == "list":
        for case in REGISTRY.values():
            print(
                f"{case.name:<20} [{case.origin}/{case.attribute}] "
                f"{case.description}"
            )
        return 0
    version = version_by_name(args.version)
    if args.action == "run":
        if not args.name:
            print("testcase run: missing test-case name", file=sys.stderr)
            return 2
        try:
            outcome = run_test_case(args.name, version)
        except KeyError as exc:
            print(f"testcase run: {exc.args[0]}", file=sys.stderr)
            return 2
        state = "injected" if outcome.erroneous_state else "NOT injected"
        verdict = (
            f"violation: {outcome.violation_kind}"
            if outcome.violation
            else "handled (no violation)"
        )
        print(f"{outcome.name} on Xen {outcome.version}: {state}; {verdict}")
        return 0
    # suite
    runner, store = _runner_from_args(args)
    try:
        outcomes = run_suite(version, runner=runner, store=store)
    finally:
        if store is not None:
            store.close()
    handled = sum(1 for o in outcomes if o.handled)
    for outcome in outcomes:
        verdict = "HANDLED" if outcome.handled else (
            outcome.violation_kind or "not injected"
        )
        print(f"{outcome.name:<20} {verdict}")
    print(f"\nXen {version.name}: handled {handled}/{len(outcomes)}")
    return 0


def _cmd_replay(args) -> int:
    from repro.trace import ReplayDivergence, TraceError, replay_trace

    if not os.path.exists(args.trace):
        print(f"replay: trace file {args.trace!r} not found", file=sys.stderr)
        return 2
    if not os.path.isfile(args.trace):
        print(
            f"replay: trace path {args.trace!r} is not a file", file=sys.stderr
        )
        return 2
    try:
        outcome = replay_trace(args.trace, strict=not args.probe)
    except ReplayDivergence as exc:
        print(f"replay: DIVERGED\n{exc}", file=sys.stderr)
        return 1
    except TraceError as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # A torn, truncated or unreadable trace is an input problem,
        # not a crash: report it like any other bad-path case.
        print(f"replay: cannot read {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    state = "crashed" if outcome.crashed else "alive"
    mode = "verified" if outcome.faithful else "probed"
    print(
        f"replay: {mode} {outcome.ops_replayed} ops; hypervisor {state}"
        + (f" ({outcome.banner})" if outcome.crashed else "")
    )
    print(f"replay: final digest {outcome.final_digest}")
    return 0


def _cmd_triage(args) -> int:
    from repro.trace import TraceError, minimize_trace

    if not os.path.exists(args.trace):
        print(f"triage: trace file {args.trace!r} not found", file=sys.stderr)
        return 2
    try:
        report = minimize_trace(
            args.trace, out_path=args.out, report_path=args.report
        )
    except TraceError as exc:
        print(f"triage: {exc}", file=sys.stderr)
        return 1
    print(
        f"triage: {report.original_ops} ops -> {report.minimized_ops} "
        f"({report.reduction:.0%} removed, {report.probes} probe replays)"
    )
    print(f"triage: minimal reproducer written to {report.minimized_path}")
    print(f"triage: report written to {report.report_path}")
    return 0


def _cmd_chaos(args) -> int:
    import dataclasses
    import json
    import tempfile

    from repro.resilience.chaos import run_chaos_campaign
    from repro.runner.jobs import plan_campaign

    with_metrics = bool(args.metrics or args.metrics_json)
    specs = plan_campaign(
        ["XSA-212-crash", "XSA-182-test"], ["4.6", "4.8"],
        ["exploit", "injection"],
        metrics=with_metrics,
    )
    # One cross-domain matrix cell rides along: the chaos invariant
    # (fault-injected pools leave byte-identical stores) must hold for
    # non-default topologies too.
    from repro.core.topology import CROSS_DOMAIN_TOPOLOGY

    specs += plan_campaign(
        ["xdom-grant-leak"], ["4.6"], ["exploit", "injection"],
        metrics=with_metrics,
        topology=CROSS_DOMAIN_TOPOLOGY.spec_value(),
    )
    events_handle = open(args.events, "a") if args.events else None

    def record_event(event) -> None:
        if events_handle is not None:
            events_handle.write(json.dumps(dataclasses.asdict(event)) + "\n")

    failed = 0
    metrics_by_seed = {}
    reports_by_seed = {}
    try:
        for seed in args.seeds:
            trace_dir = (
                os.path.join(args.trace, str(seed)) if args.trace else None
            )
            with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
                report = run_chaos_campaign(
                    specs,
                    seed=seed,
                    store_path=os.path.join(tmp, "chaos.sqlite"),
                    jobs=args.jobs,
                    timeout=args.timeout,
                    on_event=record_event if args.events else None,
                    trace_dir=trace_dir,
                    pool_mode=args.pool,
                )
            print(report.render())
            if not report.identical:
                failed += 1
            if args.metrics_json:
                metrics_by_seed[str(seed)] = _chaos_metrics_aggregate(report)
            if args.report_json:
                import hashlib

                reports_by_seed[str(seed)] = {
                    "pool": args.pool,
                    "episodes": report.episodes,
                    "faults": dict(sorted(report.faults.items())),
                    "identical": report.identical,
                    "total_jobs": report.total_jobs,
                    # The cross-mode comparable: every pool mode must
                    # leave a store rendering with this exact digest.
                    "store_sha256": hashlib.sha256(
                        report.chaos_json.encode()
                    ).hexdigest(),
                }
    finally:
        if events_handle is not None:
            events_handle.close()
    if args.metrics_json:
        with open(args.metrics_json, "w") as handle:
            json.dump(metrics_by_seed, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"chaos: metric aggregates written to {args.metrics_json}")
    if args.report_json:
        with open(args.report_json, "w") as handle:
            json.dump(reports_by_seed, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"chaos: reports written to {args.report_json}")
    if failed:
        print(
            f"chaos: {failed}/{len(args.seeds)} seed(s) diverged "
            "from the serial reference",
            file=sys.stderr,
        )
        return 1
    return 0


def _chaos_metrics_aggregate(report) -> dict:
    """Aggregate counters from a chaos report's serial reference JSON
    (identical to the chaos side's by the invariant just checked)."""
    import json

    from repro.analysis.report import aggregate_metrics, run_result_from_dict

    payloads = json.loads(report.serial_json) if report.serial_json else []
    results = [run_result_from_dict(p) for p in payloads]
    aggregate = aggregate_metrics(results)
    aggregate["identical"] = report.identical
    return aggregate


def _cmd_serve(args) -> int:
    from repro.service import QuotaConfig, ServiceConfig
    from repro.service.server import serve

    try:
        config = ServiceConfig(
            data_dir=args.data_dir,
            jobs=args.jobs,
            fork_server=args.fork_server,
            timeout=args.timeout,
            max_backoff=args.backoff_cap,
            liveness_grace=args.heartbeat_timeout,
            ack_every=args.ack_every,
            quota=QuotaConfig(
                rate=args.quota_rate,
                burst=args.quota_burst,
                max_tenant_jobs=args.max_tenant_jobs,
                max_active=args.max_active,
                queue_depth=args.queue_depth,
            ),
        )
    except ValueError as exc:  # an option the pool refuses, before binding
        raise SystemExit(f"error: {exc}") from None
    return serve(
        config, host=args.host, port=args.port, ready_file=args.ready_file
    )


def _cmd_service(args) -> int:
    if args.service_command == "compact":
        from repro.service import compact_data_dir, iter_shards

        if not os.path.isdir(args.data_dir):
            print(
                f"service: data dir {args.data_dir!r} not found",
                file=sys.stderr,
            )
            return 2
        if not iter_shards(args.data_dir):
            print(
                f"service: no shard stores under {args.data_dir!r}",
                file=sys.stderr,
            )
            return 1
        report = compact_data_dir(args.data_dir, args.out)
        print(report.render())
        return 0
    # service chaos
    import json as _json
    import tempfile

    from repro.resilience.chaos import run_service_chaos

    reports = []
    failures = 0
    for seed in args.seeds:
        workdir = args.workdir or tempfile.mkdtemp(prefix=f"svc-chaos-{seed}-")
        report = run_service_chaos(seed=seed, workdir=workdir)
        print(report.render())
        reports.append(report.to_dict())
        if not report.passed:
            failures += 1
    if args.report_json:
        with open(args.report_json, "w") as handle:
            _json.dump(reports, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"service chaos reports written to {args.report_json}")
    return 1 if failures else 0


def _cmd_metrics(args) -> int:
    from repro.analysis.report import aggregate_metrics, runs_from_store
    from repro.runner import ResultStore

    if not os.path.exists(args.store):
        print(f"metrics: store {args.store!r} not found", file=sys.stderr)
        return 2
    if not os.path.isfile(args.store):
        print(
            f"metrics: store path {args.store!r} is not a file", file=sys.stderr
        )
        return 2
    store = ResultStore(args.store)
    try:
        results = runs_from_store(store)
    finally:
        store.close()
    aggregate = aggregate_metrics(results)
    if not aggregate["runs"]:
        print(
            "metrics: no metered campaign runs in this store "
            "(was the campaign run with --metrics?)",
            file=sys.stderr,
        )
        return 1
    print(
        f"metrics: {aggregate['runs']} metered run(s) of "
        f"{len(results)} campaign run(s)"
    )
    for key, value in aggregate["counters"].items():
        print(f"{key:<32} {value}")
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(aggregate, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics: aggregate written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
