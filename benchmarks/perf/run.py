"""Command line of the repository benchmark.

``python -m benchmarks.perf --seed S [--workload W] [--seconds N]
[--trace [0|1]] [--json OUT] [--smoke]``

With ``--workload`` the run happens in this process; without it every
workload runs in turn, each in a fresh interpreter.  Every metric is
printed by name with its unit and sample count, the host-speed-scaled
end-to-end timings next to their values as measured (``raw.*``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics that
``BENCHMARK.json`` lists, or with ``--trace`` its ``per_layer`` ones.
``--json OUT`` appends the full result, host and run facts included,
to the list of runs in ``OUT``.  The exit code is 0 only when every
output checked out.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch space and span files; everything the benchmark writes.
WORK_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("fuzz-fork", "fuzz-serial", "matrix-fork", "service-tenants")


def load_spec() -> dict:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def _parser(default_seconds: float) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Campaign workloads from plan to durable store.",
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=default_seconds,
        help="measuring window per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="the traced run: per-layer metrics instead of end-to-end ones",
    )
    parser.add_argument("--json", metavar="OUT", help="append the result to OUT")
    parser.add_argument(
        "--smoke", action="store_true",
        help="about 1/20 of the work and a 1 s window, for tests",
    )
    return parser


# ----------------------------------------------------------------------
# Host and run facts
# ----------------------------------------------------------------------


def _fs_type(path: str) -> str:
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def host_facts() -> Dict[str, object]:
    from repro.runner.forkserver import preferred_context

    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "start_method": preferred_context(),
        "tmp_fs": _fs_type(WORK_DIR),
    }


def _revision() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported tree; source_sha256 still identifies it
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_sha256() -> str:
    """Digest of every file under ``src/``: the code under test."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------


def _metric_dict(values) -> Dict[str, dict]:
    return {
        name: {"value": value, "unit": unit, "n": n}
        for name, (value, unit, n) in values.items()
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload in this process; returns its result record."""
    import repro.cli  # noqa: F401  (the fork parent's import state matches the CLI's)

    from benchmarks.perf import workloads as wl
    from benchmarks.perf.layers import Spans
    from benchmarks.perf.service import run_service

    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    # Temp files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    sizes = wl.SMOKE if smoke else wl.FULL
    spans = Spans()
    log_path = os.path.join(scratch, "children.log")
    try:
        with open(log_path, "ab") as log:
            if name == wl.SERVICE_WORKLOAD:
                measured = run_service(seed, seconds, trace, sizes, scratch, spans, log)
            else:
                measured = wl.run_engine(
                    name, seed, seconds, trace, sizes, scratch, spans, log
                )
    except wl.BenchmarkError as exc:
        with open(log_path, "rb") as handle:
            tail = handle.read()[-4000:].decode("utf-8", "replace")
        measured = wl.Measured(workload=name, errors=[f"{exc}\n{tail}"])
    finally:
        if trace:
            spans.write(os.path.join(WORK_DIR, f"spans-{name}-seed{seed}.jsonl"))
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "workload": name,
        "correct": not measured.errors,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "errors": measured.errors,
        "end_to_end": _metric_dict(measured.end_to_end),
        "per_layer": _metric_dict(measured.per_layer),
        "raw": _metric_dict(measured.raw),
        "sizes": measured.sizes,
        "load": measured.load,
        "campaign_s": measured.campaign_s,
        "host_factor": measured.host_factor,
    }


def _run_child(name: str, args, seconds: float) -> dict:
    """One workload in a fresh interpreter."""
    os.makedirs(WORK_DIR, exist_ok=True)
    handle, out = tempfile.mkstemp(prefix=f"{name}-", suffix=".json", dir=WORK_DIR)
    os.close(handle)
    os.remove(out)
    cmd = [
        sys.executable, "-m", "benchmarks.perf", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(args.trace), "--json", out,
    ] + (["--smoke"] if args.smoke else [])
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
        with open(out) as result:
            return json.load(result)[0]["workloads"][name]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {
            "workload": name, "correct": False, "attempted": 0, "failed": 0,
            "errors": [f"workload process left no result: {exc}"],
            "end_to_end": {}, "per_layer": {}, "sizes": {}, "load": {},
        }
    finally:
        if os.path.exists(out):
            os.remove(out)


def _print_record(record: dict, trace: bool) -> None:
    section = record["per_layer"] if trace else {
        **record["end_to_end"],
        **{f"raw.{name}": entry for name, entry in record.get("raw", {}).items()},
    }
    for metric in sorted(section):
        entry = section[metric]
        print(
            f"{record['workload']:<16} {metric:<30} {entry['value']:>14.4f} "
            f"{entry['unit']:<7} n={entry['n']}"
        )
    for error in record["errors"]:
        print(f"{record['workload']:<16} MISMATCH {error}")


def summary_line(records: List[dict], trace: bool, spec: dict) -> dict:
    """The last stdout line: the BENCHMARK.json metrics, by name."""
    section = "per_layer" if trace else "end_to_end"
    single = len(records) == 1
    metrics: Dict[str, dict] = {}
    correct = all(record["correct"] for record in records)
    for record in records:
        for wanted in spec[section]:
            entry = record[section].get(wanted["name"])
            if entry is None:
                correct = False
                continue
            key = wanted["name"] if single else f"{record['workload']}.{wanted['name']}"
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    return {
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


def _append_json(path: str, entry: dict) -> None:
    runs = []
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)
    runs.append(entry)
    with open(path, "w") as handle:
        json.dump(runs, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = _parser(spec["run_seconds"]).parse_args(argv)
    seconds = 1.0 if args.smoke else args.seconds
    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if args.workload:
        records = [run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)]
    else:
        records = [_run_child(name, args, seconds) for name in WORKLOADS]
    for record in records:
        _print_record(record, bool(args.trace))
    if args.json:
        _append_json(args.json, {
            "host": host_facts(),
            "run": {
                "revision": _revision(),
                "source_sha256": _source_sha256(),
                "seed": args.seed,
                "seconds": seconds,
                "trace": bool(args.trace),
                "smoke": args.smoke,
                "started_at": started_at,
            },
            "workloads": {record["workload"]: record for record in records},
        })
    line = summary_line(records, bool(args.trace), spec)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1
