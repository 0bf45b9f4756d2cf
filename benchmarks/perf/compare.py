"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python -m benchmarks.perf.compare A.json B.json

Each file is a list of runs, as ``python -m benchmarks.perf --json``
appends them; a set may hold one run or many.  For every workload and
end-to-end metric that both sets report, one row gives each side's
median and quartiles and checks two things against the metric's bound:

* B's median is not worse than A's by more than the bound;
* each side's spread, the distance between its quartiles as a share
  of its median, is within the bound.  A spread wider than the bound
  leaves the metric unresolved: the two sets cannot tell a change of
  that size from noise.

The exit code is 1 when any row disagrees or nothing could be compared.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _values(runs: List[dict], workload: str, metric: str) -> List[float]:
    out = []
    for run in runs:
        record = run["workloads"].get(workload)
        if record is not None and metric in record["end_to_end"]:
            out.append(record["end_to_end"][metric]["value"])
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(a_runs: List[dict], b_runs: List[dict], spec: dict) -> Tuple[List[dict], bool]:
    """One row per workload x end-to-end metric, and the overall verdict."""
    workloads = sorted(
        {w for run in a_runs for w in run["workloads"]}
        & {w for run in b_runs for w in run["workloads"]}
    )
    rows: List[dict] = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = _values(a_runs, workload, name), _values(b_runs, workload, name)
            row: Dict[str, object] = {
                "workload": workload, "metric": name, "unit": metric["unit"],
                "bound": bound, "n_a": len(a), "n_b": len(b),
            }
            if not a or not b:
                row["verdict"] = "missing"
                rows.append(row)
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1]
            worse = -change if metric["better"] == "higher" else change
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            problems = []
            if worse > bound:
                problems.append("median worse")
            if max(spread_a, spread_b) > bound:
                problems.append("spread (unresolved)")
            row.update(
                a=qa, b=qb, change=change, spread_a=spread_a, spread_b=spread_b,
                verdict="ok" if not problems else " + ".join(problems),
            )
            rows.append(row)
    agree = bool(rows) and all(row["verdict"] == "ok" for row in rows)
    return rows, agree


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<16} {'unit':<7} {'median A [q1-q3]':<30} "
        f"{'median B [q1-q3]':<30} {'change':>8} {'spreadA':>8} {'spreadB':>8} "
        f"{'bound':>6}  verdict"
    ]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(
                f"{row['workload']:<16} {row['metric']:<16} {row['unit']:<7} "
                f"runs A={row['n_a']} B={row['n_b']}  missing"
            )
            continue

        def cell(q) -> str:
            return f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"

        lines.append(
            f"{row['workload']:<16} {row['metric']:<16} {row['unit']:<7} "
            f"{cell(row['a']):<30} {cell(row['b']):<30} "
            f"{row['change']:>+8.1%} {row['spread_a']:>8.1%} {row['spread_b']:>8.1%} "
            f"{row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def _load(path: str) -> List[dict]:
    with open(path) as handle:
        runs = json.load(handle)
    return runs if isinstance(runs, list) else [runs]


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python -m benchmarks.perf.compare A.json B.json", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rows, agree = compare(_load(argv[0]), _load(argv[1]), spec)
    print(render(rows))
    print("agree" if agree else "DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
