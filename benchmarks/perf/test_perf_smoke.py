"""Smoke test of the repository benchmark at about 1/20 of its work.

    PYTHONPATH=src:. python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import os
import random
import re
import sqlite3
import subprocess
import sys

import pytest

from benchmarks.perf.compare import compare
from benchmarks.perf.run import ROOT, WORK_DIR, WORKLOADS, load_spec

SEED = 7
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

#: Per-layer metrics reported beyond BENCHMARK.json's list, by workload.
EXTRA_LAYERS = {
    "fuzz-fork": [
        "pool.restores", "pool.cold_boots", "pool.recycles", "store.busy_share",
        "checkpoint.restore_ms", "checkpoint.capture_ms", "fuzz.trial_ms",
        "campaign.edge_share",
    ],
    "fuzz-serial": ["store.busy_share", "fuzz.trial_ms", "campaign.edge_share"],
    "matrix-fork": [
        "pool.restores", "pool.cold_boots", "pool.recycles", "store.busy_share",
        "campaign.exploit_ms", "campaign.injection_ms", "campaign.edge_share",
    ],
    "service-tenants": [
        "http.submit_ms", "http.results_ms", "plans.expand_ms",
        "sse.pool_start_ms", "sse.final_lag_ms", "journal.append_ms",
        "journal.records_per_campaign", "events.append_us",
        "events.per_campaign", "shards.compact_s", "fuzz.trial_ms",
        "tenants.wait_share",
    ],
}


def _smoke(tmp_path, trace: int):
    out = tmp_path / "runs.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.perf", "--smoke", "--seed", str(SEED),
            "--trace", str(trace), "--json", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    (run,) = json.loads(out.read_text())
    return run, last


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _smoke(tmp_path_factory.mktemp("untraced"), 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _smoke(tmp_path_factory.mktemp("traced"), 1)


def _check_reported(run, last, section, expected):
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for workload in WORKLOADS:
        record = run["workloads"][workload]
        assert record["correct"], record["errors"]
        for name, unit in expected(workload):
            entry = record[section][name]
            assert entry["unit"] == unit, (workload, name)
            assert entry["n"] >= 1, (workload, name)
            assert isinstance(entry["value"], float), (workload, name)
    wanted = {
        f"{workload}.{metric['name']}"
        for workload in WORKLOADS for metric in load_spec()[section]
    }
    assert set(last["metrics"]) == wanted


def test_every_end_to_end_metric_is_reported(untraced):
    run, last = untraced
    spec = load_spec()
    _check_reported(
        run, last, "end_to_end",
        lambda w: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
    )
    for workload in WORKLOADS:
        end_to_end = run["workloads"][workload]["end_to_end"]
        assert end_to_end["error_rate"]["value"] == 0.0
        assert all(entry["value"] > 0 for name, entry in end_to_end.items()
                   if name != "error_rate")
    assert run["host"]["cpu_count"] >= 1
    assert run["run"]["seed"] == SEED and run["run"]["source_sha256"]
    assert run["workloads"]["service-tenants"]["load"] == {"threads": 2, "connections": 2}


def test_every_per_layer_metric_is_reported(traced):
    run, last = traced
    spec = load_spec()
    units = {}
    for record in run["workloads"].values():
        for name, entry in record["per_layer"].items():
            units.setdefault(name, entry["unit"])
    _check_reported(
        run, last, "per_layer",
        lambda w: [(m["name"], m["unit"]) for m in spec["per_layer"]]
        + [(name, units[name]) for name in EXTRA_LAYERS[w]],
    )


def test_metric_names_are_well_formed(untraced, traced):
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for run, _last in (untraced, traced):
        for record in run["workloads"].values():
            names += list(record["end_to_end"]) + list(record["per_layer"])
    assert all(NAME.match(name) for name in names), names
    assert len({m["name"] for m in spec["end_to_end"] + spec["per_layer"]}) == len(
        spec["end_to_end"] + spec["per_layer"]
    )


def test_trace_spans_nest(traced):
    for workload in WORKLOADS:
        path = os.path.join(WORK_DIR, f"spans-{workload}-seed{SEED}.jsonl")
        with open(path) as handle:
            spans = [json.loads(line) for line in handle]
        assert spans, workload
        for span in spans:
            assert span["end"] >= span["start"], span
            assert span["self"] >= 0.0, span
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_gate_fires_on_an_edited_stored_payload(tmp_path):
    from benchmarks.perf.layers import Spans, replay_jobs
    from benchmarks.perf.workloads import gate
    from repro.runner import ResultStore, SerialRunner, plan_fuzz

    specs = plan_fuzz("4.13", ["idt", "m2p"], 2, SEED)
    path = str(tmp_path / "store.sqlite")
    with ResultStore(path) as store:
        SerialRunner().run(specs, store=store)
        pairs = store.payloads()
    assert gate(pairs, random.Random(0), 24) == []

    victim = specs[1].job_id
    conn = sqlite3.connect(path)
    try:
        (raw,) = conn.execute(
            "SELECT payload FROM results WHERE job_id = ?", (victim,)
        ).fetchone()
        payload = json.loads(raw)
        payload["value"] ^= 1
        conn.execute(
            "UPDATE results SET payload = ? WHERE job_id = ?",
            (json.dumps(payload), victim),
        )
        conn.commit()
    finally:
        conn.close()
    with ResultStore(path) as store:
        pairs = store.payloads()
    mismatches = gate(pairs, random.Random(0), 24)
    assert len(mismatches) == 1 and victim in mismatches[0]
    _sizes, replayed = replay_jobs(pairs, snapshot_cache=True, spans=Spans())
    assert len(replayed) == 1 and victim in replayed[0]


def test_compare_flags_a_regression_beyond_the_bound():
    spec = load_spec()

    def runs(jobs_per_s):
        return [
            {"workloads": {"fuzz-fork": {"end_to_end": {
                m["name"]: {"value": jobs_per_s if m["name"] == "jobs_per_s" else 1.0}
                for m in spec["end_to_end"]
            }}}}
            for _ in range(5)
        ]

    rows, agree = compare(runs(300.0), runs(295.0), spec)
    assert agree and len(rows) == len(spec["end_to_end"])
    rows, agree = compare(runs(300.0), runs(200.0), spec)
    assert not agree
    assert [r["metric"] for r in rows if r["verdict"] != "ok"] == ["jobs_per_s"]
