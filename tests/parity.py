"""The parity oracle: one digest per engine, checked against a recording.

The repository's one contract is that a plan means the same thing
however it is executed: the serial runner, the spawn pool, the
fork-server pool and the campaign service produce byte-identical
results.  :func:`digests` runs one plan through every engine and
returns one digest per engine; ``tests/test_parity.py`` compares each
with the plan's committed value in ``tests/data/parity_digests.json``.
Comparing the engines only with each other would let a change that
moves every engine the same way pass; a committed digest is the
recording a replay is checked against.

The golden file holds one entry per plan,
``{name: {"plan": {...}, "sha256": "<64 hex>"}}``.  A plan is a
service plan document (what :func:`~repro.service.plans.canonical_plan`
accepts) and runs, expanded by
:func:`~repro.service.plans.expand_plan`, through five engines:

* ``serial``, ``spawn`` and ``fork-server`` (batches of 2, workers
  recycled after 3 jobs) write an on-disk result store; the digest is
  the sha256 of its :func:`~repro.service.shards.compact` output;
* ``service`` and ``service-fork-server`` are an in-process
  :class:`~repro.service.Supervisor` taking the plan as a submission;
  the digest is the sha256 of the compacted data directory.

The one exception is the coverage-guided campaign, whose plan has
``"kind": "coverage"``.  It is a CLI-only multi-round run that takes
no result store, so its digest is the sha256 of its report written
exactly as ``repro fuzz --coverage --report-json`` writes it, and its
engines are the serial path and the two pools.

**Changing a digest.**  A golden digest changes only when what a plan
computes changes.  A change that edits one says so in CHANGES.md and
gives the reason, in the same commit.

Nothing under ``src/`` calls this: it is the tests' oracle, not a
runtime check.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Callable, Dict

from repro.runner import ResultStore, SerialRunner, WorkerPool
from repro.service import ServiceConfig, Supervisor, compact_data_dir
from repro.service.plans import canonical_plan, expand_plan
from repro.service.shards import compact

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "parity_digests.json"

#: The fork-server options every parity run uses: small batches and
#: early recycling put batch boundaries and worker restarts inside
#: even the smallest plan.
FORK_SERVER = dict(jobs=2, fork_server=True, batch=2, recycle_after=3)

RUNNERS: Dict[str, Callable[[], object]] = {
    "serial": SerialRunner,
    "spawn": lambda: WorkerPool(jobs=2),
    "fork-server": lambda: WorkerPool(**FORK_SERVER),
}

SERVICES: Dict[str, dict] = {
    "service": dict(jobs=2),
    "service-fork-server": dict(jobs=2, fork_server=True, batch=2),
}

COVERAGE_RUNNERS: Dict[str, Callable[[], object]] = {
    "serial": lambda: None,
    "spawn": RUNNERS["spawn"],
    "fork-server": RUNNERS["fork-server"],
}

#: Longest a service run may take before the oracle gives up on it.
_SERVICE_TIMEOUT = 300.0


def load_golden() -> Dict[str, dict]:
    """The committed entries, by name."""
    return json.loads(GOLDEN_PATH.read_text())


def store_sha256(store_path: str) -> str:
    """The digest of a result store: its compacted file's sha256."""
    return compact([store_path], store_path + ".compacted").sha256


def report_json(report) -> str:
    """A coverage report as ``repro fuzz --coverage --report-json``
    writes it."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def digests(plan: dict, work_dir: str) -> Dict[str, str]:
    """Run ``plan`` through every engine; one digest per engine.

    ``work_dir`` must be an empty directory; every engine writes its
    store or data directory there under its own name.
    """
    if plan["kind"] == "coverage":
        return _coverage_digests(plan)
    specs = expand_plan(canonical_plan(plan))
    found = {}
    for engine, make in RUNNERS.items():
        path = os.path.join(work_dir, f"{engine}.sqlite")
        with ResultStore(path) as store:
            outcome = make().run(specs, store=store)
        assert not outcome.failures, (engine, outcome.failures)
        found[engine] = store_sha256(path)
    for engine, options in SERVICES.items():
        found[engine] = _service_digest(plan, os.path.join(work_dir, engine), options)
    return found


def _service_digest(plan: dict, data_dir: str, options: dict) -> str:
    supervisor = Supervisor(ServiceConfig(data_dir=data_dir, **options))
    try:
        status, payload = supervisor.submit(dict(plan), "parity")
        assert status == 202, (status, payload)
        assert supervisor.run_until_idle(_SERVICE_TIMEOUT), "service timed out"
        final = supervisor.status(payload["id"])
        assert final["state"] == "done", final
    finally:
        supervisor.close()
    return compact_data_dir(data_dir).sha256


def _coverage_digests(plan: dict) -> Dict[str, str]:
    from repro.vulngen.corpus import generate_corpus
    from repro.vulngen.schedule import CoverageFuzzCampaign
    from repro.xen.versions import version_by_name

    corpus = generate_corpus(plan["corpus_seed"], plan["corpus_size"])
    found = {}
    for engine, make in COVERAGE_RUNNERS.items():
        campaign = CoverageFuzzCampaign(
            version_by_name(plan["version"]), corpus, root_seed=plan["seed"]
        )
        report = campaign.run(
            rounds=plan["rounds"], trials_per_round=plan["trials"], runner=make()
        )
        found[engine] = hashlib.sha256(report_json(report).encode()).hexdigest()
    return found
