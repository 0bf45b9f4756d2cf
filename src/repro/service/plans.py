"""Plan documents: the JSON campaign descriptions clients submit.

A plan is a small JSON object selecting one of the repository's
experiment families and its matrix; :func:`expand_plan` turns it into
the same :class:`~repro.runner.jobs.JobSpec` lists the CLI planners
produce, so a campaign submitted over HTTP runs *identical jobs* (and
therefore identical content-derived job IDs) to one launched with
``repro campaign`` — that identity is what lets CI compare a service
compaction byte-for-byte against a CLI store.

Canonicalization matters for two reasons: the campaign ID is a
content hash of ``(tenant, canonical plan)``, making resubmission
idempotent, and defaults are materialized so the journal records the
plan the service will actually run, not whatever the client omitted.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

from repro.runner.jobs import (
    JobSpec,
    SELFTEST,
    plan_benchmark,
    plan_campaign,
    plan_fuzz,
    plan_testcases,
)


class PlanError(ValueError):
    """A submitted plan that cannot be expanded (HTTP 400)."""


_KINDS = ("campaign", "fuzz", "testcase", "benchmark", "selftest")


def _all_version_names() -> List[str]:
    from repro.xen.versions import ALL_VERSIONS

    return [v.name for v in ALL_VERSIONS]


def _check_versions(names: Sequence[str]) -> List[str]:
    from repro.xen.versions import version_by_name

    versions = [str(name) for name in names]
    if not versions:
        raise PlanError("plan selects no versions")
    for name in versions:
        try:
            version_by_name(name)
        except KeyError as exc:
            raise PlanError(f"unknown Xen version {name!r}") from exc
    return versions


def _str_list(value: object, what: str) -> List[str]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise PlanError(f"{what} must be a list of strings")
    return list(value)


def _check_topology(value: object) -> str:
    """Validate a plan's scenario topology; returns its spec value
    (``""`` when omitted or explicitly the paper default)."""
    if value is None:
        return ""
    if not isinstance(value, dict):
        raise PlanError("topology must be a JSON object")
    from repro.core.topology import ScenarioTopology, TopologyError

    try:
        topology = ScenarioTopology.from_dict(value)
    except TopologyError as exc:
        raise PlanError(f"invalid topology: {exc}") from exc
    return topology.spec_value()


def canonical_plan(plan: Dict[str, object]) -> Dict[str, object]:
    """Validate a plan document and materialize its defaults."""
    if not isinstance(plan, dict):
        raise PlanError("plan must be a JSON object")
    kind = plan.get("kind")
    if kind not in _KINDS:
        raise PlanError(f"plan kind must be one of {_KINDS}, got {kind!r}")

    if kind == "campaign":
        from repro.core.injections.registry import is_registered
        from repro.exploits import USE_CASES

        # The default is `repro campaign`'s matrix, in its order: the
        # paper's use cases.  The cross-domain cells run only when named,
        # with the cross-domain topology, as under `--cross-domain`.
        use_cases = _str_list(
            plan.get("use_cases", [u.name for u in USE_CASES]), "use_cases"
        )
        for name in use_cases:
            if not is_registered(name):
                raise PlanError(f"unknown use case {name!r}")
        modes = _str_list(plan.get("modes", ["exploit", "injection"]), "modes")
        for mode in modes:
            if mode not in ("exploit", "injection"):
                raise PlanError(f"unknown campaign mode {mode!r}")
        canonical: Dict[str, object] = {
            "kind": "campaign",
            "use_cases": use_cases,
            "versions": _check_versions(plan.get("versions", _all_version_names())),
            "modes": modes,
            "recover": bool(plan.get("recover", False)),
            "metrics": bool(plan.get("metrics", False)),
            "trace": bool(plan.get("trace", False)),
        }
        topology = _check_topology(plan.get("topology"))
        if topology:
            # Only non-default shapes enter the canonical plan: an
            # explicitly spelled-out default is the same campaign as an
            # omitted one (same campaign ID, same job IDs as every
            # pre-topology submission).
            canonical["topology"] = json.loads(topology)
        return canonical

    if kind == "fuzz":
        from repro.core.fuzz import default_components

        known = [component.name for component in default_components()]
        components = _str_list(plan.get("components", known), "components")
        for name in components:
            if name not in known:
                raise PlanError(f"unknown fuzz component {name!r}")
        try:
            runs = int(plan.get("runs", 5))
            seed = int(plan.get("seed", 42))
        except (TypeError, ValueError) as exc:
            raise PlanError("fuzz runs/seed must be integers") from exc
        if runs < 1:
            raise PlanError("fuzz runs must be >= 1")
        versions = _check_versions([plan.get("version", "4.6")])
        return {
            "kind": "fuzz",
            "version": versions[0],
            "components": components,
            "runs": runs,
            "seed": seed,
        }

    if kind == "testcase":
        from repro.core.testcases import list_test_cases

        known = [case.name for case in list_test_cases()]
        names = _str_list(plan.get("names", known), "names")
        for name in names:
            if name not in known:
                raise PlanError(f"unknown test case {name!r}")
        versions = _check_versions([plan.get("version", "4.13")])
        return {"kind": "testcase", "version": versions[0], "names": names}

    if kind == "benchmark":
        from repro.core.benchmarking import default_suite

        known = [item.name for item in default_suite()]
        items = _str_list(plan.get("items", known), "items")
        for name in items:
            if name not in known:
                raise PlanError(f"unknown benchmark item {name!r}")
        return {
            "kind": "benchmark",
            "items": items,
            "versions": _check_versions(plan.get("versions", _all_version_names())),
        }

    # selftest: pool-exercising behaviours, used by the service's own
    # tests and chaos harness (payloads are nondeterministic — never
    # use in byte-identity comparisons).
    behaviours = _str_list(plan.get("behaviours", ["ok"]), "behaviours")
    if not behaviours:
        raise PlanError("selftest plan selects no behaviours")
    return {"kind": "selftest", "behaviours": behaviours}


def campaign_id_for(tenant: str, canonical: Dict[str, object]) -> str:
    """Content-derived campaign ID: resubmission is idempotent."""
    blob = json.dumps([tenant, canonical], sort_keys=True).encode()
    return "c-" + hashlib.sha1(blob).hexdigest()[:16]


def expand_plan(
    canonical: Dict[str, object], trace_dir: Optional[str] = None
) -> List[JobSpec]:
    """Expand a canonical plan into job specs, in plan order.

    ``trace_dir`` is where campaign-run trace artefacts land when the
    plan asked for tracing; it is deliberately outside the plan (and
    outside job identity) so shard placement never changes what the
    campaign *is*.
    """
    kind = canonical["kind"]
    if kind == "campaign":
        topology = canonical.get("topology")
        return plan_campaign(
            canonical["use_cases"],  # type: ignore[arg-type]
            canonical["versions"],  # type: ignore[arg-type]
            modes=canonical["modes"],  # type: ignore[arg-type]
            recover=bool(canonical["recover"]),
            trace_dir=trace_dir if canonical.get("trace") else None,
            metrics=bool(canonical["metrics"]),
            topology=(
                json.dumps(topology, sort_keys=True, separators=(",", ":"))
                if topology
                else ""
            ),
        )
    if kind == "fuzz":
        return plan_fuzz(
            str(canonical["version"]),
            canonical["components"],  # type: ignore[arg-type]
            int(canonical["runs"]),  # type: ignore[call-overload]
            int(canonical["seed"]),  # type: ignore[call-overload]
        )
    if kind == "testcase":
        return plan_testcases(
            canonical["names"],  # type: ignore[arg-type]
            str(canonical["version"]),
        )
    if kind == "benchmark":
        return plan_benchmark(
            canonical["items"],  # type: ignore[arg-type]
            canonical["versions"],  # type: ignore[arg-type]
        )
    # selftest: the version field disambiguates duplicate behaviours so
    # every job keeps a unique content-derived ID.
    return [
        JobSpec(kind=SELFTEST, use_case=behaviour, version=str(index))
        for index, behaviour in enumerate(canonical["behaviours"])  # type: ignore[arg-type]
    ]
