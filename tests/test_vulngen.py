"""Tests for ``repro.vulngen`` — corpus generation and synthetic use
cases.

The acceptance bar: the default corpus holds >= 100 distinct
version-gated synthetic vulnerabilities across >= 4 taxonomy classes,
each injectable through the standard campaign path; the same root seed
yields byte-identical manifests; and synthetic ids resolve uniformly
with the hand-written XSAs through the injection registry.
"""

import pytest

from repro.core.campaign import Campaign, Mode
from repro.core.fuzz import RandomErroneousStateCampaign
from repro.core.injections import (
    inject_by_name,
    is_registered,
    registered_names,
    resolve,
)
from repro.core.testbed import build_testbed
from repro.errors import MachineError
from repro.exploits import USE_CASES, USE_CASE_BY_NAME, XSA182Test
from repro.exploits.base import ExploitFailed
from repro.probes import points as P
from repro.probes.metrics import MetricsCollector
from repro.vulngen.corpus import (
    derive_spec,
    generate_corpus,
    is_synthetic_id,
    spec_by_id,
)
from repro.vulngen.coverage import coverage_features
from repro.vulngen.synthetic import (
    make_use_case,
    run_synthetic_trial,
    run_synthetic_trial_on,
)
from repro.vulngen.taxonomy import (
    ALL_CLASSES,
    CLASS_FUNCTIONALITY,
    CLASS_RULE_MAP,
    VulnClass,
)
from repro.xen.versions import ALL_VERSIONS, XEN_4_6, XEN_4_16


class TestCorpusGeneration:
    def test_default_corpus_meets_acceptance_bar(self):
        corpus = generate_corpus()
        assert len(corpus) >= 100
        assert len(set(corpus.ids)) == len(corpus)  # all distinct
        assert len(corpus.by_class()) >= 4

    def test_every_class_represented(self):
        corpus = generate_corpus(size=len(ALL_CLASSES))
        assert set(corpus.by_class()) == {c.value for c in VulnClass}

    def test_manifest_byte_identical_for_same_seed(self):
        a = generate_corpus(root_seed=11, size=30)
        b = generate_corpus(root_seed=11, size=30)
        assert a.manifest_json() == b.manifest_json()

    def test_manifest_differs_across_seeds(self):
        a = generate_corpus(root_seed=11, size=30)
        b = generate_corpus(root_seed=12, size=30)
        assert a.manifest()["digest"] != b.manifest()["digest"]

    def test_spec_is_pure_function_of_coordinates(self):
        assert derive_spec(2023, 17) == derive_spec(2023, 17)
        assert derive_spec(2023, 17) != derive_spec(2024, 17)

    def test_every_spec_version_gated_by_flag_predicates(self):
        corpus = generate_corpus(size=50)
        for spec in corpus.specs:
            # The gate answers on every shipped version without raw
            # name comparisons, and opens on at least one version.
            answers = [spec.gate.applies(v) for v in ALL_VERSIONS]
            assert any(answers)

    def test_bounds_specs_cross_frame_boundary(self):
        corpus = generate_corpus(size=125)
        for spec in corpus.specs:
            if spec.vuln_class is VulnClass.BOUNDS_ERROR:
                assert spec.span >= 2
                assert spec.word + spec.span > 512  # crosses into mfn+1

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(size=0)
        with pytest.raises(ValueError):
            derive_spec(2023, -1)


class TestIdResolution:
    def test_roundtrip(self):
        for spec in generate_corpus(size=10).specs:
            assert is_synthetic_id(spec.id)
            assert spec_by_id(spec.id) == spec

    def test_real_names_are_not_synthetic(self):
        assert not is_synthetic_id("XSA-182-test")
        assert not is_synthetic_id("syn-")
        assert not is_synthetic_id("syn-2023-12-bounds-error")  # short index

    def test_wrong_class_slug_rejected(self):
        good = derive_spec(2023, 3)  # bounds-error by round-robin
        forged = good.id.replace("bounds-error", "toctou-window")
        with pytest.raises(KeyError, match="derives"):
            spec_by_id(forged)

    def test_unknown_slug_rejected(self):
        with pytest.raises(KeyError, match="unknown vulnerability class"):
            spec_by_id("syn-2023-0003-made-up-class")


class TestRegistry:
    def test_real_use_cases_registered(self):
        names = registered_names()
        for cls in USE_CASES:
            assert cls.name in names
            assert is_registered(cls.name)
            assert resolve(cls.name) is cls

    def test_legacy_import_paths_still_work(self):
        assert USE_CASE_BY_NAME["XSA-182-test"] is XSA182Test
        assert resolve("XSA-182-test") is USE_CASE_BY_NAME["XSA-182-test"]

    def test_synthetic_ids_resolve_without_registration(self):
        spec = derive_spec(2023, 0)
        cls = resolve(spec.id)
        assert cls.name == spec.id
        assert spec.id not in registered_names()  # corpus-resolved, not stored

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown use case"):
            resolve("XSA-999-nope")

    def test_synthetic_metadata_matches_taxonomy(self):
        spec = derive_spec(2023, 2)  # refcount-imbalance
        cls = make_use_case(spec)
        assert cls.functionality is CLASS_FUNCTIONALITY[spec.vuln_class]
        assert cls.advisory == spec.gate.advisory


class TestSyntheticInjection:
    def _spec(self, vuln_class, root_seed=2023, size=125):
        for spec in generate_corpus(root_seed, size).specs:
            if spec.vuln_class is vuln_class:
                return spec
        raise AssertionError(f"no {vuln_class} spec in corpus")

    def test_injection_through_standard_path(self):
        spec = self._spec(VulnClass.MISSING_OWNERSHIP_CHECK)
        bed = build_testbed(XEN_4_6)
        erroneous, _ = inject_by_name(spec.id, bed)
        assert erroneous.achieved

    def test_injection_through_campaign(self):
        spec = self._spec(VulnClass.MISSING_OWNERSHIP_CHECK)
        result = Campaign().run(make_use_case(spec), XEN_4_6, Mode.INJECTION)
        assert result.erroneous_state.achieved

    def test_every_class_injects_on_every_version(self):
        # The injector works regardless of the gate — the paper's claim.
        for vuln_class in ALL_CLASSES:
            spec = self._spec(vuln_class)
            for version in (XEN_4_6, XEN_4_16):
                bed = build_testbed(version)
                use_case = make_use_case(spec)()
                use_case.prepare(bed)
                use_case.run_injection(bed)
                assert use_case.audit_erroneous_state(bed).achieved, (
                    f"{spec.id} not injectable on {version.name}"
                )

    def test_exploit_refuses_where_gate_closed(self):
        corpus = generate_corpus(size=125)
        spec = next(
            s for s in corpus.specs
            if any(s.gate.applies(v) for v in ALL_VERSIONS)
            and not all(s.gate.applies(v) for v in ALL_VERSIONS)
        )
        open_version = next(v for v in ALL_VERSIONS if spec.gate.applies(v))
        closed_version = next(
            v for v in ALL_VERSIONS if not spec.gate.applies(v)
        )
        use_case = make_use_case(spec)()
        use_case.run_exploit(build_testbed(open_version))  # must not raise
        with pytest.raises(ExploitFailed):
            make_use_case(spec)().run_exploit(build_testbed(closed_version))

    def test_exploit_and_injection_fingerprints_match(self):
        spec = self._spec(VulnClass.MISSING_PRIVILEGE_CHECK)
        version = next(v for v in ALL_VERSIONS if spec.gate.applies(v))
        exploit_case = make_use_case(spec)()
        bed = build_testbed(version)
        exploit_case.run_exploit(bed)
        exploit_report = exploit_case.audit_erroneous_state(bed)
        injected_case = make_use_case(spec)()
        bed = build_testbed(version)
        injected_case.run_injection(bed)
        injected_report = injected_case.audit_erroneous_state(bed)
        assert exploit_report.matches(injected_report)


class TestSyntheticTrials:
    def test_trial_is_deterministic(self):
        spec = derive_spec(2023, 1)
        a = run_synthetic_trial(spec, XEN_4_6, 999, mutation="bitflip")
        b = run_synthetic_trial(spec, XEN_4_6, 999, mutation="bitflip")
        assert a == b

    def test_trial_records_corpus_id(self):
        spec = derive_spec(2023, 0)
        result = run_synthetic_trial(spec, XEN_4_6, 1)
        assert result.component == spec.id
        assert result.outcome in {
            "crash", "exception", "silent", "latent", "refused"
        }

    def test_coverage_signature_attached_on_request(self):
        spec = derive_spec(2023, 0)
        bare = run_synthetic_trial(spec, XEN_4_6, 1)
        covered = run_synthetic_trial(spec, XEN_4_6, 1, collect_coverage=True)
        assert bare.coverage is None
        assert covered.coverage and covered.coverage == sorted(covered.coverage)
        assert bare.outcome == covered.outcome  # probes never perturb

    def test_unknown_mutation_rejected(self):
        with pytest.raises(KeyError, match="unknown mutation"):
            run_synthetic_trial(derive_spec(2023, 0), XEN_4_6, 1, mutation="nope")

    def test_a_raising_trial_leaves_no_subscriber_behind(self, monkeypatch):
        def raise_machine_error(*args, **kwargs):
            raise MachineError("simulated fault mid-trial")

        monkeypatch.setattr(
            RandomErroneousStateCampaign, "_exercise",
            staticmethod(raise_machine_error),
        )
        bed = build_testbed(XEN_4_6)
        with pytest.raises(MachineError):
            run_synthetic_trial_on(
                bed, derive_spec(2023, 0), 1, collect_coverage=True
            )
        assert all(not bed.probes.subscribers(name) for name in P.ALL_POINTS)


class TestCoverageFeatures:
    def test_bucketing_matches_collector_signature(self):
        bed = build_testbed(XEN_4_6)
        collector = MetricsCollector(bed.probes).attach()
        bed.tick(2)
        bed.attacker_domain.kernel.printk("probe traffic")
        signature = collector.coverage_signature()
        assert signature == coverage_features(
            collector.snapshot()["counters"]
        )
        assert signature == sorted(signature)

    def test_log2_bucketing(self):
        assert coverage_features({"x": 1}) == ["x:1"]
        assert coverage_features({"x": 2}) == coverage_features({"x": 3})
        assert coverage_features({"x": 4}) != coverage_features({"x": 3})
        assert coverage_features({"x": 0}) == []


class TestTaxonomyMapping:
    def test_rule_map_covers_every_class(self):
        assert set(CLASS_RULE_MAP) == set(VulnClass)

    def test_check_classes_map_to_their_static_rules(self):
        assert CLASS_RULE_MAP[VulnClass.MISSING_OWNERSHIP_CHECK] == ("R2", "R7")
        assert CLASS_RULE_MAP[VulnClass.MISSING_PRIVILEGE_CHECK] == ("R2", "R7")
        assert CLASS_RULE_MAP[VulnClass.REFCOUNT_IMBALANCE] == ("R1", "R7")
        assert CLASS_RULE_MAP[VulnClass.BOUNDS_ERROR] == ("R7",)
        assert CLASS_RULE_MAP[VulnClass.TOCTOU_WINDOW] == ("R8",)
