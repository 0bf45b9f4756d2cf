"""``repro.vulngen`` — synthetic injectable-vulnerability corpus and
coverage-guided fuzz scheduling.

The paper's methodology needs *many* injectable erroneous states to
characterise intrusion effects, but only four hand-written XSA use
cases ship with the reproduction.  This package scales the scenario
count into the hundreds without inventing fake CVEs:

* :mod:`repro.vulngen.taxonomy` — the SPEC-RG hypercall-handler
  vulnerability classes (missing ownership check, missing privilege
  check, refcount imbalance, bounds/arithmetic error, TOCTOU window),
  mapped to the abusive-functionality taxonomy and to the staticcheck
  rules that model them (R1/R2/R7/R8).

* :mod:`repro.vulngen.render` — renders each corpus entry to a
  vulnerable/hardened pair of hypercall-handler modules, the labelled
  inputs for the ``repro staticcheck-eval`` detection-quality harness.

* :mod:`repro.vulngen.corpus` — a deterministic generator of
  *synthetic vulnerabilities*: each corpus entry is a pure function of
  ``(root_seed, index)``, version-gated through
  :class:`~repro.xen.versions.XenVersion` predicates, and identified
  by an id (``syn-<seed>-<index>-<class>``) that any worker process
  can resolve back into the full spec without shipping state around.

* :mod:`repro.vulngen.synthetic` — turns a spec into a
  :class:`~repro.exploits.base.UseCase` conforming to the same
  contract as the real XSAs, so synthetic vulns inject through the
  standard campaign path and register alongside the paper's four.

* :mod:`repro.vulngen.coverage` — the coverage map: probe-metric
  counters (:class:`repro.probes.MetricsCollector`) bucketed into
  AFL-style features, aggregated into a deterministic digest.

* :mod:`repro.vulngen.schedule` — coverage-guided scheduling for
  fuzz campaigns: novelty-based energy assignment over a corpus of
  (entry, seed, mutation) trials, with every scheduling decision a
  pure function of (root seed, observed coverage digests) so parallel
  campaigns equal serial ones byte for byte.

The package imports none of its submodules: import from them directly.
A worker that needs only :mod:`~repro.vulngen.corpus` then does not pay
for the scheduler, the renderer and the coverage map.
"""
