"""Version configurations for the simulated hypervisor.

The paper evaluates three Xen releases.  In the simulator, a release is
a :class:`XenVersion`: a set of *vulnerabilities* still present in the
code base plus a set of *hardening* measures.  Every version-gated
check in the substrate consults these flags, so ablation experiments
can toggle individual fixes with :meth:`XenVersion.derive`.

The shipped configurations reproduce the paper's setting:

* **Xen 4.6** — vulnerable to XSA-148, XSA-182 and XSA-212.
* **Xen 4.8** — those three fixed; no extra hardening.
* **Xen 4.13** — fixed *and* hardened with the post-XSA-213..215
  changes (paper §VIII): the 512 GiB RWX linear-page-table alias is
  gone and guest accesses through linear/self page-table mappings are
  restricted.

The 2021 grant-table issues XSA-387/XSA-393 (used by the paper's §IV-B
intrusion-model example) post-date all three releases, so all three
carry them; the hypothetical ``XEN_4_16`` configuration has them fixed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional


class Vulnerability(enum.Enum):
    """Known defects the simulator can reproduce, by advisory id."""

    #: Missing check on L2 PTE ``_PAGE_PSE`` → guest-writable superpage
    #: over arbitrary machine memory (CVE-2015-7835).
    XSA_148 = "XSA-148"
    #: Faulty fast path for flag-only L4 updates skips re-validation →
    #: writable self-mapping L4 entries (CVE-2016-6258).
    XSA_182 = "XSA-182"
    #: ``memory_exchange()`` misses the bounds check on the output
    #: handle → arbitrary 8-byte write at a guest-chosen hypervisor
    #: linear address (CVE-2017-7228).
    XSA_212 = "XSA-212"
    #: Grant-table v2 status pages not released on version switch →
    #: guest keeps a reference to a freed Xen page (CVE-2021-28701).
    XSA_387 = "XSA-387"
    #: ``XENMEM_decrease_reservation`` after a cache-maintenance race
    #: leaves a stale mapping → guest keeps page access (Arm,
    #: CVE-2021-28700; modelled architecture-neutrally here).
    XSA_393 = "XSA-393"


class Hardening(enum.Enum):
    """Defence-in-depth measures (paper §VIII attributes them to 4.9+)."""

    #: The 512 GiB RWX alias of machine memory at 0xffff804000000000 is
    #: no longer mapped (into guests or the hypervisor).
    LINEAR_PT_ALIAS_REMOVED = "linear-pt-alias-removed"
    #: Guest linear accesses that reach a page-table frame *through* a
    #: linear/self mapping (an L4/L3 table appearing at a lower level of
    #: the walk) fault instead of being honoured.
    LINEAR_PT_RESTRICTED = "linear-pt-restricted"


@dataclass(frozen=True)
class XenVersion:
    """An immutable description of one hypervisor build."""

    name: str
    release_year: int
    vulnerabilities: FrozenSet[Vulnerability] = field(default_factory=frozenset)
    hardening: FrozenSet[Hardening] = field(default_factory=frozenset)

    def has_vuln(self, vuln: Vulnerability) -> bool:
        return vuln in self.vulnerabilities

    def has_hardening(self, measure: Hardening) -> bool:
        return measure in self.hardening

    def derive(
        self,
        name: Optional[str] = None,
        add_vulns: Iterable[Vulnerability] = (),
        remove_vulns: Iterable[Vulnerability] = (),
        add_hardening: Iterable[Hardening] = (),
        remove_hardening: Iterable[Hardening] = (),
    ) -> "XenVersion":
        """Return a modified copy — the ablation-study entry point."""
        vulns = (set(self.vulnerabilities) | set(add_vulns)) - set(remove_vulns)
        hard = (set(self.hardening) | set(add_hardening)) - set(remove_hardening)
        return XenVersion(
            name=name or f"{self.name}*",
            release_year=self.release_year,
            vulnerabilities=frozenset(vulns),
            hardening=frozenset(hard),
        )

    def __str__(self) -> str:
        return f"Xen {self.name}"


_GRANT_TABLE_VULNS = frozenset({Vulnerability.XSA_387, Vulnerability.XSA_393})

XEN_4_6 = XenVersion(
    name="4.6",
    release_year=2015,
    vulnerabilities=frozenset(
        {Vulnerability.XSA_148, Vulnerability.XSA_182, Vulnerability.XSA_212}
    )
    | _GRANT_TABLE_VULNS,
)

XEN_4_8 = XenVersion(
    name="4.8",
    release_year=2016,
    vulnerabilities=_GRANT_TABLE_VULNS,
)

#: The release where the post-XSA-213..215 hardening first shipped —
#: the paper (§VIII) traces 4.13's different behaviour to "a security
#: hardening performed on the Xen 4.9 code".  Not part of the paper's
#: evaluated set, but useful for pinpointing the behavioural boundary.
XEN_4_9 = XenVersion(
    name="4.9",
    release_year=2017,
    vulnerabilities=_GRANT_TABLE_VULNS,
    hardening=frozenset(
        {Hardening.LINEAR_PT_ALIAS_REMOVED, Hardening.LINEAR_PT_RESTRICTED}
    ),
)

XEN_4_13 = XenVersion(
    name="4.13",
    release_year=2019,
    vulnerabilities=_GRANT_TABLE_VULNS,
    hardening=frozenset(
        {Hardening.LINEAR_PT_ALIAS_REMOVED, Hardening.LINEAR_PT_RESTRICTED}
    ),
)

#: Hypothetical future release with the grant-table issues fixed too;
#: used by the grant-table intrusion-model example.
XEN_4_16 = XenVersion(
    name="4.16",
    release_year=2021,
    vulnerabilities=frozenset(),
    hardening=frozenset(
        {Hardening.LINEAR_PT_ALIAS_REMOVED, Hardening.LINEAR_PT_RESTRICTED}
    ),
)

ALL_VERSIONS = (XEN_4_6, XEN_4_8, XEN_4_13)

_BY_NAME = {
    v.name: v for v in (XEN_4_6, XEN_4_8, XEN_4_9, XEN_4_13, XEN_4_16)
}


def version_by_name(name: str) -> XenVersion:
    """Look up a shipped configuration (``"4.6"``, ``"4.8"``, ...)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown Xen version {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


def is_shipped(version: XenVersion) -> bool:
    """Whether ``version`` is the shipped configuration of its name.

    A job spec names its version, and workers look the name up with
    :func:`version_by_name`; any other object (a :meth:`XenVersion.derive`
    copy, say) does not survive that trip.
    """
    return _BY_NAME.get(version.name) is version
