"""The experimental testbed (paper §VI-C's environment).

One testbed = one freshly booted machine: the hypervisor at a chosen
version, the control domain (hostname ``xen3``, holding the
confidential ``/root/root_msg``), two unprivileged guests (the
attacker drives ``guest03``), the simulated network with the
attacker's external host ``xen2``, and — unless disabled — the
intrusion injector built into the hypercall table.

"The build and experimental environment are kept the same during all
process to restrict the differences in the run-time evaluation" — the
only parameter that varies across campaign runs is the Xen version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.injector import install_injector
from repro.core.topology import DEFAULT_TOPOLOGY, ScenarioTopology
from repro.guest.kernel import GuestKernel
from repro.net import Network
from repro.xen.domain import Domain
from repro.xen.hypervisor import Xen
from repro.xen.machine import Machine
from repro.xen.versions import XenVersion, is_shipped

#: The attacker's external machine and listening port (paper §VI-C.3:
#: ``nc -l -vvv -p 1234`` on host ``xen2``).
ATTACKER_HOST = "xen2"
ATTACKER_PORT = 1234

#: The secret the reverse-shell transcript reads from dom0.
ROOT_MSG_PATH = "/root/root_msg"
ROOT_MSG_CONTENT = "Confidential content in root folder!"

#: An in-memory secret seeded into dom0 (kernel page 6, word 0).  The
#: confidentiality monitor flags any guest that exfiltrates it.
SECRET_CANARY = 0x5EC2_E7CA_0A21_B175
SECRET_PFN = 6
SECRET_WORD = 0


@dataclass
class TestBed:
    """Everything one experiment run touches."""

    # Not a pytest test class, despite the name (pytest looks at Test*).
    __test__ = False

    xen: Xen
    dom0: Domain
    guests: List[Domain]
    network: Network
    attacker_host: str = ATTACKER_HOST
    attacker_port: int = ATTACKER_PORT
    #: The scenario shape this testbed was booted for.  Role accessors
    #: (:attr:`attacker_domain`, :attr:`victim_domain`,
    #: :attr:`observer_domain`) resolve through it — never index
    #: ``guests`` positionally (staticcheck R9).
    topology: ScenarioTopology = field(default=DEFAULT_TOPOLOGY)

    def domain_by_name(self, name: str) -> Domain:
        """Resolve a topology domain name against the booted domains."""
        for domain in self.all_domains():
            if domain.name == name:
                return domain
        raise KeyError(
            f"no domain named {name!r} in this testbed "
            f"(topology: {self.topology.describe()})"
        )

    @property
    def attacker_domain(self) -> Domain:
        """The guest the adversary controls.

        Deprecation shim for the pre-topology accessor: delegates to
        ``topology.attacker`` (``guest03`` in the paper default)
        instead of the historical hardwired last-guest index.
        """
        return self.domain_by_name(self.topology.attacker)

    @property
    def victim_domain(self) -> Domain:
        """The domain whose state the erroneous state targets and
        whose memory holds the secret canary (dom0 in the default)."""
        return self.domain_by_name(self.topology.victim)

    @property
    def observer_domain(self) -> Domain:
        """Where cross-domain monitors look by default."""
        return self.domain_by_name(self.topology.observer)

    @property
    def victim_guest(self) -> Domain:
        """The unprivileged guest that takes guest-directed abuse
        (interrupt storms).  The victim itself when it is a guest,
        otherwise the first guest that is not the attacker — which is
        ``guests[0]`` in the paper default, preserving the historical
        target of the storm extension."""
        victim = self.victim_domain
        if not victim.is_privileged:
            return victim
        for guest in self.guests:
            if guest.name != self.topology.attacker:
                return guest
        return victim

    @property
    def probes(self):
        """This testbed's :class:`~repro.probes.bus.ProbeBus` — the
        single interception surface observers subscribe to."""
        return self.xen.probes

    def all_domains(self) -> List[Domain]:
        return [self.dom0, *self.guests]

    def tick(self, rounds: int = 1) -> None:
        """Let the system run: the scheduler advances and every live
        domain schedules its user processes (vDSO calls happen here).
        No-op after a crash."""
        if self.xen.crashed:
            return
        for _ in range(rounds):
            self.xen.scheduler.tick()
            for domain in self.all_domains():
                if domain.kernel is not None and not domain.dead:
                    domain.kernel.run_user_work()


def build_testbed(
    version: XenVersion,
    enable_injector: bool = True,
    num_guests: int = 2,
    pages_per_domain: int = 48,
    machine_frames: int = 2048,
    topology: Optional[ScenarioTopology] = None,
) -> TestBed:
    """Boot a fresh, fully populated testbed.

    With no explicit ``topology`` the paper shape at ``num_guests`` is
    assumed (adversary in the last guest, victim state in dom0) —
    byte-identical to the pre-topology boot.  An explicit topology
    overrides ``num_guests`` and decides which domain receives the
    secret canary: the victim's kernel page 6 (dom0 keeps its copy
    either way, since it remains the control domain holding
    ``/root/root_msg``).
    """
    if topology is None:
        topology = (
            DEFAULT_TOPOLOGY
            if num_guests == 2
            else ScenarioTopology.paper_default(num_guests)
        )
    else:
        num_guests = topology.num_guests

    machine = Machine(machine_frames)
    xen = Xen(version, machine)
    if enable_injector:
        install_injector(xen)

    dom0 = xen.create_domain(
        "dom0", num_pages=pages_per_domain, is_privileged=True, hostname="xen3"
    )
    GuestKernel(xen, dom0).boot()
    dom0.kernel.fs.write(ROOT_MSG_PATH, ROOT_MSG_CONTENT, uid=0)
    machine.write_word(dom0.pfn_to_mfn(SECRET_PFN), SECRET_WORD, SECRET_CANARY)

    guests: List[Domain] = []
    for i in range(num_guests):
        name = f"guest{i + 2:02d}"  # guest02, guest03, ...
        guest = xen.create_domain(
            name, num_pages=pages_per_domain, is_privileged=False, hostname=name
        )
        GuestKernel(xen, guest).boot()
        guests.append(guest)

    bed = TestBed(
        xen=xen, dom0=dom0, guests=guests, network=Network(), topology=topology
    )
    if topology.victim != "dom0":
        victim = bed.victim_domain
        machine.write_word(
            victim.pfn_to_mfn(SECRET_PFN), SECRET_WORD, SECRET_CANARY
        )
    return bed


def uncarried_settings(
    testbed_factory: Callable[[XenVersion], TestBed],
    versions: Sequence[XenVersion],
) -> List[str]:
    """What of a (factory, versions) choice a job spec cannot carry.

    A spec names its version, and the job interpreter boots the shipped
    version of that name with :func:`build_testbed`; anything else is
    named here (see :func:`repro.runner.engine_for`).
    """
    uncarried = []
    if testbed_factory is not build_testbed:
        uncarried.append("custom testbed factories")
    unshipped = [v.name for v in versions if not is_shipped(v)]
    if unshipped:
        uncarried.append(f"unshipped versions {unshipped}")
    return uncarried
