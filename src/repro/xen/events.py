"""Event channels — Xen's virtual-interrupt substrate.

The paper notes (§IX-D) that "interruptions are implemented using
event channel data structures in Xen"; this module provides that
substrate so interrupt-flavoured intrusion models have a target
component.  It implements the classic port lifecycle: allocate an
unbound port, bind it from a peer domain, send notifications, close.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import EINVAL, EPERM, HypercallError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.domain import Domain
    from repro.xen.hypervisor import Xen


@dataclass
class Channel:
    """One end of an event channel."""

    port: int
    owner_id: int
    state: str  # "unbound" | "interdomain" | "closed"
    remote_domid: Optional[int] = None
    remote_port: Optional[int] = None

    def copy(self) -> "Channel":
        """An independent channel with the same (scalar) fields."""
        return Channel(
            self.port, self.owner_id, self.state, self.remote_domid,
            self.remote_port,
        )


class EventChannels:
    """Port allocation, binding and notification delivery."""

    MAX_PORTS_PER_DOMAIN = 64

    def __init__(self, xen: "Xen"):
        self.xen = xen
        self._channels: Dict[Tuple[int, int], Channel] = {}
        self._next_port: Dict[int, int] = {}
        #: Per-domain queue of pending notifications (port numbers).
        self.pending: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------

    def _alloc_port(self, domid: int) -> int:
        port = self._next_port.get(domid, 1)
        if port >= self.MAX_PORTS_PER_DOMAIN:
            raise HypercallError(EINVAL, f"d{domid} out of event ports")
        self._next_port[domid] = port + 1
        return port

    def channel(self, domid: int, port: int) -> Channel:
        try:
            return self._channels[(domid, port)]
        except KeyError:
            raise HypercallError(EINVAL, f"d{domid} has no port {port}") from None

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def alloc_unbound(self, domain: "Domain", remote_domid: int) -> int:
        """Allocate a port that ``remote_domid`` may later bind to."""
        port = self._alloc_port(domain.id)
        self._channels[(domain.id, port)] = Channel(
            port=port,
            owner_id=domain.id,
            state="unbound",
            remote_domid=remote_domid,
        )
        return port

    def bind_interdomain(
        self, domain: "Domain", remote_domid: int, remote_port: int
    ) -> int:
        remote = self.channel(remote_domid, remote_port)
        if remote.state != "unbound" or remote.remote_domid != domain.id:
            raise HypercallError(
                EPERM, f"port {remote_port} of d{remote_domid} not offered to us"
            )
        local_port = self._alloc_port(domain.id)
        local = Channel(
            port=local_port,
            owner_id=domain.id,
            state="interdomain",
            remote_domid=remote_domid,
            remote_port=remote_port,
        )
        remote.state = "interdomain"
        remote.remote_port = local_port
        self._channels[(domain.id, local_port)] = local
        return local_port

    def send(self, domain: "Domain", port: int) -> int:
        local = self.channel(domain.id, port)
        if local.state != "interdomain":
            raise HypercallError(EINVAL, f"port {port} not connected")
        target_domid = local.remote_domid
        target_port = local.remote_port
        self.pending.setdefault(target_domid, []).append(target_port)
        target = self.xen.domains.get(target_domid)
        if target is not None and target.kernel is not None:
            target.kernel.on_event(target_port)
        return 0

    def close(self, domain: "Domain", port: int) -> int:
        local = self.channel(domain.id, port)
        local.state = "closed"
        if local.remote_domid is not None and local.remote_port is not None:
            peer = self._channels.get((local.remote_domid, local.remote_port))
            if peer is not None and peer.state == "interdomain":
                peer.state = "unbound"
                peer.remote_port = None
        return 0

    def drain(self, domid: int) -> List[int]:
        """Pop all pending notifications for a domain."""
        queue = self.pending.get(domid, [])
        self.pending[domid] = []
        return queue
