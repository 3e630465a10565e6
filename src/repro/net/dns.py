"""A registration-time DNS registry for the simulated internet.

Static hosts (publisher sites, benign advertisers) register once.  Hosts
that churn — SE attack domains rotating every few hours, ad-network code
domains — are resolved through *claimants*: servers that answer "is this
hostname mine right now?".  This mirrors how the real measurement system
never enumerates attacker domains up front; it only learns them by
following redirects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import DnsError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.server import VirtualServer


class DnsRegistry:
    """Maps hostnames to virtual servers.

    Resolution order: exact static registrations first, then dynamic
    claimants in registration order (first claim wins, deterministically).
    """

    def __init__(self) -> None:
        self._static: dict[str, "VirtualServer"] = {}
        self._claimants: list["VirtualServer"] = []

    def register(self, host: str, server: "VirtualServer") -> None:
        """Statically bind ``host`` to ``server``; rebinding is an error."""
        host = host.lower()
        if host in self._static:
            raise ValueError(f"host {host!r} already registered")
        self._static[host] = server

    def add_claimant(self, server: "VirtualServer") -> None:
        """Add a server consulted for hosts without static bindings."""
        self._claimants.append(server)

    def resolve(self, host: str, now: float) -> "VirtualServer":
        """Resolve ``host`` at virtual time ``now`` or raise :class:`DnsError`."""
        host = host.lower()
        static = self._static.get(host)
        if static is not None:
            return static
        for claimant in self._claimants:
            if claimant.claims_host(host, now):
                return claimant
        raise DnsError(host)

    def is_registered(self, host: str) -> bool:
        """Whether ``host`` has a static binding (claimants not consulted)."""
        return host.lower() in self._static
