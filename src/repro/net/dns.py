"""A registration-time DNS registry for the simulated internet.

Static hosts (publisher sites, benign advertisers) register once.  Hosts
that churn — SE attack domains rotating every few hours, ad-network code
domains — are resolved through *claimants*: servers that answer "is this
hostname mine right now?".  This mirrors how the real measurement system
never enumerates attacker domains up front; it only learns them by
following redirects.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import DnsError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.server import VirtualServer


class DnsRegistry:
    """Maps hostnames to virtual servers.

    Resolution order: exact static registrations first, then dynamic
    claimants in registration order (first claim wins, deterministically).

    Dynamic lookups are a dict lookup, not a poll.  A claimant that names
    its one active host and the window that answer holds for
    (:meth:`~repro.net.server.VirtualServer.claim`) is *indexed*: the
    registry keeps a map from active host to the first claimant claiming
    it, valid while ``now`` stays inside every indexed claimant's window,
    and rebuilds it — asking each claimant in order — only when a lookup
    falls outside.  Claimants are asked for time ``now`` whatever came
    before, so a rewound clock gets exactly the answers a poll would.
    Claimants that name no window are polled with
    :meth:`~repro.net.server.VirtualServer.claims_host` on every lookup,
    in their place in the claimant order.
    """

    def __init__(self) -> None:
        self._static: dict[str, "VirtualServer"] = {}
        self._claimants: list["VirtualServer"] = []
        #: Active host -> (claimant position, claimant), for the indexed
        #: claimants; valid for ``_valid_from <= now < _valid_until``.
        self._active: dict[str, tuple[int, "VirtualServer"]] = {}
        #: (position, claimant) of the claimants polled on every lookup.
        self._polled: list[tuple[int, "VirtualServer"]] = []
        self._valid_from = math.inf
        self._valid_until = -math.inf

    def register(self, host: str, server: "VirtualServer") -> None:
        """Statically bind ``host`` to ``server``; rebinding is an error."""
        host = host.lower()
        if host in self._static:
            raise ValueError(f"host {host!r} already registered")
        self._static[host] = server

    def add_claimant(self, server: "VirtualServer") -> None:
        """Add a server consulted for hosts without static bindings."""
        self._claimants.append(server)
        self._valid_from, self._valid_until = math.inf, -math.inf

    def resolve(self, host: str, now: float) -> "VirtualServer":
        """Resolve ``host`` at virtual time ``now`` or raise :class:`DnsError`."""
        host = host.lower()
        static = self._static.get(host)
        if static is not None:
            return static
        if not self._valid_from <= now < self._valid_until:
            self._reindex(now)
        found = self._active.get(host)
        if self._polled:
            ahead = found[0] if found is not None else len(self._claimants)
            for position, claimant in self._polled:
                if position > ahead:
                    break
                if claimant.claims_host(host, now):
                    return claimant
        if found is not None:
            return found[1]
        raise DnsError(host)

    def _reindex(self, now: float) -> None:
        """Ask every claimant, in order, what it claims at ``now``."""
        active: dict[str, tuple[int, "VirtualServer"]] = {}
        polled: list[tuple[int, "VirtualServer"]] = []
        valid_from, valid_until = -math.inf, math.inf
        for position, claimant in enumerate(self._claimants):
            claim = claimant.claim(now)
            if claim is None:
                polled.append((position, claimant))
                continue
            host, start, end = claim
            if host not in active:
                active[host] = (position, claimant)
            valid_from = max(valid_from, start)
            valid_until = min(valid_until, end)
        self._active = active
        self._polled = polled
        self._valid_from, self._valid_until = valid_from, valid_until

    def is_registered(self, host: str) -> bool:
        """Whether ``host`` has a static binding (claimants not consulted)."""
        return host.lower() in self._static
