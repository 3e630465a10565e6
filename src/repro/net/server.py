"""Virtual web servers.

A :class:`VirtualServer` is anything that can answer simulated HTTP
requests: publisher sites, ad-network endpoints, campaign TDS hosts,
attack-page hosts and benign advertisers all implement this interface.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.net.http import HttpRequest, HttpResponse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.clock import SimClock
    from repro.net.network import CrawlScope, Internet


@dataclass(slots=True)
class FetchContext:
    """The context handed to servers with every request.

    Carries the virtual clock (so servers can rotate content over time)
    and a back-reference to the internet (so redirectors can consult
    other services when composing chains).  :attr:`scope` is the crawl
    unit driving the request; servers draw their per-visitor decisions
    from its streams, so what one unit sees is independent of every
    other unit's request order (the property parallel sharding relies on).
    """

    clock: "SimClock"
    internet: "Internet"

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now()

    @property
    def scope(self) -> "CrawlScope":
        """The internet's current crawl scope (the root one outside the farm)."""
        return self.internet.scope


class VirtualServer(abc.ABC):
    """Interface for every host on the simulated internet."""

    @abc.abstractmethod
    def handle(self, request: HttpRequest, context: FetchContext) -> HttpResponse:
        """Answer ``request``; must not raise for routine 4xx/5xx outcomes."""

    def claims_host(self, host: str, now: float) -> bool:
        """Whether this server answers for ``host`` at time ``now``.

        Only servers registered as DNS claimants need to override this;
        statically registered servers never get asked.
        """
        return False

    def claim(self, now: float) -> tuple[str, float, float] | None:
        """The one host this claimant answers for at ``now``, with the
        window ``[start, end)`` of times over which that answer holds.

        A claimant that can say this lets :class:`~repro.net.dns.DnsRegistry`
        index it; the default None means "ask :meth:`claims_host`", and
        the registry then polls this claimant on every lookup.  A claimant
        returns None always or never.
        """
        return None


class FunctionServer(VirtualServer):
    """Adapter turning a plain function into a :class:`VirtualServer`.

    >>> server = FunctionServer(lambda request, context: not_found())
    """

    def __init__(
        self,
        handler: Callable[[HttpRequest, FetchContext], HttpResponse],
        claims: Callable[[str, float], bool] | None = None,
    ) -> None:
        self._handler = handler
        self._claims = claims

    def handle(self, request: HttpRequest, context: FetchContext) -> HttpResponse:
        return self._handler(request, context)

    def claims_host(self, host: str, now: float) -> bool:
        if self._claims is None:
            return False
        return self._claims(host, now)
