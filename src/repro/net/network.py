"""The simulated internet: request routing and HTTP-level redirects.

:class:`Internet` is the single entry point through which the browser (and
therefore the crawler farm and milking tracker) touches the world.  It
resolves hostnames through the :class:`~repro.net.dns.DnsRegistry` and
follows *HTTP-level* redirect chains; browser-level redirects (meta refresh,
JS navigation) are handled by :mod:`repro.browser`.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.clock import SimClock
from repro.errors import DnsError, FetchError, RedirectLoopError, UrlError
from repro.faults.plan import FaultKind
from repro.net.dns import DnsRegistry
from repro.net.http import HttpRequest, HttpResponse
from repro.net.server import FetchContext, VirtualServer
from repro.rng import rng_for
from repro.urlkit.url import Url

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan
    from repro.faults.retry import CircuitBreaker, Resilience
    from repro.faults.stats import FaultStats

MAX_REDIRECT_HOPS = 20


@dataclass(slots=True)
class FetchResult:
    """The outcome of one fetch, including the followed HTTP redirect chain.

    ``chain`` lists every URL visited, starting with the requested URL and
    ending with the URL that produced ``response`` (or the URL whose host
    failed to resolve, for DNS failures).  ``retries`` counts the backoff
    retries absorbed by injected transient faults along the chain.
    """

    response: HttpResponse
    chain: list[Url] = field(default_factory=list)
    dns_failure: bool = False
    retries: int = 0

    @property
    def final_url(self) -> Url:
        """The last URL in the redirect chain."""
        if not self.chain:
            raise FetchError("fetch result has an empty redirect chain (no URL was ever requested)")
        return self.chain[-1]


class CrawlScope:
    """The state one crawl unit's traffic accumulates, and nothing else.

    A crawl unit is one publisher domain of the crawl plan; the root
    scope ``""`` serves milking and pilot visits.  Every request-order-
    dependent stream is keyed by the unit driving the request, so one
    unit's traffic cannot perturb another's (the property that makes a
    shard worker replay exactly what the sequential crawl does):

    * the ad networks' decision streams and the campaigns' download
      streams (:meth:`stream`);
    * the fault plan's fetch and tab-crash decision streams (also
      :meth:`stream`: one generator per scope and injection point, never
      one per decision);
    * the per-host circuit breakers (:attr:`breakers`).

    :meth:`Internet.scoped` creates a unit's scope on entry and drops it
    on exit, so this state lives exactly as long as the unit reading it.
    """

    __slots__ = ("label", "breakers", "_streams")

    def __init__(self, label: str = "") -> None:
        self.label = label
        #: Circuit breakers by host, made by
        #: :meth:`repro.faults.retry.BreakerRegistry.for_host`.
        self.breakers: dict[str, "CircuitBreaker"] = {}
        self._streams: dict[tuple, random.Random] = {}

    def stream(self, seed: int, *labels: str) -> random.Random:
        """This unit's random stream for ``labels`` (made on first use).

        Seeded from ``(seed, *labels, "scope", label)``: the N-th draw
        depends only on this unit's own request order.
        """
        key = (seed, *labels)
        rng = self._streams.get(key)
        if rng is None:
            rng = self._streams[key] = rng_for(seed, *labels, "scope", self.label)
        return rng


class Internet:
    """Routes simulated HTTP requests to virtual servers.

    ``fault_plan`` (when set) injects deterministic transient faults into
    every fetch hop *before* the target server runs; ``resilience`` (when
    set) absorbs those faults with per-hop retries and per-host circuit
    breakers.  With neither attached the happy path is unchanged.
    """

    def __init__(self, clock: SimClock, fault_plan: "FaultPlan | None" = None) -> None:
        self.clock = clock
        #: The one context every request is served with: it holds only
        #: this internet and its clock, so no request needs its own.
        self._context = FetchContext(clock=clock, internet=self)
        self.dns = DnsRegistry()
        self.fault_plan = fault_plan
        self.resilience: "Resilience | None" = None
        self._fetch_count = 0
        #: The crawl unit driving the current requests: the root scope
        #: ``""`` (alive as long as this internet) outside any crawl unit.
        self.scope = CrawlScope("")
        self._interrupted: dict[str, CrawlScope] = {}

    @contextmanager
    def scoped(self, label: str) -> Iterator[None]:
        """Attribute all requests inside the block to crawl unit ``label``.

        Entering makes the unit's fresh :class:`CrawlScope`; leaving
        restores the outer scope and drops the finished one.  Nothing can
        read a finished scope again: a domain is entered once per process
        (one plan entry each; resume rebuilds the world), and the labels of its streams still
        include the domain, so every draw is the same as if it were kept.

        A unit left by an exception is not finished: its scope is kept
        and handed back when the unit is entered again, so an in-process
        resume from a session checkpoint continues the unit's streams
        where the crash stopped them.
        """
        outer = self.scope
        self.scope = self._interrupted.pop(label, None) or CrawlScope(label)
        try:
            yield
        except BaseException:
            self._interrupted[label] = self.scope
            raise
        finally:
            self.scope = outer

    @property
    def fault_stats(self) -> "FaultStats | None":
        """The shared fault/recovery counters, if any machinery is attached."""
        if self.resilience is not None:
            return self.resilience.stats
        if self.fault_plan is not None:
            return self.fault_plan.stats
        return None

    @property
    def fetch_count(self) -> int:
        """Total number of requests served (for load accounting)."""
        return self._fetch_count

    def register(self, host: str, server: VirtualServer) -> None:
        """Statically register ``server`` for ``host``."""
        self.dns.register(host, server)

    def add_claimant(self, server: VirtualServer) -> None:
        """Register a dynamic-host server (rotating attack/code domains)."""
        self.dns.add_claimant(server)

    def fetch(self, request: HttpRequest) -> FetchResult:
        """Serve ``request``, following HTTP redirects up to the hop limit.

        DNS failures are reported in-band (``dns_failure=True`` with a
        synthetic 502 response) because the real crawler also records dead
        attack domains rather than crashing on them.  Injected transient
        faults are retried per hop when ``resilience`` is attached; once
        the retry budget runs out the typed
        :class:`~repro.errors.TransientError` escapes to the caller.
        """
        context = self._context
        chain: list[Url] = []
        retries = 0
        current = request
        for _ in range(MAX_REDIRECT_HOPS):
            chain.append(current.url)
            self._fetch_count += 1
            response, dns_failed, hop_retries = self._serve_hop(current, context)
            retries += hop_retries
            if dns_failed:
                return FetchResult(
                    response=response, chain=chain, dns_failure=True, retries=retries
                )
            if not response.is_redirect:
                return FetchResult(response=response, chain=chain, retries=retries)
            try:
                target = response.location
            except UrlError:
                # A server emitted a garbage Location header; surface it
                # as a server error rather than crashing the crawler.
                return FetchResult(
                    response=HttpResponse(status=502, body=None),
                    chain=chain,
                    retries=retries,
                )
            # HTTP 303 forces GET; 307/308 preserve the method.
            method = current.method if response.status in (307, 308) else "GET"
            current = HttpRequest(
                url=target,
                vantage=current.vantage,
                user_agent=current.user_agent,
                method=method,
                referrer=current.url,
                headers=dict(current.headers),
            )
        raise RedirectLoopError(str(request.url), MAX_REDIRECT_HOPS)

    def _serve_hop(
        self, request: HttpRequest, context: FetchContext
    ) -> tuple[HttpResponse, bool, int]:
        """Serve one redirect hop with fault injection, retries and breakers.

        Returns ``(response, dns_failed, retries)``.  Faults fire *before*
        DNS resolution and the server handler, so a retried hop replays
        only the failed transport attempt — the server's stateful decision
        logic (ad selection, syndication) runs exactly once per delivered
        response, faulty world or not.
        """
        host = request.url.host
        scope = self.scope
        resilience = self.resilience
        breaker = None
        if resilience is not None:
            breaker = resilience.breakers.for_host(host, scope)
        if breaker is not None and not breaker.allow(self.clock.now()):
            # Fast-fail mirrors the outcome that tripped the breaker so
            # consumers see the same failure shape as a real attempt.
            resilience.stats.breaker_fast_fails += 1
            if breaker.last_failure_kind == "dns":
                return HttpResponse(status=502, body=None), True, 0
            return HttpResponse(status=503, body=None), False, 0
        event = None
        if self.fault_plan is not None:
            event = self.fault_plan.fetch_fault(scope)
        stats = self.fault_stats
        attempt = 0
        spent = 0.0
        if event is not None and event.kind is FaultKind.SLOW_RESPONSE:
            if stats is not None:
                stats.add_delay(event.delay)  # slow but successful transfer
            event = None
        while event is not None and attempt < event.burst:
            # The container waits out the timeout; the wait is accounted,
            # not advanced on the world clock (parallel containers).
            spent += event.delay
            if stats is not None:
                stats.add_delay(event.delay)
            if resilience is not None and resilience.retry.should_retry(attempt, spent):
                spent += resilience.backoff(attempt, "fetch", host)
                attempt += 1
                continue
            if stats is not None:
                stats.failed_fetches += 1
            if breaker is not None and breaker.record_failure("transient", self.clock.now()):
                resilience.stats.breaker_trips += 1
            raise event.to_error(host)
        try:
            server = self.dns.resolve(host, self.clock.now())
        except DnsError:
            if breaker is not None and breaker.record_failure("dns", self.clock.now()):
                resilience.stats.breaker_trips += 1
            return HttpResponse(status=502, body=None), True, attempt
        response = server.handle(request, context)
        if breaker is not None:
            if response.status >= 500:
                if breaker.record_failure("server", self.clock.now()):
                    resilience.stats.breaker_trips += 1
            else:
                breaker.record_success()
        if attempt > 0 and stats is not None:
            stats.recovered_fetches += 1
        return response, False, attempt

    def absorb_fetch_count(self, count: int) -> None:
        """Account requests served elsewhere (merged-in shard workers)."""
        if count < 0:
            raise ValueError("fetch count cannot be negative")
        self._fetch_count += count

    def host_alive(self, host: str) -> bool:
        """Whether ``host`` currently resolves."""
        try:
            self.dns.resolve(host, self.clock.now())
        except DnsError:
            return False
        return True
