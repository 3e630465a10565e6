"""The seeded, deterministic fault schedule.

A :class:`FaultPlan` is a pure function of its seed: for a fixed seed the
same sequence of fetches experiences the same faults, which makes faulty
runs reproducible and lets tests compare a faulty world against a
fault-free twin.

Faults are decided *per request, before the virtual server runs*, so the
stateful server-side random streams (ad selection, syndication) consume
exactly one draw per delivered response whether or not the transport
failed first — the property that lets a retried run converge to the
fault-free result.  A fault event carries a ``burst`` length: the number
of consecutive attempts of the same request it keeps failing.  Bursts are
capped below the default retry budget, so recovery is guaranteed when
retries are enabled and failure is guaranteed when they are not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    DnsTimeoutError,
    ServerUnavailableError,
    TabCrashError,
    TransientError,
)
from repro.faults.stats import FaultStats
from repro.rng import rng_for, weighted_choice

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import CrawlScope


class FaultKind(enum.Enum):
    """The transient failure modes injected into the simulated internet."""

    DNS_TIMEOUT = "dns-timeout"
    CONNECT_TIMEOUT = "connect-timeout"
    SERVER_5XX = "server-5xx"
    SLOW_RESPONSE = "slow-response"
    TRUNCATED_BODY = "truncated-body"
    TAB_CRASH = "tab-crash"
    SESSION_CRASH = "session-crash"


#: Relative likelihood of each fetch-layer fault kind.
FETCH_KIND_WEIGHTS: tuple[tuple[FaultKind, float], ...] = (
    (FaultKind.DNS_TIMEOUT, 2.0),
    (FaultKind.CONNECT_TIMEOUT, 2.0),
    (FaultKind.SERVER_5XX, 3.0),
    (FaultKind.SLOW_RESPONSE, 2.0),
    (FaultKind.TRUNCATED_BODY, 1.0),
)
_FETCH_KINDS = [kind for kind, _ in FETCH_KIND_WEIGHTS]
_FETCH_WEIGHTS = [weight for _, weight in FETCH_KIND_WEIGHTS]
#: Virtual seconds one attempt affected by each delaying fault kind costs
#: the client (timeout waits, slow transfers); other kinds cost nothing.
FAULT_DELAY_SECONDS: dict[FaultKind, float] = {
    FaultKind.DNS_TIMEOUT: 2.0,
    FaultKind.CONNECT_TIMEOUT: 1.0,
    FaultKind.SLOW_RESPONSE: 3.0,
}


@dataclass(frozen=True)
class FaultEvent:
    """One decided fault: its kind, persistence and virtual-time cost.

    ``burst`` is how many consecutive attempts of the same request the
    fault affects; ``delay`` is the virtual seconds each affected attempt
    costs the client (timeout waits, slow transfers).
    """

    kind: FaultKind
    burst: int = 1
    delay: float = 0.0

    def to_error(self, host: str) -> TransientError:
        """The typed transient error this event surfaces as."""
        if self.kind is FaultKind.DNS_TIMEOUT:
            return DnsTimeoutError(host, self.delay)
        if self.kind is FaultKind.TAB_CRASH:
            return TabCrashError(host)
        return ServerUnavailableError(host, self.kind.value)


@dataclass(frozen=True)
class FaultConfig:
    """Injection knobs (all rates are per-opportunity probabilities)."""

    #: Per-fetch-hop probability of a transport fault.
    rate: float = 0.02
    #: Per-navigation probability that the tab process crashes at launch.
    tab_crash_rate: float = 0.01
    #: Per-crawl-session probability that the container crashes at launch.
    session_crash_rate: float = 0.02
    #: Maximum consecutive attempts one fault event keeps failing.  Keep
    #: below the retry budget or recovery cannot be complete.
    max_burst: int = 2

    def __post_init__(self) -> None:
        for name in ("rate", "tab_crash_rate", "session_crash_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.max_burst < 1:
            raise ValueError("max_burst must be at least 1")

    @classmethod
    def at_rate(cls, rate: float) -> "FaultConfig":
        """Scale every injection channel from one headline fetch rate."""
        return cls(rate=rate, tab_crash_rate=rate / 2.0, session_crash_rate=rate)


class FaultPlan:
    """Deterministic fault decisions for one simulated world.

    Fetch and tab-crash decisions draw from the
    :class:`~repro.net.network.CrawlScope` of the request: one stream per
    scope and injection point, seeded from the plan seed and the scope
    label, made on first use and dropped with the scope.  The schedule is
    therefore a pure function of the seed, the scope and that scope's own
    request order, which partitions it with the crawl plan: a shard
    worker crawling only its own domains replays exactly the faults the
    sequential run injects there.  Session crashes stay stateless in
    ``(domain, UA)`` so a resumed crawl sees the same crash schedule.
    """

    def __init__(
        self,
        config: FaultConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config if config is not None else FaultConfig()
        self.seed = seed
        self.stats = FaultStats()

    # --------------------------------------------------------- fetch layer

    def fetch_fault(self, scope: "CrawlScope") -> FaultEvent | None:
        """Decide whether ``scope``'s next fetch attempt faults.

        Returns the full event (kind, burst, delay) so the fetch layer can
        replay the burst locally without consulting the plan again.
        """
        config = self.config
        if config.rate <= 0.0:
            return None
        rng = scope.stream(self.seed, "faults", "fetch")
        if rng.random() >= config.rate:
            return None
        kind = weighted_choice(rng, _FETCH_KINDS, _FETCH_WEIGHTS)
        burst = 1 if kind is FaultKind.SLOW_RESPONSE else rng.randint(1, config.max_burst)
        self.stats.injected[kind.value] += 1
        delay = FAULT_DELAY_SECONDS.get(kind, 0.0)
        return FaultEvent(kind=kind, burst=burst, delay=delay)

    # ------------------------------------------------------- browser layer

    def tab_crash(self, scope: "CrawlScope") -> bool:
        """Whether the tab process crashes launching ``scope``'s next navigation.

        A crash affects only the launch attempt: the relaunched tab (one
        retry later) proceeds normally.
        """
        config = self.config
        if config.tab_crash_rate <= 0.0:
            return False
        if scope.stream(self.seed, "faults", "tab-crash").random() >= config.tab_crash_rate:
            return False
        self.stats.injected[FaultKind.TAB_CRASH.value] += 1
        return True

    # ---------------------------------------------------------- farm layer

    def session_crash(self, domain: str, ua_name: str) -> None:
        """Raise :class:`TabCrashError` if this session's container crashes.

        The draw is stateless in (domain, UA) so a resumed crawl sees the
        same crash schedule; the crash happens before any request, so a
        re-run session replays the world exactly.
        """
        config = self.config
        if config.session_crash_rate <= 0.0:
            return
        rng = rng_for(self.seed, "faults", "session-crash", domain, ua_name)
        if rng.random() < config.session_crash_rate:
            self.stats.injected[FaultKind.SESSION_CRASH.value] += 1
            raise TabCrashError(f"session container for {domain} [{ua_name}]")
