"""Retry policy and per-host circuit breakers.

Both are deterministic: backoff jitter is derived through
:func:`repro.rng.rng_for` from the policy seed and the operation's labels,
and breaker state transitions depend only on the (virtual) clock and the
observed failure sequence.  Delays are *virtual* seconds spent by one
crawler container; they are accounted in :class:`FaultStats` rather than
advanced on the world clock, because a container waiting out a timeout
does not stall the (parallel) experiment — and because shifting the
world clock would drift domain-rotation timing away from the fault-free
run the tests compare against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.clock import SimClock
from repro.errors import ConfigError
from repro.faults.stats import FaultStats
from repro.rng import rng_for
from repro.telemetry import current as current_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import CrawlScope


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter, budget-capped.

    ``max_attempts`` counts total tries (1 means "never retry");
    ``max_total_delay`` caps the virtual seconds one operation may spend
    backing off, so a burst of faults cannot stall a crawl session.

    >>> policy = RetryPolicy()
    >>> policy.should_retry(0)
    True
    >>> policy.backoff(1, "host.com") == policy.backoff(1, "host.com")
    True
    """

    max_attempts: int = 4
    base_delay: float = 0.5
    max_delay: float = 8.0
    #: Relative jitter range: the delay is scaled by ``1 + jitter * u``
    #: with ``u`` drawn deterministically from the labels.
    jitter: float = 0.25
    max_total_delay: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    @classmethod
    def disabled(cls) -> "RetryPolicy":
        """A policy that never retries (degraded-mode experiments)."""
        return cls(max_attempts=1)

    def should_retry(self, failures: int, spent: float = 0.0) -> bool:
        """Whether another attempt is allowed after ``failures`` failures."""
        return failures + 1 < self.max_attempts and spent < self.max_total_delay

    def backoff(self, attempt: int, *labels: str | int) -> float:
        """The virtual-seconds delay before retry number ``attempt + 1``.

        The same (seed, labels, attempt) always yields the same delay.
        """
        delay = min(self.max_delay, self.base_delay * (2.0**attempt))
        if self.jitter > 0:
            spread = rng_for(self.seed, "retry-jitter", *labels, attempt).random()
            delay *= 1.0 + self.jitter * spread
        return delay


class BreakerState(enum.Enum):
    """Circuit-breaker states (the classic three-state machine)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-host breaker: fast-fail hosts that keep failing.

    After ``failure_threshold`` consecutive failures the breaker opens and
    :meth:`allow` answers False for ``cooldown`` virtual seconds; the next
    request after the cooldown is a half-open trial whose outcome either
    closes or re-opens the breaker.  ``last_failure_kind`` remembers what
    kind of failure tripped it (``"dns"``, ``"transient"`` or ``"server"``)
    so fast-fail responses can mirror the real outcome.
    """

    def __init__(self, host: str, failure_threshold: int = 3, cooldown: float = 300.0) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.host = host
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.state = BreakerState.CLOSED
        self.trips = 0
        self.last_failure_kind: str | None = None
        self._consecutive_failures = 0
        self._opened_at: float | None = None

    def allow(self, now: float) -> bool:
        """Whether a request to the host may proceed at virtual ``now``."""
        if self.state is not BreakerState.OPEN:
            return True
        if self._opened_at is None:
            raise ConfigError(
                f"circuit breaker for {self.host!r} is OPEN without an "
                "opening time; breakers must only be opened via "
                "record_failure(), which stamps it"
            )
        if now - self._opened_at >= self.cooldown:
            self.state = BreakerState.HALF_OPEN
            return True
        return False

    def record_success(self) -> None:
        """A request succeeded: close the breaker and forget failures."""
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = None

    def record_failure(self, kind: str, now: float) -> bool:
        """Record one failure; returns True when this one trips the breaker."""
        self.last_failure_kind = kind
        self._consecutive_failures += 1
        tripped = False
        if self.state is BreakerState.HALF_OPEN:
            # The trial request failed: straight back to open.
            self.state = BreakerState.OPEN
            self._opened_at = now
            self.trips += 1
            tripped = True
        elif (
            self.state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self.state = BreakerState.OPEN
            self._opened_at = now
            self.trips += 1
            tripped = True
        if tripped:
            current_telemetry().event(
                "fault.breaker_trip", {"host": self.host, "kind": kind}
            )
        return tripped


class BreakerRegistry:
    """Makes the :class:`CircuitBreaker` per (crawl scope, host), lazily.

    Each crawl unit (publisher domain) gets its own breaker per host: a
    real farm runs one container per session, so consecutive failures
    only accumulate within one unit's traffic.  Scoping also keeps the
    breaker state a pure function of that unit's request sequence, which
    is what lets shard workers reproduce it independently.  The breakers
    live in the unit's :class:`~repro.net.network.CrawlScope` and are
    dropped with it.
    """

    def __init__(self, failure_threshold: int = 3, cooldown: float = 300.0) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown

    def for_host(self, host: str, scope: "CrawlScope") -> CircuitBreaker:
        """The breaker guarding ``host`` within ``scope`` (created lazily)."""
        breaker = scope.breakers.get(host)
        if breaker is None:
            breaker = CircuitBreaker(host, self.failure_threshold, self.cooldown)
            scope.breakers[host] = breaker
        return breaker


@dataclass
class Resilience:
    """The recovery bundle shared by crawler, farm, milker and browser.

    Attached to :class:`~repro.net.network.Internet` so every fetch path
    sees the same policy, the same per-host breakers and the same stats.
    """

    retry: RetryPolicy
    clock: SimClock
    stats: FaultStats = field(default_factory=FaultStats)
    breakers: BreakerRegistry = field(default_factory=BreakerRegistry)

    def backoff(self, attempt: int, *labels: str | int) -> float:
        """Spend one backoff delay: account the wait, count the retry."""
        delay = self.retry.backoff(attempt, *labels)
        self.stats.retries += 1
        self.stats.add_delay(delay)
        telemetry = current_telemetry()
        telemetry.inc("faults.backoffs")
        telemetry.event(
            "fault.backoff",
            {"attempt": attempt, "delay": delay, "labels": list(labels)},
        )
        return delay


def ensure_resilience(world, retries_enabled: bool = True) -> None:
    """Attach the recovery bundle to a world's internet when needed.

    Resilience is attached whenever the world injects faults; with
    retries disabled a never-retry policy is attached so every injected
    fault is felt (the degraded-mode experiment) while stats stay
    observable.  Shard worker processes call this with the same
    arguments as the parent pipeline so both sides run identical
    recovery machinery.
    """
    internet = world.internet
    if internet.fault_plan is None or internet.resilience is not None:
        return
    policy = (
        RetryPolicy(seed=world.config.seed)
        if retries_enabled
        else RetryPolicy.disabled()
    )
    internet.resilience = Resilience(
        retry=policy, clock=world.clock, stats=internet.fault_plan.stats
    )
