"""Exception hierarchy for the SEACMA reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class UrlError(ReproError):
    """Raised when a URL cannot be parsed or manipulated."""


class DnsError(ReproError):
    """Raised when a hostname cannot be resolved on the simulated internet."""

    def __init__(self, host: str, reason: str = "NXDOMAIN") -> None:
        self.host = host
        self.reason = reason
        super().__init__(f"DNS failure for {host!r}: {reason}")


class FetchError(ReproError):
    """Raised when a simulated HTTP fetch fails below the HTTP layer."""


class TransientError(ReproError):
    """Base class for retryable infrastructure failures.

    Transient failures (timeouts, overloaded servers, crashed tabs) are
    expected to clear on retry, unlike permanent ones such as NXDOMAIN
    (:class:`DnsError`); the retry machinery in :mod:`repro.faults`
    retries exactly this class and nothing else.
    """


class DnsTimeoutError(TransientError):
    """Raised when a DNS lookup times out (the resolver, not NXDOMAIN)."""

    def __init__(self, host: str, timeout_seconds: float = 0.0) -> None:
        self.host = host
        self.timeout_seconds = timeout_seconds
        super().__init__(f"DNS lookup for {host!r} timed out")


class ServerUnavailableError(TransientError):
    """Raised when a server cannot be reached or answers uselessly
    (connection timeout, 5xx before the application, truncated body)."""

    def __init__(self, host: str, reason: str = "connection timed out") -> None:
        self.host = host
        self.reason = reason
        super().__init__(f"server {host!r} unavailable: {reason}")


class TabCrashError(TransientError):
    """Raised when a browser tab (or a whole crawl-session container)
    crashes before completing its work."""

    def __init__(self, detail: str = "") -> None:
        self.detail = detail
        message = "browser tab crashed"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class RedirectLoopError(FetchError):
    """Raised when a redirect chain exceeds the browser's hop limit."""

    def __init__(self, start_url: str, hops: int) -> None:
        self.start_url = start_url
        self.hops = hops
        super().__init__(f"redirect loop starting at {start_url} ({hops} hops)")


class BrowserError(ReproError):
    """Raised for invalid browser-automation operations."""


class WorldConfigError(ReproError):
    """Raised when a :class:`~repro.ecosystem.world.WorldConfig` is invalid."""


class ConfigError(ReproError):
    """Raised when the measurement system is wired inconsistently.

    Unlike :class:`WorldConfigError` (bad *world parameters*), this covers
    a structurally incomplete setup: a world missing a service the
    requested pipeline stage depends on, or stage preconditions that a
    caller skipped.  Messages include a remediation hint.
    """


class StoreError(ReproError):
    """Raised when a run store is missing, malformed, or misused."""


class ClusteringError(ReproError):
    """Raised for invalid clustering parameters or inputs."""


class MilkingError(ReproError):
    """Raised when the milking tracker is used incorrectly."""


class AttributionError(ReproError):
    """Raised when ad attribution is given malformed input."""
