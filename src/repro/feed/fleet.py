"""A simulated fleet of blocklist-consuming clients.

Models up to ~10⁶ in-browser clients polling the :class:`FeedServer` on
the sim clock, to measure **protection lag**: how long after the milker
first sees an attack domain do deployed clients actually block it — and
how that compares to waiting for Google Safe Browsing.

Scale comes from per-cohort aggregation: clients are grouped into
``cohorts`` cohorts of ``clients_per_cohort`` identically scheduled
clients, so one simulated poll stands for a whole cohort's worth of
traffic.  Everything is seeded — cohort phase offsets, per-poll
schedule jitter, injected poll faults, retry backoff (via :class:`repro.faults.RetryPolicy`) — so the
fleet run is deterministic for a given (feed history, config).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.clock import DAY, MINUTE, EventScheduler, SimClock
from repro.errors import ConfigError
from repro.faults.retry import RetryPolicy
from repro.feed.server import DELTA, FULL, FeedRequest, FeedServer
from repro.feed.snapshot import FeedDelta, FeedEntry, FeedSnapshot, apply_delta, state_hash
from repro.rng import rng_for
from repro.telemetry import current as current_telemetry


def percentile(sorted_values: list[float], fraction: float) -> float | None:
    """Nearest-rank percentile over pre-sorted values (deterministic)."""
    if not sorted_values:
        return None
    rank = math.ceil(fraction * len(sorted_values))
    index = min(len(sorted_values) - 1, max(0, rank - 1))
    return sorted_values[index]


@dataclass(frozen=True)
class FleetConfig:
    """Fleet shape and client behaviour."""

    cohorts: int = 20
    clients_per_cohort: int = 50_000
    poll_interval_minutes: float = 30.0
    #: Fraction of the poll interval each poll may drift from its grid
    #: slot (uniform in ``±fraction/2 * interval``, seeded per cohort and
    #: poll index).  Real clients never tick on an exact grid; jitter
    #: smears the thundering herd the cohort model would otherwise
    #: create.  0.0 (the default) keeps the exact historical schedule.
    poll_jitter_fraction: float = 0.0
    #: Probability one poll attempt fails in transit (client-side view of
    #: flaky networks); failed attempts retry with deterministic backoff.
    fault_rate: float = 0.0
    max_attempts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cohorts < 1 or self.clients_per_cohort < 1:
            raise ValueError("cohorts and clients_per_cohort must be positive")
        if self.poll_interval_minutes <= 0:
            raise ValueError("poll_interval_minutes must be positive")
        if not 0.0 <= self.poll_jitter_fraction < 1.0:
            raise ValueError("poll_jitter_fraction must be in [0, 1)")
        if not 0.0 <= self.fault_rate < 1.0:
            raise ValueError("fault_rate must be in [0, 1)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    @property
    def modeled_clients(self) -> int:
        return self.cohorts * self.clients_per_cohort


@dataclass
class _CohortState:
    """One cohort's client state (shared by all its modeled clients)."""

    index: int
    version: int = 0
    content_hash: str = ""
    #: The cohort's blocklist; after a delta it is the fleet's shared,
    #: read-only map for that transition.
    entries: Mapping[str, FeedEntry] = field(default_factory=dict)
    #: Sim time each domain became blocked for this cohort.
    protected_at: dict[str, float] = field(default_factory=dict)
    polls: int = 0
    failed_attempts: int = 0


@dataclass(frozen=True)
class DomainProtection:
    """Per-domain protection timeline across the fleet."""

    domain: str
    category: str | None
    network: str | None
    #: Sim time the milker first saw the domain.
    milked_at: float
    #: Sim time the first feed snapshot containing it was published.
    published_at: float
    #: Earliest / mean sim time a cohort became protected.
    first_protected_at: float
    mean_protected_at: float
    #: When GSB (eventually) listed the domain; None if never.
    gsb_listed_at: float | None


@dataclass
class FleetReport:
    """Everything one fleet run measured."""

    config: FleetConfig
    started_at: float
    finished_at: float
    polls: int = 0
    failed_attempts: int = 0
    protection: list[DomainProtection] = field(default_factory=list)
    #: Per-(cohort, domain) protection lag in minutes, sorted ascending —
    #: the raw distribution behind the percentile report.  Deterministic
    #: (sim-clock quantities only).
    lag_samples_minutes: list[float] = field(default_factory=list)
    #: Wall-clock per-poll serving latency in ms, sorted ascending.
    #: Diagnostic only (machine-dependent): excluded from determinism
    #: comparisons, reported as tail-latency percentiles.
    poll_latency_ms: list[float] = field(default_factory=list, compare=False)

    @property
    def modeled_clients(self) -> int:
        return self.config.modeled_clients

    @property
    def modeled_requests(self) -> int:
        """Requests the modeled population would have issued."""
        return self.polls * self.config.clients_per_cohort

    # ------------------------------------------------------------ aggregates

    def gsb_listed_fraction(self) -> float:
        """Fraction of protected domains GSB ever lists."""
        if not self.protection:
            return 0.0
        listed = sum(1 for item in self.protection if item.gsb_listed_at is not None)
        return listed / len(self.protection)

    def lag_percentiles(self) -> dict[str, float | None]:
        """p50/p95/p99 protection lag (minutes) across (cohort, domain).

        The tail is the number that matters operationally: the paper's
        protection argument is only as good as the *slowest* cohorts'
        catch-up, not the mean.
        """
        samples = self.lag_samples_minutes
        return {
            "count": len(samples),
            "p50": percentile(samples, 0.50),
            "p95": percentile(samples, 0.95),
            "p99": percentile(samples, 0.99),
            "max": samples[-1] if samples else None,
        }

    def latency_percentiles(self) -> dict[str, float | None]:
        """p50/p95/p99 wall-clock serving latency (ms) across polls."""
        samples = self.poll_latency_ms
        return {
            "count": len(samples),
            "p50": percentile(samples, 0.50),
            "p95": percentile(samples, 0.95),
            "p99": percentile(samples, 0.99),
        }

    def mean_head_start_days(self) -> float | None:
        """Mean (GSB listing − fleet protection) over listed domains —
        how far the milked feed leads the blacklist for deployed clients."""
        lags = [
            (item.gsb_listed_at - item.mean_protected_at) / DAY
            for item in self.protection
            if item.gsb_listed_at is not None
        ]
        return sum(lags) / len(lags) if lags else None


class FeedClientFleet:
    """Drives the cohorts' poll schedules over the feed history."""

    def __init__(
        self,
        server: FeedServer,
        config: FleetConfig | None = None,
        gsb=None,
    ) -> None:
        self.server = server
        self.config = config if config is not None else FleetConfig()
        #: Anything with ``listed_time(domain) -> float | None`` (the
        #: world's GSB simulator); None leaves gsb_listed_at unset.
        self.gsb = gsb

    def run(self, start: float | None = None, until: float | None = None) -> FleetReport:
        """Replay the publication timeline against the polling fleet.

        Defaults: ``start`` at the first snapshot's publication,
        ``until`` two poll intervals past the last one, so every cohort
        observes the final version.  Runs on its own :class:`SimClock`,
        leaving the pipeline's world clock untouched.
        """
        config = self.config
        snapshots = self.server.snapshots
        interval = config.poll_interval_minutes * MINUTE
        if start is None:
            start = snapshots[0].published_at
        if until is None:
            until = snapshots[-1].published_at + 2 * interval
        if until <= start:
            raise ConfigError(
                f"fleet window is empty: start={start} until={until}"
            )
        clock = SimClock(start)
        scheduler = EventScheduler(clock)
        self._poll_latency_ms: list[float] = []
        #: Verified delta transitions: (pre-state content hash, delta
        #: payload) -> the entry map it yields, shared read-only by every
        #: cohort making the same transition, so each distinct transition
        #: is applied and checked against ``to_hash`` once.  A cohort's
        #: content hash is only ever set from a full snapshot or after a
        #: verified delta, so it names its entry map.
        self._transitions: dict[tuple[str, bytes], Mapping[str, FeedEntry]] = {}
        retry_policy = RetryPolicy(
            max_attempts=config.max_attempts, seed=config.seed
        )
        cohorts = [_CohortState(index=i) for i in range(config.cohorts)]
        telemetry = current_telemetry()

        def attempt(cohort: _CohortState, poll_index: int, tries: int, now: float) -> None:
            faulty = (
                config.fault_rate > 0.0
                and rng_for(
                    config.seed, "feed-poll-fault", cohort.index, poll_index, tries
                ).random()
                < config.fault_rate
            )
            if faulty:
                cohort.failed_attempts += 1
                telemetry.inc("feed.fleet.failed_attempts")
                if retry_policy.should_retry(tries):
                    delay = retry_policy.backoff(
                        tries, "feed-poll", cohort.index, poll_index
                    )
                    scheduler.schedule_after(
                        delay,
                        lambda when, c=cohort, p=poll_index, t=tries + 1: attempt(
                            c, p, t, when
                        ),
                    )
                return
            self._poll(cohort, now)

        def schedule_cohort(cohort: _CohortState) -> None:
            offset = (
                rng_for(config.seed, "feed-cohort-offset", cohort.index).random()
                * interval
            )
            counter = {"polls": 0}

            def fire(now: float) -> None:
                poll_index = counter["polls"]
                counter["polls"] += 1
                attempt(cohort, poll_index, 0, now)

            if config.poll_jitter_fraction == 0.0:
                scheduler.schedule_every(
                    interval, fire, start=start + offset, until=until
                )
                return
            # Jittered path: same grid slots as schedule_every (one poll
            # per slot, same count), each displaced by a seeded uniform
            # draw and clamped into the run window so no poll is lost.
            k = 0
            while True:
                slot = start + offset + k * interval
                if slot > until:
                    break
                jitter = (
                    rng_for(
                        config.seed, "feed-poll-jitter", cohort.index, k
                    ).random()
                    - 0.5
                ) * config.poll_jitter_fraction * interval
                scheduler.schedule_at(
                    min(until, max(start, slot + jitter)), fire
                )
                k += 1

        with telemetry.span(
            "feed.fleet",
            attrs={
                "cohorts": config.cohorts,
                "clients": config.modeled_clients,
            },
            sim_start=start,
        ):
            for cohort in cohorts:
                schedule_cohort(cohort)
            scheduler.run_until(until)
        return self._report(cohorts, start, until)

    # ----------------------------------------------------------- internals

    def _poll(self, cohort: _CohortState, now: float) -> None:
        cohort.polls += 1
        current_telemetry().inc("feed.fleet.polls")
        started = time.perf_counter()
        response = self.server.handle(
            FeedRequest(
                client_version=cohort.version or None,
                client_hash=cohort.content_hash or None,
            ),
            now=now,
        )
        self._poll_latency_ms.append((time.perf_counter() - started) * 1000.0)
        if response.status == FULL:
            snapshot = FeedSnapshot.from_record(json.loads(response.payload))
            cohort.entries = snapshot.entry_map()
        elif response.status == DELTA:
            transition = (cohort.content_hash, response.payload)
            entries = self._transitions.get(transition)
            if entries is None:
                delta = FeedDelta.from_record(json.loads(response.payload))
                entries = apply_delta(cohort.entries, delta)
                if state_hash(entries) != delta.to_hash:
                    raise ConfigError(
                        f"cohort {cohort.index} diverged applying delta "
                        f"v{delta.from_version}->v{delta.to_version}; the feed "
                        "history is inconsistent"
                    )
                entries = self._transitions[transition] = MappingProxyType(entries)
            cohort.entries = entries
        else:  # not modified
            return
        cohort.version = response.version
        cohort.content_hash = response.content_hash
        for domain in cohort.entries:
            cohort.protected_at.setdefault(domain, now)

    def _report(
        self, cohorts: list[_CohortState], start: float, until: float
    ) -> FleetReport:
        report = FleetReport(config=self.config, started_at=start, finished_at=until)
        report.polls = sum(cohort.polls for cohort in cohorts)
        report.failed_attempts = sum(cohort.failed_attempts for cohort in cohorts)
        report.poll_latency_ms = sorted(getattr(self, "_poll_latency_ms", []))
        published_at: dict[str, float] = {}
        entry_of: dict[str, FeedEntry] = {}
        for snapshot in self.server.snapshots:
            for entry in snapshot.entries:
                published_at.setdefault(entry.domain, snapshot.published_at)
                entry_of[entry.domain] = entry
        lag_samples: list[float] = []
        for domain, entry in entry_of.items():
            for cohort in cohorts:
                when = cohort.protected_at.get(domain)
                if when is not None:
                    lag_samples.append((when - entry.first_seen) / MINUTE)
        report.lag_samples_minutes = sorted(lag_samples)
        for domain in sorted(entry_of):
            times = [
                cohort.protected_at[domain]
                for cohort in cohorts
                if domain in cohort.protected_at
            ]
            if not times:
                continue
            entry = entry_of[domain]
            report.protection.append(
                DomainProtection(
                    domain=domain,
                    category=entry.category,
                    network=entry.network,
                    milked_at=entry.first_seen,
                    published_at=published_at[domain],
                    first_protected_at=min(times),
                    mean_protected_at=sum(times) / len(times),
                    gsb_listed_at=(
                        self.gsb.listed_time(domain) if self.gsb is not None else None
                    ),
                )
            )
        return report


# ------------------------------------------------------------- rendering


@dataclass(frozen=True)
class LagRow:
    """One protection-lag table row (rendered by ``reports.render_table``)."""

    category: str
    domains: int
    feed_lag_min: str
    gsb_listed: str
    gsb_lag_days: str
    head_start_days: str


def lag_table(report: FleetReport) -> list[LagRow]:
    """Per-category protection-lag rows, with an ALL summary row last."""

    def render(items: list[DomainProtection], label: str) -> LagRow:
        feed_lags = [
            (item.mean_protected_at - item.milked_at) / MINUTE for item in items
        ]
        listed = [item for item in items if item.gsb_listed_at is not None]
        gsb_lags = [(item.gsb_listed_at - item.milked_at) / DAY for item in listed]
        head_starts = [
            (item.gsb_listed_at - item.mean_protected_at) / DAY for item in listed
        ]

        def mean(values: list[float]) -> str:
            return f"{sum(values) / len(values):.2f}" if values else "-"

        return LagRow(
            category=label,
            domains=len(items),
            feed_lag_min=mean(feed_lags),
            gsb_listed=(
                f"{100 * len(listed) / len(items):.1f}%" if items else "-"
            ),
            gsb_lag_days=mean(gsb_lags),
            head_start_days=mean(head_starts),
        )

    groups: dict[str, list[DomainProtection]] = {}
    for item in report.protection:
        groups.setdefault(item.category or "(uncategorized)", []).append(item)
    rows = [render(items, label) for label, items in sorted(groups.items())]
    rows.append(render(report.protection, "ALL"))
    return rows
