"""Proactive defense feeds.

The paper argues its tracker "provides a mechanism to more proactively
detect and block such evasive SE attacks" (abstract, §4.5) and that it
can auto-collect tech-support scam phone numbers (§4.3) and survey-scam
gateways (§4.3).  These builders turn a milking report into exactly
those artifacts, and :func:`feed_vs_gsb` quantifies the feed's head
start over the blacklist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.clock import DAY
from repro.core.milking import MilkingReport
from repro.ecosystem.gsb import GoogleSafeBrowsing


@dataclass(frozen=True)
class FeedEntry:
    """One indicator: a value, when we first saw it, and its source."""

    value: str
    first_seen: float
    kind: str
    campaign_cluster: int | None = None


@dataclass
class BlacklistFeed:
    """An ordered, deduplicated indicator feed."""

    name: str
    entries: list[FeedEntry] = field(default_factory=list)
    _seen: set[str] = field(default_factory=set, repr=False)

    def add(self, entry: FeedEntry) -> bool:
        """Append ``entry`` unless its value is already present."""
        if entry.value in self._seen:
            return False
        self._seen.add(entry.value)
        self.entries.append(entry)
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[FeedEntry]:
        return iter(self.entries)

    def values(self) -> list[str]:
        """All indicator values, in first-seen order."""
        return [entry.value for entry in self.entries]


def build_domain_feed(report: MilkingReport) -> BlacklistFeed:
    """SE attack domains, timestamped at milking discovery."""
    feed = BlacklistFeed(name="seacma-attack-domains")
    for record in sorted(report.domains, key=lambda r: r.discovered_at):
        feed.add(
            FeedEntry(
                value=record.domain,
                first_seen=record.discovered_at,
                kind="domain",
                campaign_cluster=record.cluster_id,
            )
        )
    return feed


def build_phone_feed(report: MilkingReport) -> BlacklistFeed:
    """Tech-support scam phone numbers harvested from attack pages."""
    feed = BlacklistFeed(name="scam-phone-numbers")
    for phone in sorted(report.phones):
        feed.add(FeedEntry(value=phone, first_seen=report.started_at, kind="phone"))
    return feed


def build_gateway_feed(report: MilkingReport) -> BlacklistFeed:
    """Survey/registration gateway URLs the campaigns forward victims to."""
    feed = BlacklistFeed(name="scam-gateways")
    for gateway in sorted(report.gateways):
        feed.add(FeedEntry(value=gateway, first_seen=report.started_at, kind="url"))
    return feed


@dataclass(frozen=True)
class FeedComparison:
    """How a milking-derived domain feed compares to GSB."""

    feed_size: int
    gsb_listed_ever: int
    only_in_feed: int
    mean_head_start_days: float | None

    @property
    def exclusive_fraction(self) -> float:
        """Fraction of feed indicators GSB never lists."""
        if self.feed_size == 0:
            return 0.0
        return self.only_in_feed / self.feed_size


def feed_vs_gsb(feed: BlacklistFeed, gsb: GoogleSafeBrowsing) -> FeedComparison:
    """Quantify the feed's advantage over the GSB blacklist.

    For the domains GSB eventually lists, the head start is
    ``listing time - feed first-seen``; domains GSB never lists are the
    feed's exclusive coverage.
    """
    listed = 0
    only_feed = 0
    head_starts: list[float] = []
    for entry in feed:
        listed_at = gsb.listed_time(entry.value)
        if listed_at is None:
            only_feed += 1
            continue
        listed += 1
        head_starts.append((listed_at - entry.first_seen) / DAY)
    return FeedComparison(
        feed_size=len(feed),
        gsb_listed_ever=listed,
        only_in_feed=only_feed,
        mean_head_start_days=(
            sum(head_starts) / len(head_starts) if head_starts else None
        ),
    )
