"""Snapshot publication: turning milking discoveries into feed versions.

The :class:`FeedPublisher` is a milking observer
(:class:`repro.core.milking.MilkingTracker` notifies it per discovered
and re-sighted domain and per completed round).  It accumulates the live
entry set and cuts a new :class:`FeedSnapshot` at round boundaries,
rate-limited to one version per ``interval_minutes`` of sim time — the
feed's analogue of the Safe Browsing publication cadence.

Because milking runs entirely in the parent process on the sim clock,
the publisher's version history is a pure function of (world config,
pipeline arguments): byte-identical across ``--workers`` counts and
across resume.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from repro.chaos.points import crash_point
from repro.clock import MINUTE
from repro.feed.snapshot import FeedEntry, FeedSnapshot
from repro.telemetry import current as current_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.attribution import AttributionResult
    from repro.core.discovery import DiscoveryResult
    from repro.core.milking import MilkedDomain


def network_of_clusters(
    discovery: "DiscoveryResult", attribution: "AttributionResult | None"
) -> dict[int, str | None]:
    """Dominant ad network per SE cluster, by member-interaction vote.

    Feed entries carry the ad network the campaign was attributed to
    (§3.6): each cluster takes the network serving the plurality of its
    member interactions, ties broken by network key for determinism.
    Votes are counted from the attribution's per-row keys; no member
    record is read.
    """
    if attribution is None:
        return {}
    keys = attribution.keys
    result: dict[int, str | None] = {}
    for cluster in discovery.seacma_campaigns:
        votes = Counter(keys[row] for row in cluster.rows if keys[row] is not None)
        if not votes:
            result[cluster.cluster_id] = None
            continue
        best = max(votes.items(), key=lambda item: (item[1], item[0]))
        # Deterministic plurality: highest count, then lexicographically
        # last key — max() on (count, key) gives exactly that.
        result[cluster.cluster_id] = best[0]
    return result


class FeedPublisher:
    """Milking observer that publishes versioned blocklist snapshots."""

    def __init__(
        self,
        network_of_cluster: dict[int, str | None] | None = None,
        interval_minutes: float = 60.0,
    ) -> None:
        if interval_minutes <= 0:
            raise ValueError("interval_minutes must be positive")
        self.network_of_cluster = network_of_cluster or {}
        self.interval = interval_minutes * MINUTE
        self.snapshots: list[FeedSnapshot] = []
        self._entries: dict[str, FeedEntry] = {}
        self._dirty = False
        self._last_published_at: float | None = None

    # --------------------------------------------------- milking observer

    def domain_discovered(self, record: "MilkedDomain", now: float) -> None:
        """A never-before-seen attack domain entered the milking watchlist."""
        self._entries[record.domain] = FeedEntry(
            domain=record.domain,
            cluster_id=record.cluster_id,
            category=record.category.value if record.category else None,
            network=self.network_of_cluster.get(record.cluster_id),
            first_seen=record.discovered_at,
            last_seen=now,
        )
        self._dirty = True

    def domain_seen(self, record: "MilkedDomain", now: float) -> None:
        """A known domain was served again; refresh its last-seen time."""
        entry = self._entries.get(record.domain)
        if entry is None or entry.last_seen == now:
            return
        self._entries[record.domain] = FeedEntry(
            domain=entry.domain,
            cluster_id=entry.cluster_id,
            category=entry.category,
            network=entry.network,
            first_seen=entry.first_seen,
            last_seen=now,
        )
        self._dirty = True

    def round_complete(self, now: float) -> None:
        """A milking round finished; publish if due and anything changed."""
        if not self._dirty:
            return
        if (
            self._last_published_at is not None
            and now - self._last_published_at < self.interval
        ):
            return
        self._publish(now)

    def milking_finished(self, now: float) -> None:
        """The milking window closed; flush any unpublished changes."""
        if self._dirty:
            self._publish(now)

    # ----------------------------------------------------------- internals

    def _publish(self, now: float) -> None:
        crash_point("feed.publish.pre")
        snapshot = FeedSnapshot.build(
            version=len(self.snapshots) + 1,
            published_at=now,
            entries=self._entries.values(),
        )
        self.snapshots.append(snapshot)
        self._dirty = False
        self._last_published_at = now
        crash_point("feed.publish.post")
        telemetry = current_telemetry()
        telemetry.inc("feed.snapshots")
        telemetry.complete_span(
            "feed.publish",
            sim_start=now,
            sim_end=now,
            attrs={
                "version": snapshot.version,
                "entries": len(snapshot),
                "hash": snapshot.content_hash[:12],
            },
        )

    # ------------------------------------------------------------- results

    @property
    def latest(self) -> FeedSnapshot | None:
        return self.snapshots[-1] if self.snapshots else None
