"""Campaign statistics: domain churn timelines and summaries.

§3.5/§4.5 characterize campaigns by how fast they rotate attack domains
("hours to a few days").  These helpers compute per-campaign timelines
from a milking report and aggregate churn statistics across campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.categories import AttackCategory
from repro.clock import HOUR
from repro.core.milking import MilkingReport


@dataclass
class CampaignTimeline:
    """One tracked campaign's milking timeline."""

    cluster_id: int
    category: AttackCategory | None
    #: Discovery times of its fresh attack domains (sorted, seconds).
    discovery_times: list[float] = field(default_factory=list)

    @property
    def domain_count(self) -> int:
        """Distinct attack domains milked from this campaign."""
        return len(self.discovery_times)

    @property
    def mean_rotation_hours(self) -> float | None:
        """Mean gap between consecutive fresh domains, in hours."""
        if len(self.discovery_times) < 2:
            return None
        gaps = [
            later - earlier
            for earlier, later in zip(self.discovery_times, self.discovery_times[1:])
        ]
        return (sum(gaps) / len(gaps)) / HOUR


def campaign_timelines(report: MilkingReport) -> dict[int, CampaignTimeline]:
    """Build per-cluster timelines from a milking report."""
    timelines: dict[int, CampaignTimeline] = {}
    for record in report.domains:
        timeline = timelines.get(record.cluster_id)
        if timeline is None:
            timeline = CampaignTimeline(
                cluster_id=record.cluster_id, category=record.category
            )
            timelines[record.cluster_id] = timeline
        timeline.discovery_times.append(record.discovered_at)
    for timeline in timelines.values():
        timeline.discovery_times.sort()
    return timelines


@dataclass(frozen=True)
class ChurnSummary:
    """Aggregate churn statistics across tracked campaigns."""

    campaigns: int
    total_domains: int
    mean_domains_per_campaign: float
    median_rotation_hours: float | None
    fastest_rotation_hours: float | None
    slowest_rotation_hours: float | None


def churn_summary(report: MilkingReport) -> ChurnSummary:
    """Summarize rotation behaviour across all tracked campaigns."""
    timelines = list(campaign_timelines(report).values())
    rotations = sorted(
        timeline.mean_rotation_hours
        for timeline in timelines
        if timeline.mean_rotation_hours is not None
    )
    return ChurnSummary(
        campaigns=len(timelines),
        total_domains=sum(timeline.domain_count for timeline in timelines),
        mean_domains_per_campaign=(
            sum(t.domain_count for t in timelines) / len(timelines) if timelines else 0.0
        ),
        median_rotation_hours=rotations[len(rotations) // 2] if rotations else None,
        fastest_rotation_hours=rotations[0] if rotations else None,
        slowest_rotation_hours=rotations[-1] if rotations else None,
    )
