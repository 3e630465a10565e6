"""Tests for campaign churn statistics."""

from repro.analysis.stats import CampaignTimeline, campaign_timelines, churn_summary
from repro.attacks.categories import AttackCategory
from repro.clock import HOUR


class TestCampaignTimeline:
    def make_timeline(self, times):
        timeline = CampaignTimeline(cluster_id=1, category=AttackCategory.FAKE_SOFTWARE)
        timeline.discovery_times = sorted(times)
        return timeline

    def test_domain_count(self):
        assert self.make_timeline([0.0, HOUR, 2 * HOUR]).domain_count == 3

    def test_single_domain_span_zero(self):
        timeline = self.make_timeline([5.0])
        assert timeline.mean_rotation_hours is None

    def test_mean_rotation(self):
        timeline = self.make_timeline([0.0, 2 * HOUR, 4 * HOUR])
        assert timeline.mean_rotation_hours == 2.0


class TestOnRealReport:
    def test_timelines_partition_domains(self, pipeline_run):
        _, _, result = pipeline_run
        timelines = campaign_timelines(result.milking)
        assert sum(t.domain_count for t in timelines.values()) == len(
            result.milking.domains
        )
        for timeline in timelines.values():
            assert timeline.discovery_times == sorted(timeline.discovery_times)

    def test_churn_summary(self, pipeline_run):
        _, _, result = pipeline_run
        summary = churn_summary(result.milking)
        assert summary.campaigns > 0
        assert summary.total_domains == len(result.milking.domains)
        assert summary.mean_domains_per_campaign > 1
        # Attack domains rotate on the order of hours (§3.5).
        assert summary.median_rotation_hours is not None
        assert 0.25 <= summary.median_rotation_hours < 48.0
        assert summary.fastest_rotation_hours <= summary.slowest_rotation_hours
