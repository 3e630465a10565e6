"""Tests for the milking tracker (§3.5/§4.5)."""

import pytest

from repro.clock import DAY
from repro.core.milking import MilkingConfig, MilkingTracker
from repro.errors import ConfigError, MilkingError


class TestConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration_days", -1.0),
            ("duration_days", float("nan")),
            ("duration_days", float("inf")),
            ("post_lookup_days", -0.5),
            ("post_lookup_days", float("inf")),
            ("interval_minutes", 0.0),
            ("interval_minutes", float("nan")),
        ],
    )
    def test_unbounded_schedule_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            MilkingConfig(**{field: value})

    def test_zero_days_allowed(self):
        assert MilkingConfig(duration_days=0.0, post_lookup_days=0.0).duration_days == 0.0


class TestSources:
    def test_sources_derived_and_verified(self, pipeline_run):
        world, pipeline, result = pipeline_run
        report = result.milking
        assert report.sources > 0
        assert report.sources >= len(result.discovery.seacma_campaigns)

    def test_run_without_sources_rejected(self, fresh_world):
        tracker = MilkingTracker(
            fresh_world.internet,
            fresh_world.gsb,
            fresh_world.virustotal,
            fresh_world.vantages_residential[0],
        )
        with pytest.raises(MilkingError):
            tracker.run(MilkingConfig(duration_days=0.1))


class TestMilkingReport:
    def test_session_volume(self, pipeline_run):
        _, _, result = pipeline_run
        report = result.milking
        # ~96 rounds/day for 2 days per source (some sources may die).
        expected_max = report.sources * 96 * 2 + report.sources
        assert 0 < report.sessions <= expected_max

    def test_new_domains_discovered(self, pipeline_run):
        world, _, result = pipeline_run
        report = result.milking
        assert len(report.domains) > len(result.discovery.seacma_campaigns)
        # Every milked domain is a genuine attack domain of some campaign.
        for record in report.domains:
            assert record.domain in world.attack_domain_owner

    def test_domains_unique(self, pipeline_run):
        _, _, result = pipeline_run
        names = [record.domain for record in result.milking.domains]
        assert len(names) == len(set(names))

    def test_discovery_times_within_window(self, pipeline_run):
        _, _, result = pipeline_run
        report = result.milking
        for record in report.domains:
            assert report.started_at <= record.discovered_at <= report.finished_at

    def test_gsb_initial_much_lower_than_final(self, pipeline_run):
        """The paper's headline evasion result."""
        _, _, result = pipeline_run
        report = result.milking
        assert report.gsb_init_rate() < 0.05
        assert report.gsb_final_rate() > report.gsb_init_rate()
        assert 0.05 < report.gsb_final_rate() < 0.35

    def test_detection_lag_exceeds_seven_days(self, pipeline_run):
        _, _, result = pipeline_run
        lag = result.milking.mean_detection_lag_days()
        assert lag is not None
        assert lag > 7.0

    def test_files_milked_and_scanned(self, pipeline_run):
        _, _, result = pipeline_run
        report = result.milking
        summary = report.vt_summary()
        assert summary["files"] > 0
        assert 0 <= summary["known_to_vt"] < summary["files"] * 0.4
        assert summary["malicious_after_rescan"] > summary["files"] * 0.8
        assert 0 < summary["flagged_by_15_plus"] < summary["files"]

    def test_vt_labels_dominated_by_pup_adware_trojan(self, pipeline_run):
        _, _, result = pipeline_run
        counts = result.milking.vt_label_counts()
        assert set(counts) <= {"Trojan", "Adware", "PUP"}
        assert counts

    def test_rescan_reports_attached(self, pipeline_run):
        _, _, result = pipeline_run
        for file in result.milking.files:
            assert file.rescan_report is not None
            assert file.rescan_report.scanned_at >= result.milking.finished_at

    def test_categories_match_cluster_truth(self, pipeline_run):
        world, _, result = pipeline_run
        for record in result.milking.domains:
            owner_key = world.attack_domain_owner[record.domain]
            true_category = world.campaign_by_key(owner_key).category
            assert record.category is true_category

    def test_domains_by_category_partition(self, pipeline_run):
        _, _, result = pipeline_run
        report = result.milking
        groups = report.domains_by_category()
        assert sum(len(group) for group in groups.values()) == len(report.domains)

    def test_rate_helpers_empty_pool(self, pipeline_run):
        _, _, result = pipeline_run
        assert result.milking.gsb_init_rate([]) == 0.0
        assert result.milking.gsb_final_rate([]) == 0.0

    def test_final_lookup_two_months_later(self, pipeline_run):
        _, _, result = pipeline_run
        report = result.milking
        assert report.final_lookup_at >= report.finished_at + 59 * DAY
