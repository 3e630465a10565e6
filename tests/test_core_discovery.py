"""Tests for SEACMA campaign discovery (§3.3)."""

from dataclasses import replace

import pytest

from repro.attacks.categories import AttackCategory
from repro.core.crawler import AdInteraction, ChainNode
from repro.core.discovery import discover_campaigns
from repro.dom.page import VisualSpec
from repro.imaging.dhash import dhash128
from repro.imaging.image import render_visual


def synthetic_interaction(template, variant, e2ld, kind="se-attack", category=None, failed=False):
    image = render_visual(VisualSpec(template, variant=variant))
    labels = {"kind": kind}
    if category is not None:
        labels["category"] = category
    return AdInteraction(
        publisher_domain="pub.com",
        publisher_url="http://pub.com/",
        ua_name="chrome66-macos",
        vantage_name="institution",
        landing_url=f"http://{e2ld}/lp",
        landing_host=e2ld,
        landing_e2ld=e2ld,
        screenshot_hash=dhash128(image),
        timestamp=0.0,
        chain=(ChainNode(url=f"http://{e2ld}/lp", cause="window-open"),),
        publisher_scripts=(),
        load_failed=failed,
        labels=labels,
    )


def campaign_interactions(name, domains, category="Fake Software"):
    return [
        synthetic_interaction(f"attack/{name}", variant=i, e2ld=domain, category=category)
        for i, domain in enumerate(domains)
    ]


class TestDiscoverCampaigns:
    def test_churning_campaign_discovered(self):
        records = campaign_interactions("c1", [f"d{i}.club" for i in range(8)])
        result = discover_campaigns(records)
        assert len(result.seacma_campaigns) == 1
        cluster = result.seacma_campaigns[0]
        assert cluster.category is AttackCategory.FAKE_SOFTWARE
        assert len(cluster.distinct_e2lds) == 8

    def test_two_campaigns_separate_clusters(self):
        records = campaign_interactions("c1", [f"a{i}.club" for i in range(6)])
        records += campaign_interactions(
            "c2", [f"b{i}.xyz" for i in range(6)], category="Scareware"
        )
        result = discover_campaigns(records)
        assert len(result.seacma_campaigns) == 2
        categories = {cluster.category for cluster in result.seacma_campaigns}
        assert categories == {AttackCategory.FAKE_SOFTWARE, AttackCategory.SCAREWARE}

    def test_stable_domain_campaign_filtered_out(self):
        # Benign ads: same screenshot, one domain -> theta_c filter drops it.
        records = [
            synthetic_interaction("benign/adv", variant=i, e2ld="brand.com", kind="advertiser")
            for i in range(10)
        ]
        result = discover_campaigns(records)
        assert result.campaigns == []

    def test_theta_c_boundary(self):
        records = campaign_interactions("c1", [f"d{i}.club" for i in range(4)])
        assert discover_campaigns(records, theta_c=5).campaigns == []
        assert len(discover_campaigns(records, theta_c=4).campaigns) == 1

    def test_min_pts_boundary(self):
        records = campaign_interactions("c1", ["a.club", "b.club"])
        # Two distinct pairs < MinPts=3: noise.
        assert discover_campaigns(records, theta_c=2).campaigns == []

    def test_duplicate_pairs_deduplicated(self):
        # Many sightings of the same (hash, e2LD) count once for density.
        records = []
        for _ in range(10):
            records += campaign_interactions("c1", ["a.club", "b.club"])
        result = discover_campaigns(records, theta_c=2)
        assert result.campaigns == []  # still only 2 distinct pairs

    def test_dead_pages_form_spurious_cluster(self):
        records = [
            synthetic_interaction("dead-page", variant=0, e2ld=f"dead{i}.top", kind="unknown", failed=True)
            for i in range(6)
        ]
        # All dead pages render identically: variant is ignored for the
        # dead template, so force the same hash.
        result = discover_campaigns(records)
        assert len(result.campaigns) == 1
        assert result.campaigns[0].label == "spurious"
        assert not result.campaigns[0].is_seacma

    def test_benign_cluster_labelled_by_kind(self):
        records = [
            synthetic_interaction("benign/parked/1", variant=i, e2ld=f"p{i}.com", kind="parked")
            for i in range(7)
        ]
        result = discover_campaigns(records)
        assert len(result.campaigns) == 1
        assert result.campaigns[0].label == "parked"

    def test_census(self):
        records = campaign_interactions("c1", [f"d{i}.club" for i in range(6)])
        records += [
            synthetic_interaction("benign/parked/1", variant=i, e2ld=f"p{i}.com", kind="parked")
            for i in range(6)
        ]
        census = discover_campaigns(records).census()
        assert census == {"se-attack": 1, "parked": 1}

    def test_interactions_without_e2ld_skipped(self):
        record = synthetic_interaction("x", 0, "a.club")
        broken = replace(record, landing_e2ld="", labels={})
        result = discover_campaigns([broken])
        assert result.campaigns == []

    def test_invalid_eps_rejected(self):
        with pytest.raises(ValueError):
            discover_campaigns([], eps=0.0)

    def test_se_interactions_aggregation(self):
        records = campaign_interactions("c1", [f"d{i}.club" for i in range(6)])
        result = discover_campaigns(records)
        assert len(result.se_interactions()) == 6


class TestDiscoveryOnRealCrawl:
    def test_discovers_multiple_true_campaigns(self, pipeline_run):
        world, _, result = pipeline_run
        discovery = result.discovery
        assert len(discovery.seacma_campaigns) >= 4

    def test_clusters_are_pure(self, pipeline_run):
        """Each SE cluster maps to exactly one ground-truth campaign."""
        _, _, result = pipeline_run
        for cluster in result.discovery.seacma_campaigns:
            keys = {
                record.labels.get("campaign")
                for record in cluster.interactions
                if record.labels.get("campaign")
            }
            assert len(keys) == 1

    def test_no_true_campaign_split_across_clusters(self, pipeline_run):
        _, _, result = pipeline_run
        seen: dict[str, int] = {}
        for cluster in result.discovery.seacma_campaigns:
            for record in cluster.interactions:
                key = record.labels.get("campaign")
                if key:
                    seen.setdefault(key, cluster.cluster_id)
                    assert seen[key] == cluster.cluster_id

    def test_benign_census_kinds(self, pipeline_run):
        _, _, result = pipeline_run
        census = result.discovery.census()
        benign_kinds = set(census) - {"se-attack"}
        assert benign_kinds <= {"parked", "stock-adult", "shortener", "spurious", "advertiser"}
        assert benign_kinds  # some benign clusters exist, as in §4.3

    def test_kept_clusters_pass_theta_c(self, pipeline_run):
        _, _, result = pipeline_run
        for cluster in result.discovery.campaigns:
            assert len(cluster.distinct_e2lds) >= result.discovery.theta_c
