"""Tests for the world builder."""

from collections import Counter

import pytest

from repro import WorldConfig, build_world
from repro.attacks.categories import AttackCategory
from repro.errors import WorldConfigError


class TestWorldConfig:
    def test_presets_valid(self):
        for config in (WorldConfig.tiny(), WorldConfig.small()):
            assert config.n_publishers > 0

    def test_paper_scale_magnitudes(self):
        config = WorldConfig.paper_scale()
        assert config.n_publishers == 93_427
        assert config.n_campaigns == 108
        assert config.resolved_new_publishers == pytest.approx(8981, abs=5)

    def test_new_publisher_ratio(self):
        config = WorldConfig(n_publishers=9343)
        assert config.resolved_new_publishers == pytest.approx(898, abs=5)

    def test_explicit_new_publishers(self):
        assert WorldConfig(n_new_publishers=3).resolved_new_publishers == 3

    def test_preset_overrides(self):
        config = WorldConfig.tiny(seed=3, fault_rate=0.05, n_campaigns=8)
        assert config.seed == 3
        assert config.fault_rate == 0.05
        assert config.n_campaigns == 8
        assert config.n_publishers == 120  # untouched preset field
        assert WorldConfig.small(syndication_prob=0.0).syndication_prob == 0.0
        assert WorldConfig.paper_scale(n_campaigns=100).n_campaigns == 100

    def test_preset_overrides_still_validated(self):
        with pytest.raises(WorldConfigError):
            WorldConfig.tiny(fault_rate=1.5)

    def test_invalid_configs_rejected(self):
        with pytest.raises(WorldConfigError):
            WorldConfig(n_publishers=0)
        with pytest.raises(WorldConfigError):
            WorldConfig(n_campaigns=3)
        with pytest.raises(WorldConfigError):
            WorldConfig(crawl_window_days=0)
        with pytest.raises(WorldConfigError):
            WorldConfig(networks_per_publisher=(0, 2))
        with pytest.raises(WorldConfigError):
            WorldConfig(networks_per_campaign=(3, 1))


class TestBuildWorld:
    def test_deterministic(self):
        a = build_world(WorldConfig.tiny(seed=5))
        b = build_world(WorldConfig.tiny(seed=5))
        assert [p.domain for p in a.publishers] == [p.domain for p in b.publishers]
        assert [c.tds_domain for c in a.campaigns] == [c.tds_domain for c in b.campaigns]

    def test_seed_changes_world(self):
        a = build_world(WorldConfig.tiny(seed=5))
        b = build_world(WorldConfig.tiny(seed=6))
        assert [p.domain for p in a.publishers] != [p.domain for p in b.publishers]

    def test_campaign_count_and_categories(self, tiny_world):
        assert len(tiny_world.campaigns) == 12
        categories = {campaign.category for campaign in tiny_world.campaigns}
        assert categories == set(AttackCategory)  # min 1 per category

    def test_campaign_apportionment_tracks_shares(self):
        world = build_world(WorldConfig(n_publishers=50, n_campaigns=54, n_advertisers=10))
        counts = Counter(campaign.category for campaign in world.campaigns)
        assert counts[AttackCategory.FAKE_SOFTWARE] > counts[AttackCategory.LOTTERY]
        assert counts[AttackCategory.REGISTRATION] > counts[AttackCategory.TECH_SUPPORT]
        assert sum(counts.values()) == 54

    def test_fourteen_networks(self, tiny_world):
        assert len(tiny_world.networks) == 14
        assert len(tiny_world.seed_networks) == 11
        assert len(tiny_world.discoverable_networks) == 3

    def test_every_network_has_inventory(self, tiny_world):
        for server in tiny_world.networks.values():
            assert server.campaigns()

    def test_publishers_registered_in_dns(self, tiny_world):
        for site in tiny_world.publishers[:10]:
            assert tiny_world.internet.host_alive(site.domain)

    def test_tds_domains_registered(self, tiny_world):
        for campaign in tiny_world.campaigns:
            assert tiny_world.internet.host_alive(campaign.tds_domain)

    def test_attack_domains_resolve_only_while_active(self, tiny_world):
        campaign = tiny_world.campaigns[0]
        now = tiny_world.clock.now()
        active = campaign.active_attack_domain(now)
        assert tiny_world.internet.host_alive(active)

    def test_new_publishers_host_only_discoverable_networks(self, tiny_world):
        discoverable_keys = {server.spec.key for server in tiny_world.discoverable_networks}
        for site in tiny_world.new_publishers:
            assert {server.spec.key for server in site.networks} <= discoverable_keys

    def test_some_regular_publishers_stack_discoverable_networks(self, tiny_world):
        discoverable_keys = {server.spec.key for server in tiny_world.discoverable_networks}
        stacked = [
            site
            for site in tiny_world.publishers
            if {server.spec.key for server in site.networks} & discoverable_keys
        ]
        assert stacked  # the source of "Unknown" attributions

    def test_webpulse_knows_publishers(self, tiny_world):
        site = tiny_world.publishers[0]
        assert tiny_world.webpulse.categorize(site.domain) == site.category

    def test_kind_of_host_ground_truth(self, tiny_world):
        campaign = tiny_world.campaigns[0]
        assert tiny_world.kind_of_host(campaign.tds_domain) == "se-tds"
        active = campaign.active_attack_domain(tiny_world.clock.now())
        assert tiny_world.kind_of_host(active) == "se-attack"
        assert tiny_world.kind_of_host(tiny_world.publishers[0].domain) == "publisher"
        assert tiny_world.kind_of_host("no-such-host.example") == "unknown"

    def test_campaign_by_key(self, tiny_world):
        campaign = tiny_world.campaigns[3]
        assert tiny_world.campaign_by_key(campaign.key) is campaign
        with pytest.raises(KeyError):
            tiny_world.campaign_by_key("nope")

    def test_gsb_hook_installed(self, tiny_world):
        campaign = tiny_world.campaigns[0]
        campaign.active_attack_domain(tiny_world.clock.now())
        domain = campaign.all_attack_domains()[0]
        assert domain in tiny_world.attack_domain_owner
        assert domain in tiny_world.gsb._decisions

    def test_vantages(self, tiny_world):
        assert not tiny_world.vantage_institution.looks_residential
        assert len(tiny_world.vantages_residential) == 3

    def test_publicwww_built(self, tiny_world):
        assert tiny_world.publicwww is not None
        hits = tiny_world.publicwww.search("pcuid_var")
        assert hits  # PopCash publishers exist and are indexed

    def test_publisher_ranks_heavy_tailed(self, tiny_world):
        ranks = sorted(site.rank for site in tiny_world.publishers)
        assert ranks[0] < 10_000
        assert ranks[-1] > 100_000
