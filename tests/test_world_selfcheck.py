"""Tests for the world integrity self-check."""

from repro import WorldConfig, build_world


class TestSelfCheck:
    def test_fresh_worlds_are_healthy(self):
        for seed in (7, 11, 42):
            world = build_world(WorldConfig.tiny(seed=seed))
            assert world.self_check() == []

    def test_detects_dead_tds(self, fresh_world):
        campaign = fresh_world.campaigns[0]
        del fresh_world.internet.dns._static[campaign.tds_domain]
        issues = fresh_world.self_check()
        assert any(campaign.tds_domain in issue for issue in issues)

    def test_detects_empty_inventory(self, fresh_world):
        server = fresh_world.networks["popcash"]
        server._inventory.clear()
        issues = fresh_world.self_check()
        assert any("PopCash" in issue for issue in issues)

    def test_detects_unresolvable_publisher(self, fresh_world):
        site = fresh_world.publishers[0]
        del fresh_world.internet.dns._static[site.domain]
        issues = fresh_world.self_check()
        assert any(site.domain in issue for issue in issues)
