"""Edge-case coverage for smaller API surfaces across the library."""

import pytest

from repro.clock import EventScheduler, MINUTE, SimClock
from repro.analysis.stats import churn_summary
from repro.core.milking import MilkingReport


class TestSchedulerStartParam:
    def test_schedule_every_with_explicit_start(self):
        clock = SimClock()
        scheduler = EventScheduler(clock)
        fired = []
        scheduler.schedule_every(10 * MINUTE, fired.append, start=5 * MINUTE, until=30 * MINUTE)
        scheduler.run_until(60 * MINUTE)
        assert fired == [5 * MINUTE, 15 * MINUTE, 25 * MINUTE]


class TestEmptyChurnSummary:
    def test_empty_report(self):
        summary = churn_summary(MilkingReport())
        assert summary.campaigns == 0
        assert summary.total_domains == 0
        assert summary.median_rotation_hours is None


class TestTable3ExplicitOrder:
    def test_order_parameter(self, pipeline_run):
        from repro.core.reports import table3

        world, _, result = pipeline_run
        order = ["popcash", "adsterra"]
        rows = table3(result.attribution, result.discovery, world.networks, order=order)
        assert [row.network for row in rows[:2]] == ["PopCash", "AdSterra"]
        assert rows[-1].network == "Unknown"


class TestBenignAdoptHost:
    def test_adopted_host_served(self, fresh_world):
        from repro.ecosystem.benign import BenignKind

        fresh_world.benign.adopt_host("customer-site.net")
        assert fresh_world.benign.kind_of_host("customer-site.net") is BenignKind.ADVERTISER
        # Idempotent.
        fresh_world.benign.adopt_host("customer-site.net")

    def test_customer_sites_resolve(self, fresh_world):
        for campaign in fresh_world.campaigns:
            if campaign.customer_url is None:
                continue
            host = campaign.customer_url.split("//")[1].split("/")[0]
            assert fresh_world.internet.host_alive(host)


class TestPublisherDirectory:
    def test_duplicate_rejected(self, fresh_world):
        directory = fresh_world.publisher_directory
        record = directory.record(fresh_world.publishers[0].domain)
        with pytest.raises(ValueError):
            directory.add_record(record)

    def test_unknown_lookup_raises(self, fresh_world):
        with pytest.raises(KeyError):
            fresh_world.publisher_directory.get("no-such-site.example")

    def test_sites_listing(self, fresh_world):
        sites = fresh_world.publisher_directory.sites()
        assert len(sites) == len(fresh_world.publishers) + len(fresh_world.new_publishers)


class TestCampaignServerPushFeed:
    def test_feed_redirects_to_live_attack_url(self, tiny_world):
        from repro.attacks.categories import AttackCategory
        from repro.browser.useragent import CHROME_MACOS
        from repro.net.http import HttpRequest
        from repro.net.server import FetchContext
        from repro.urlkit.url import parse_url

        campaign = next(
            c for c in tiny_world.campaigns
            if c.category is AttackCategory.NOTIFICATIONS
        )
        server = tiny_world.campaign_servers[campaign.key]
        context = FetchContext(clock=tiny_world.clock, internet=tiny_world.internet)
        request = HttpRequest(
            url=parse_url(f"http://{campaign.push_domain}/feed"),
            vantage=tiny_world.vantage_institution,
            user_agent=CHROME_MACOS.ua_string,
        )
        response = server.handle(request, context)
        assert response.is_redirect
        assert response.location.host == campaign.active_attack_domain(
            tiny_world.clock.now()
        )

    def test_unknown_push_path_404(self, tiny_world):
        from repro.attacks.categories import AttackCategory
        from repro.browser.useragent import CHROME_MACOS
        from repro.net.http import HttpRequest
        from repro.net.server import FetchContext
        from repro.urlkit.url import parse_url

        campaign = next(
            c for c in tiny_world.campaigns
            if c.category is AttackCategory.NOTIFICATIONS
        )
        server = tiny_world.campaign_servers[campaign.key]
        context = FetchContext(clock=tiny_world.clock, internet=tiny_world.internet)
        request = HttpRequest(
            url=parse_url(f"http://{campaign.push_domain}/other"),
            vantage=tiny_world.vantage_institution,
            user_agent=CHROME_MACOS.ua_string,
        )
        assert server.handle(request, context).status == 404

    def test_only_notification_campaigns_have_push_domains(self, tiny_world):
        from repro.attacks.categories import AttackCategory

        for campaign in tiny_world.campaigns:
            if campaign.category is AttackCategory.NOTIFICATIONS:
                assert campaign.push_domain is not None
            else:
                assert campaign.push_domain is None


class TestGrantNotificationsPolicy:
    def test_granted_flag_recorded(self, tiny_world):
        from repro.attacks.categories import AttackCategory
        from repro.browser.devtools import DevToolsClient
        from repro.browser.logging import NotificationPromptEntry
        from repro.browser.useragent import CHROME_MACOS

        campaign = next(
            c for c in tiny_world.campaigns
            if c.category is AttackCategory.NOTIFICATIONS
        )
        url = str(campaign.attack_url(tiny_world.clock.now()))
        for grant in (False, True):
            client = DevToolsClient(
                tiny_world.internet,
                CHROME_MACOS,
                tiny_world.vantages_residential[0],
                grant_notifications=grant,
            )
            client.navigate(url)
            prompts = client.log.entries_of(NotificationPromptEntry)
            assert prompts
            assert prompts[-1].granted is grant
            assert prompts[-1].push_endpoint == f"http://{campaign.push_domain}/feed"
