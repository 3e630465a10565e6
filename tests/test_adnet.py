"""Tests for ad-network specs, snippets and the serving endpoint."""

import random

import pytest

from repro.adnet.serving import AdNetworkServer, platform_of_ua
from repro.adnet.snippets import AdTactic, build_snippet, choose_tactic
from repro.adnet.spec import (
    ALL_NETWORK_SPECS,
    AdNetworkSpec,
    DISCOVERABLE_NETWORK_SPECS,
    SEED_NETWORK_SPECS,
)
from repro.browser.useragent import CHROME_ANDROID, CHROME_MACOS, IE_WINDOWS
from repro.clock import SimClock
from repro.net.http import HttpRequest
from repro.net.ipspace import IpClass, VantagePoint
from repro.net.network import Internet
from repro.net.server import FetchContext
from repro.urlkit.url import parse_url

RESIDENTIAL = VantagePoint("res", "73.1.1.1", IpClass.RESIDENTIAL)
DATACENTER = VantagePoint("dc", "52.1.1.1", IpClass.DATACENTER)


def benign_picker(rng, now):
    return parse_url("http://benign-brand.com/landing")


class FakeCampaign:
    def __init__(self, key="camp", platforms=frozenset({"macos", "windows", "mobile"})):
        self.key = key
        self.platforms = platforms

    def entry_url(self, now):
        return parse_url(f"http://tds-{self.key}.info/go?cid={self.key}")


def spec_named(name):
    return next(spec for spec in ALL_NETWORK_SPECS if name in (spec.name, spec.key))


def make_server(spec_name="popcash", **extra):
    spec = spec_named(spec_name)
    return AdNetworkServer(spec, seed=7, benign_url_picker=benign_picker, **extra)


def context():
    clock = SimClock()
    return FetchContext(clock=clock, internet=Internet(clock))


def click_request(server, vantage=RESIDENTIAL, ua=CHROME_MACOS.ua_string):
    url = server.click_url(server.code_domains[0], "pub1.com")
    return HttpRequest(url=parse_url(url), vantage=vantage, user_agent=ua)


class TestSpecs:
    def test_eleven_seed_networks(self):
        assert len(SEED_NETWORK_SPECS) == 11

    def test_three_discoverable_networks(self):
        assert {spec.name for spec in DISCOVERABLE_NETWORK_SPECS} == {
            "Ero Advertising",
            "Yllix",
            "Ad-Center",
        }

    def test_table3_se_rates(self):
        assert spec_named("PopCash").se_rate == pytest.approx(0.6427)
        assert spec_named("Clicksor").se_rate == pytest.approx(0.0435)

    def test_table3_code_domain_counts(self):
        assert spec_named("RevenueHits").code_domain_count == 517
        assert spec_named("AdSterra").code_domain_count == 578
        assert spec_named("PopMyAds").code_domain_count == 1

    def test_cloaking_networks(self):
        cloakers = {spec.name for spec in SEED_NETWORK_SPECS if spec.cloaks_nonresidential}
        assert cloakers == {"Propeller", "Clickadu"}

    def test_only_clicksor_abp_blocked(self):
        blocked = {spec.name for spec in ALL_NETWORK_SPECS if spec.abp_blocked}
        assert blocked == {"Clicksor"}

    def test_invariant_tokens_unique(self):
        tokens = [spec.invariant_token for spec in ALL_NETWORK_SPECS]
        assert len(set(tokens)) == len(tokens)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            AdNetworkSpec(
                name="Bad", key="bad", code_domain_count=1, se_rate=1.5,
                volume_weight=1, invariant_token="t",
            )


class TestSnippets:
    def test_snippet_embeds_invariant(self):
        spec = spec_named("popcash")
        snippet = build_snippet(
            spec, "serve.net", "http://serve.net/pcuid_var/go?pid=p", AdTactic.DOCUMENT_CLICK,
            random.Random(0),
        )
        assert spec.invariant_token in snippet.source_text
        assert snippet.url.endswith(f"{spec.invariant_token}.js")

    def test_all_tactics_build(self):
        spec = spec_named("adsterra")
        for tactic in AdTactic:
            snippet = build_snippet(
                spec, "d.net", "http://d.net/atag_srv/go", tactic, random.Random(0)
            )
            assert snippet.ops

    def test_webdriver_check_wrapping(self):
        from repro.js.api import CheckWebdriver

        guarded = build_snippet(
            spec_named("propeller"), "d.net", "http://d.net/propel_zn/go",
            AdTactic.DOCUMENT_CLICK, random.Random(0),
        )
        assert isinstance(guarded.ops[0], CheckWebdriver)
        unguarded = build_snippet(
            spec_named("popcash"), "d.net", "http://d.net/pcuid_var/go",
            AdTactic.DOCUMENT_CLICK, random.Random(0),
        )
        assert not isinstance(unguarded.ops[0], CheckWebdriver)

    def test_choose_tactic_distribution(self):
        rng = random.Random(0)
        tactics = [choose_tactic(rng) for _ in range(400)]
        assert set(tactics) == set(AdTactic)


class TestPlatformOfUa:
    def test_android_is_mobile(self):
        assert platform_of_ua(CHROME_ANDROID.ua_string) == "mobile"

    def test_macos(self):
        assert platform_of_ua(CHROME_MACOS.ua_string) == "macos"

    def test_windows(self):
        assert platform_of_ua(IE_WINDOWS.ua_string) == "windows"


class TestServing:
    def test_code_domain_cap(self):
        server = make_server("revenuehits", max_code_domains=20)
        assert len(server.code_domains) == 20

    def test_click_url_embeds_invariant(self):
        server = make_server("popcash")
        url = server.click_url(server.code_domains[0], "pub1.com")
        assert "/pcuid_var/go" in url
        assert "pid=pub1.com" in url

    def test_click_url_rejects_foreign_domain(self):
        server = make_server("popcash")
        with pytest.raises(ValueError):
            server.click_url("not-ours.com", "pub1.com")

    def test_click_redirects_somewhere(self):
        server = make_server("popcash")
        server.add_campaign(FakeCampaign())
        response = server.handle(click_request(server), context())
        assert response.is_redirect

    def test_se_rate_respected(self):
        ctx = context()
        server = make_server("popcash")  # 64.27% SE
        server.add_campaign(FakeCampaign())
        se = 0
        for _ in range(600):
            response = server.handle(click_request(server), ctx)
            if "tds-camp.info" in str(response.location):
                se += 1
        assert 0.55 < se / 600 < 0.75

    def test_cloaking_network_serves_benign_to_datacenter(self):
        ctx = context()
        server = make_server("propeller")
        server.add_campaign(FakeCampaign())
        for _ in range(100):
            response = server.handle(click_request(server, vantage=DATACENTER), ctx)
            assert "benign-brand.com" in str(response.location)

    def test_cloaking_network_serves_se_to_residential(self):
        ctx = context()
        server = make_server("propeller")
        server.add_campaign(FakeCampaign())
        seen_se = any(
            "tds-camp.info" in str(server.handle(click_request(server), ctx).location)
            for _ in range(200)
        )
        assert seen_se

    def test_platform_targeting(self):
        ctx = context()
        server = make_server("popcash")
        server.add_campaign(FakeCampaign("mob", platforms=frozenset({"mobile"})))
        # Desktop UA never reaches the mobile-only campaign.
        for _ in range(100):
            response = server.handle(
                click_request(server, ua=CHROME_MACOS.ua_string), ctx
            )
            assert "tds-mob.info" not in str(response.location)
        # Mobile UA does.
        seen = any(
            "tds-mob.info"
            in str(server.handle(click_request(server, ua=CHROME_ANDROID.ua_string), ctx).location)
            for _ in range(200)
        )
        assert seen

    def test_campaign_added_after_serving_becomes_eligible(self):
        # The per-platform eligible lists are rebuilt when inventory grows.
        ctx = context()
        server = make_server("popcash")
        for _ in range(20):
            response = server.handle(click_request(server), ctx)
            assert "benign-brand.com" in str(response.location)
        server.add_campaign(FakeCampaign("late"))
        seen = any(
            "tds-late.info" in str(server.handle(click_request(server), ctx).location)
            for _ in range(100)
        )
        assert seen

    def test_no_inventory_serves_benign(self):
        ctx = context()
        server = make_server("popcash")
        for _ in range(50):
            response = server.handle(click_request(server), ctx)
            assert "benign-brand.com" in str(response.location)

    def test_invalid_campaign_weight_rejected(self):
        server = make_server("popcash")
        with pytest.raises(ValueError):
            server.add_campaign(FakeCampaign(), weight=0)

    def test_unknown_path_404(self):
        server = make_server("popcash")
        request = HttpRequest(
            url=parse_url(f"http://{server.code_domains[0]}/nonsense"),
            vantage=RESIDENTIAL,
            user_agent="UA",
        )
        assert server.handle(request, context()).status == 404

    def test_js_path_served(self):
        server = make_server("popcash")
        request = HttpRequest(
            url=parse_url(f"http://{server.code_domains[0]}/pcuid_var.js"),
            vantage=RESIDENTIAL,
            user_agent="UA",
        )
        response = server.handle(request, context())
        assert response.ok
        assert response.content_type == "application/javascript"

    def test_impression_counters(self):
        ctx = context()
        server = make_server("popcash")
        server.add_campaign(FakeCampaign())
        for _ in range(50):
            server.handle(click_request(server), ctx)
        assert server.impressions == 50
        assert 0 < server.se_impressions <= 50
