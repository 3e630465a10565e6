"""Tests for ad syndication (§3.5's exchange/reselling complication)."""

import pytest

from repro.adnet.serving import AdNetworkServer
from repro.adnet.spec import ALL_NETWORK_SPECS
from repro.browser.useragent import CHROME_MACOS
from repro.clock import SimClock
from repro.core.attribution import attribute_interactions
from repro.core.crawler import AdInteraction, ChainNode
from repro.core.seeds import InvariantPattern
from repro.net.http import HttpRequest
from repro.net.ipspace import IpClass, VantagePoint
from repro.net.network import Internet
from repro.net.server import FetchContext
from repro.urlkit.url import parse_url

VP = VantagePoint("t", "73.4.4.4", IpClass.RESIDENTIAL)


def benign_picker(rng, now):
    return parse_url("http://brand.com/landing")


def make_server(name):
    spec = next(spec for spec in ALL_NETWORK_SPECS if spec.key == name)
    return AdNetworkServer(spec, seed=7, benign_url_picker=benign_picker)


def context():
    clock = SimClock()
    return FetchContext(clock=clock, internet=Internet(clock))


def click(server, extra=""):
    url = server.click_url(server.code_domains[0], "pub.com") + extra
    return HttpRequest(url=parse_url(url), vantage=VP, user_agent=CHROME_MACOS.ua_string)


class TestSyndication:
    def test_resells_to_partner_endpoint(self):
        seller = make_server("popcash")
        buyer = make_server("adcash")
        seller.add_syndication_partner(buyer, prob=1.0)
        response = seller.handle(click(seller), context())
        assert response.is_redirect
        target = str(response.location)
        assert f"/{buyer.spec.invariant_token}/go" in target
        assert "syn=1" in target
        assert seller.syndicated_impressions == 1

    def test_resold_impression_not_resold_again(self):
        a = make_server("popcash")
        b = make_server("adcash")
        a.add_syndication_partner(b, prob=1.0)
        b.add_syndication_partner(a, prob=1.0)
        # A resold request carries syn=1; B must decide it itself.
        response = b.handle(click(b, extra="&syn=1"), context())
        assert response.is_redirect
        assert f"/{a.spec.invariant_token}/go" not in str(response.location)

    def test_zero_prob_never_syndicates(self):
        ctx = context()
        seller = make_server("popcash")
        buyer = make_server("adcash")
        seller.add_syndication_partner(buyer, prob=0.0)
        for _ in range(50):
            response = seller.handle(click(seller), ctx)
            assert f"/{buyer.spec.invariant_token}/go" not in str(response.location)

    def test_self_partnering_rejected(self):
        server = make_server("popcash")
        with pytest.raises(ValueError):
            server.add_syndication_partner(server, prob=0.5)

    def test_invalid_prob_rejected(self):
        seller = make_server("popcash")
        buyer = make_server("adcash")
        with pytest.raises(ValueError):
            seller.add_syndication_partner(buyer, prob=1.5)


class TestSyndicatedAttribution:
    def test_first_network_in_chain_wins(self):
        """A syndicated chain carries two networks' invariants; the ad
        attributes to the publisher-side network (first in the chain)."""
        popcash = InvariantPattern("popcash", "PopCash", "pcuid_var")
        adcash = InvariantPattern("adcash", "AdCash", "acash_zid")
        record = AdInteraction(
            publisher_domain="pub.com",
            publisher_url="http://pub.com/",
            ua_name="chrome66-macos",
            vantage_name="institution",
            landing_url="http://attack.club/lp",
            landing_host="attack.club",
            landing_e2ld="attack.club",
            screenshot_hash=0,
            timestamp=0.0,
            chain=(
                ChainNode(url="http://a.net/pcuid_var/go?pid=p", cause="window-open"),
                ChainNode(url="http://b.net/acash_zid/go?pid=p&syn=1", cause="http-redirect"),
                ChainNode(url="http://tds.info/go?cid=x", cause="http-redirect"),
                ChainNode(url="http://attack.club/lp", cause="http-redirect"),
            ),
            publisher_scripts=(),
            labels={},
        )
        # Pattern list order must NOT matter.
        for patterns in ([popcash, adcash], [adcash, popcash]):
            result = attribute_interactions([record], patterns)
            assert list(result.by_network) == ["popcash"]


class TestWorldSyndication:
    def test_ring_installed(self, tiny_world):
        resellers = [
            server for server in tiny_world.seed_networks if server.syndication_prob > 0
        ]
        assert len(resellers) == len(tiny_world.seed_networks)

    def test_syndicated_chains_reach_attacks_in_crawl(self, pipeline_run):
        """Some SE ads in a real crawl travel through two networks."""
        _, _, result = pipeline_run
        syndicated = [
            row
            for row, record in enumerate(result.crawl.interactions)
            if any("syn=1" in node.url for node in record.chain)
        ]
        assert syndicated
        # And they still attribute (to the publisher-side network).
        attribution = result.attribution
        assert any(attribution.keys[row] is not None for row in syndicated)

    def test_disabled_syndication(self):
        from repro import WorldConfig, build_world

        world = build_world(WorldConfig.tiny(seed=9))
        # tiny() keeps the default prob; build a no-syndication world too.
        from dataclasses import replace

        quiet = build_world(replace(WorldConfig.tiny(seed=9), syndication_prob=0.0))
        assert all(s.syndication_prob == 0.0 for s in quiet.seed_networks)
        assert any(s.syndication_prob > 0.0 for s in world.seed_networks)
