"""Structural tests for benign page families (detector ground truth)."""

import pytest

from repro.browser.useragent import CHROME_MACOS
from repro.clock import SimClock
from repro.ecosystem.benign import BenignKind, BenignWeb
from repro.net.http import HttpRequest
from repro.net.ipspace import IpClass, VantagePoint
from repro.net.network import Internet
from repro.net.server import FetchContext
from repro.urlkit.url import parse_url

VP = VantagePoint("t", "73.6.6.6", IpClass.RESIDENTIAL)


@pytest.fixture(scope="module")
def benign():
    return BenignWeb(seed=3, n_advertisers=10, n_parking_providers=2, n_stock_sets=2)


def fetch_page(benign, host):
    clock = SimClock()
    context = FetchContext(clock=clock, internet=Internet(clock))
    request = HttpRequest(
        url=parse_url(f"http://{host}/"), vantage=VP, user_agent=CHROME_MACOS.ua_string
    )
    response = benign.handle(request, context)
    assert response.ok
    return response.body


def hosts_of_kind(benign, kind):
    return [host for host in benign.all_hosts() if benign.kind_of_host(host) is kind]


class TestPageStructures:
    def test_parked_pages_are_scriptless_link_farms(self, benign):
        host = hosts_of_kind(benign, BenignKind.PARKED)[0]
        page = fetch_page(benign, host)
        anchors = page.find_all("a")
        assert len(anchors) >= 3
        assert all("parkingzone" in a.attrs["href"] for a in anchors)
        assert page.scripts == []
        assert "for sale" in page.title

    def test_advertiser_pages_have_analytics_and_imagery(self, benign):
        host = hosts_of_kind(benign, BenignKind.ADVERTISER)[0]
        page = fetch_page(benign, host)
        assert len(page.find_all("img")) >= 2
        assert page.scripts, "legitimate advertisers run analytics"
        assert page.find_all("a") == []

    def test_stock_pages_are_image_galleries(self, benign):
        host = hosts_of_kind(benign, BenignKind.STOCK_ADULT)[0]
        page = fetch_page(benign, host)
        assert len(page.find_all("img")) >= 3
        assert page.scripts == []

    def test_shortener_pages_have_countdown_and_skip_link(self, benign):
        host = hosts_of_kind(benign, BenignKind.SHORTENER)[0]
        page = fetch_page(benign, host)
        assert "skip ad" in page.title
        assert page.find_all("a")
        assert any("countdown" in script.source_text for script in page.scripts)

    def test_unknown_host_404(self, benign):
        clock = SimClock()
        context = FetchContext(clock=clock, internet=Internet(clock))
        request = HttpRequest(
            url=parse_url("http://not-benign.example/"), vantage=VP, user_agent="UA"
        )
        assert benign.handle(request, context).status == 404

    def test_pages_cached_per_host(self, benign):
        host = hosts_of_kind(benign, BenignKind.PARKED)[0]
        assert fetch_page(benign, host) is fetch_page(benign, host)


class TestGsbWatchPrecision:
    def test_observed_listing_times_track_truth(self, pipeline_run):
        """The 30-minute GSB watch rounds must observe listings promptly:
        observed time >= true listing time, within one lookup interval
        (for listings inside the watch window)."""
        world, _, result = pipeline_run
        report = result.milking
        for record in report.domains:
            if record.observed_listed_at is None:
                continue
            true_listed = world.gsb.listed_time(record.domain)
            assert true_listed is not None
            assert record.observed_listed_at >= true_listed
            # Listings observed during the active watch window are seen
            # within one 30-minute round of the listing — or of the
            # domain entering the watchlist, for pre-listed domains.
            watchable_from = max(true_listed, record.discovered_at)
            if record.observed_listed_at <= report.finished_at + 12 * 86400.0:
                assert record.observed_listed_at - watchable_from <= 1800.0 + 1e-6
