"""Tests for iframe sub-documents and banner-iframe ads."""

import pytest

from repro.browser.browser import Browser
from repro.browser.logging import FrameLoadEntry
from repro.browser.useragent import CHROME_MACOS
from repro.clock import SimClock
from repro.dom.nodes import div, iframe, img
from repro.dom.page import PageContent, VisualSpec
from repro.js.api import AddListener, InjectIframe, OpenTab, Script, handler
from repro.net.http import html_response
from repro.net.ipspace import IpClass, VantagePoint
from repro.net.network import Internet
from repro.net.server import FunctionServer

VP = VantagePoint("t", "73.7.7.7", IpClass.RESIDENTIAL)


def banner_page(click_url):
    root = div(width=300, height=250)
    root.append(img("creative.jpg", 300, 250))
    return PageContent(
        title="banner",
        document=root,
        scripts=[
            Script(
                ops=(AddListener("document", "click", handler(OpenTab(click_url))),),
                url="http://serve.adnet.com/render.js",
            )
        ],
        visual=VisualSpec("t/banner"),
    )


def landing_page():
    return PageContent(title="landing", document=div(width=800, height=600), visual=VisualSpec("t/land"))


@pytest.fixture()
def net():
    net = Internet(SimClock())
    net.register(
        "banner.adnet.com",
        FunctionServer(lambda r, c: html_response(banner_page("http://land.club/x"))),
    )
    net.register("land.club", FunctionServer(lambda r, c: html_response(landing_page())))
    return net


def make_browser(net):
    return Browser(net, CHROME_MACOS, VP)


class TestStaticIframes:
    def serve_host_page(self, net):
        root = div(width=1280, height=800)
        root.append(iframe("http://banner.adnet.com/ad", 300, 250))
        page = PageContent(title="host", document=root, visual=VisualSpec("t/host"))
        net.register("host.com", FunctionServer(lambda r, c: html_response(page)))

    def test_iframe_document_loaded(self, net):
        self.serve_host_page(net)
        browser = make_browser(net)
        tab = browser.visit("http://host.com/")
        frame = tab.load.find_all("iframe")[0]
        assert tab.load.frames[frame].page.title == "banner"

    def test_frame_load_logged(self, net):
        self.serve_host_page(net)
        browser = make_browser(net)
        browser.visit("http://host.com/")
        frames = browser.log.entries_of(FrameLoadEntry)
        assert [entry.frame_url for entry in frames] == ["http://banner.adnet.com/ad"]

    def test_click_on_banner_opens_ad(self, net):
        self.serve_host_page(net)
        browser = make_browser(net)
        tab = browser.visit("http://host.com/")
        frame = tab.load.find_all("iframe")[0]
        outcome = browser.click(tab, frame)
        assert outcome.triggered_ad
        assert outcome.new_tabs[0].current_url.host == "land.club"

    def test_relative_src_iframe_not_fetched(self, net):
        root = div(width=1280, height=800)
        root.append(iframe("embed.html", 300, 250))
        page = PageContent(title="host", document=root, visual=VisualSpec("t/host2"))
        net.register("host2.com", FunctionServer(lambda r, c: html_response(page)))
        browser = make_browser(net)
        tab = browser.visit("http://host2.com/")
        assert tab.load.frames == {}

    def test_dead_frame_src_tolerated(self, net):
        root = div(width=1280, height=800)
        root.append(iframe("http://gone.example.zzz/x", 300, 250))
        page = PageContent(title="host", document=root, visual=VisualSpec("t/host3"))
        net.register("host3.com", FunctionServer(lambda r, c: html_response(page)))
        browser = make_browser(net)
        tab = browser.visit("http://host3.com/")
        assert tab.loaded
        assert tab.load.frames == {}


class TestInjectedIframes:
    def test_script_injected_banner_loads_and_clicks(self, net):
        script = Script(
            ops=(InjectIframe(src="http://banner.adnet.com/ad"),),
            url="http://code.adnet.com/tag.js",
        )
        root = div(width=1280, height=800)
        root.append(img("content.jpg", 600, 400))
        page = PageContent(title="pub", document=root, scripts=[script], visual=VisualSpec("t/pub"))
        net.register("pub.com", FunctionServer(lambda r, c: html_response(page)))
        browser = make_browser(net)
        tab = browser.visit("http://pub.com/")
        frames = tab.load.find_all("iframe")
        assert len(frames) == 1
        assert frames == tab.load.injected
        assert frames[0] in tab.load.frames
        outcome = browser.click(tab, frames[0])
        assert outcome.triggered_ad

    def test_served_page_not_mutated_by_injection(self, net):
        script = Script(
            ops=(InjectIframe(src="http://banner.adnet.com/ad"),),
            url="http://code.adnet.com/tag.js",
        )
        root = div(width=1280, height=800)
        page = PageContent(title="pub", document=root, scripts=[script], visual=VisualSpec("t/pub2"))
        net.register("pub2.com", FunctionServer(lambda r, c: html_response(page)))
        browser = make_browser(net)
        browser.visit("http://pub2.com/")
        browser.visit("http://pub2.com/")
        assert all(node.tag != "iframe" for node in page.document.walk())


class TestBannerTacticEndToEnd:
    def test_adnet_banner_endpoint(self, tiny_world):
        from repro.adnet.serving import AdNetworkServer
        from repro.net.http import HttpRequest
        from repro.net.server import FetchContext
        from repro.urlkit.url import parse_url

        server = tiny_world.networks["adsterra"]
        domain = server.code_domains[0]
        request = HttpRequest(
            url=parse_url(f"http://{domain}/{server.spec.invariant_token}/banner?pid=pub.com"),
            vantage=VP,
            user_agent=CHROME_MACOS.ua_string,
        )
        context = FetchContext(clock=tiny_world.clock, internet=tiny_world.internet)
        response = server.handle(request, context)
        assert response.ok
        assert response.body.labels["kind"] == "ad-banner"
        # Banner carries a click handler pointing at the /go endpoint.
        ops = response.body.scripts[0].ops
        assert any("go" in str(getattr(op, "handler", "")) for op in ops)

    def test_banner_ads_appear_in_crawl(self, pipeline_run):
        """Some crawl interactions arrive via banner iframes."""
        _, _, result = pipeline_run
        banner_chains = [
            record
            for record in result.crawl.interactions
            for node in record.chain
            if node.source_url and node.source_url.endswith("/render.js")
        ]
        assert banner_chains
