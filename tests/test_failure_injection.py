"""Failure-injection tests: the crawler against hostile/broken servers.

The measurement pipeline must never crash on the open web's garbage:
500s, malformed redirect targets, redirect loops, servers that return
downloads where pages are expected, and pages whose scripts navigate
forever.
"""

import pytest

from repro.browser.browser import Browser
from repro.browser.useragent import CHROME_MACOS
from repro.clock import SimClock
from repro.core.crawler import crawl_session
from repro.dom.nodes import div, img
from repro.dom.page import PageContent, VisualSpec
from repro.js.api import AddListener, Navigate, OpenTab, Script, handler
from repro.net.http import (
    HttpResponse,
    download_response,
    html_response,
    redirect,
    server_error,
)
from repro.net.ipspace import IpClass, VantagePoint
from repro.net.network import Internet
from repro.net.server import FunctionServer

VP = VantagePoint("t", "73.3.3.3", IpClass.RESIDENTIAL)


@pytest.fixture()
def net():
    return Internet(SimClock())


def make_browser(net):
    return Browser(net, CHROME_MACOS, VP)


def simple_page(title="page", with_script=None):
    root = div(width=1280, height=800)
    root.append(img("x.jpg", 500, 300))
    scripts = [with_script] if with_script else []
    return PageContent(title=title, document=root, scripts=scripts, visual=VisualSpec(f"f/{title}"))


class TestServerFailures:
    def test_500_yields_dead_tab(self, net):
        net.register("broken.com", FunctionServer(lambda r, c: server_error()))
        tab = make_browser(net).visit("http://broken.com/")
        assert not tab.loaded

    def test_malformed_location_header(self, net):
        net.register(
            "badredir.com",
            FunctionServer(lambda r, c: HttpResponse(status=302, headers={"Location": ":::garbage:::"})),
        )
        browser = make_browser(net)
        tab = browser.visit("http://badredir.com/")
        assert not tab.loaded  # surfaced as an error, not a crash

    def test_redirect_loop_is_contained_in_crawl(self, net):
        net.register("loopa.com", FunctionServer(lambda r, c: redirect("http://loopb.com/")))
        net.register("loopb.com", FunctionServer(lambda r, c: redirect("http://loopa.com/")))
        ad = Script(
            ops=(AddListener("document", "click", handler(OpenTab("http://loopa.com/")), once=True),),
            url="http://code.net/t.js",
        )
        net.register("pub.com", FunctionServer(lambda r, c: html_response(simple_page(with_script=ad))))
        # The session must complete despite the looping ad target.
        interactions = crawl_session(net, "http://pub.com/", CHROME_MACOS, VP)
        assert isinstance(interactions, list)

    def test_download_instead_of_page(self, net):
        class FakePayload:
            filename = "odd.bin"
            sha256 = "1" * 64

        net.register(
            "weird.com",
            FunctionServer(lambda r, c: download_response(FakePayload(), "odd.bin")),
        )
        browser = make_browser(net)
        tab = browser.visit("http://weird.com/")
        # A top-level download never replaces the page.
        assert not tab.loaded
        assert browser.log.downloads()

    def test_non_page_body(self, net):
        net.register("junk.com", FunctionServer(lambda r, c: html_response("just a string")))
        tab = make_browser(net).visit("http://junk.com/")
        assert not tab.loaded


class TestHostileScripts:
    def test_infinite_js_redirect_chain_capped(self, net):
        """a -> b -> a -> ... via location.assign must stop at the hop cap."""
        def page_for(host, target):
            script = Script(ops=(Navigate(f"http://{target}/"),), url=None)
            return simple_page(title=host, with_script=script)

        net.register("jsa.com", FunctionServer(lambda r, c: html_response(page_for("jsa.com", "jsb.com"))))
        net.register("jsb.com", FunctionServer(lambda r, c: html_response(page_for("jsb.com", "jsa.com"))))
        browser = make_browser(net)
        tab = browser.visit("http://jsa.com/")
        assert tab.loaded  # settled somewhere instead of recursing forever

    def test_open_tab_with_malformed_url_ignored(self, net):
        script = Script(
            ops=(AddListener("document", "click", handler(OpenTab("not a url")), once=True),),
            url="http://code.net/t.js",
        )
        net.register("pub.com", FunctionServer(lambda r, c: html_response(simple_page(with_script=script))))
        browser = make_browser(net)
        tab = browser.visit("http://pub.com/")
        outcome = browser.click(tab, tab.load.find_all("img")[0])
        assert not outcome.triggered_ad  # ignored, no crash

    def test_popup_storm_bounded_per_click(self, net):
        """Many stacked networks still yield one popup per gesture."""
        scripts = [
            Script(
                ops=(AddListener("document", "click", handler(OpenTab(f"http://land{i}.com/")), once=True),),
                url=f"http://c{i}.net/t.js",
            )
            for i in range(8)
        ]
        page = simple_page()
        page.scripts = scripts
        net.register("greedy.com", FunctionServer(lambda r, c: html_response(page)))
        for i in range(8):
            net.register(f"land{i}.com", FunctionServer(lambda r, c: html_response(simple_page(title="l"))))
        browser = make_browser(net)
        tab = browser.visit("http://greedy.com/")
        outcome = browser.click(tab, tab.load.find_all("img")[0])
        assert len(outcome.new_tabs) == 1


class TestCrawlerResilience:
    def test_session_on_flaky_publisher(self, net):
        """A publisher that 500s on every other request."""
        counter = {"n": 0}

        def flaky(request, context):
            counter["n"] += 1
            if counter["n"] % 2 == 0:
                return server_error()
            return html_response(simple_page())

        net.register("flaky.com", FunctionServer(flaky))
        interactions = crawl_session(net, "http://flaky.com/", CHROME_MACOS, VP)
        assert isinstance(interactions, list)

    def test_session_on_empty_page(self, net):
        empty = PageContent(title="empty", document=div(width=1280, height=800), visual=VisualSpec("f/empty"))
        net.register("empty.com", FunctionServer(lambda r, c: html_response(empty)))
        assert crawl_session(net, "http://empty.com/", CHROME_MACOS, VP) == []
