"""Focused browser behaviours: history, popunders, beacons, referrers."""

import pytest

from repro.browser.browser import Browser
from repro.browser.logging import BeaconEntry, TabOpenEntry
from repro.browser.useragent import CHROME_MACOS
from repro.clock import SimClock
from repro.dom.nodes import div, img
from repro.dom.page import PageContent, VisualSpec
from repro.js.api import AddListener, Beacon, OpenTab, Script, handler
from repro.net.http import ReferrerPolicy, html_response
from repro.net.ipspace import IpClass, VantagePoint
from repro.net.network import Internet
from repro.net.server import FunctionServer

VP = VantagePoint("t", "73.5.5.5", IpClass.RESIDENTIAL)


@pytest.fixture()
def net():
    return Internet(SimClock())


def make_browser(net):
    return Browser(net, CHROME_MACOS, VP)


def page(title="p", scripts=(), referrer_policy=ReferrerPolicy.DEFAULT):
    root = div(width=1280, height=800)
    root.append(img("x.jpg", 400, 300))
    return PageContent(
        title=title,
        document=root,
        scripts=list(scripts),
        visual=VisualSpec(f"d/{title}"),
        referrer_policy=referrer_policy,
    )


class TestHistory:
    def test_tab_history_accumulates(self, net):
        net.register("a.com", FunctionServer(lambda r, c: html_response(page("a"))))
        net.register("b.com", FunctionServer(lambda r, c: html_response(page("b"))))
        browser = make_browser(net)
        tab = browser.visit("http://a.com/")
        browser.visit("http://b.com/", tab=tab)
        assert [url.host for url in tab.history] == ["a.com", "b.com"]

    def test_load_epoch_increments(self, net):
        net.register("a.com", FunctionServer(lambda r, c: html_response(page("a"))))
        browser = make_browser(net)
        tab = browser.visit("http://a.com/")
        first = tab.load_epoch
        browser.visit("http://a.com/", tab=tab)
        assert tab.load_epoch == first + 1


class TestPopunder:
    def test_popunder_flag_logged(self, net):
        script = Script(
            ops=(AddListener("document", "click",
                             handler(OpenTab("http://land.com/", popunder=True)), once=True),),
            url="http://code.net/t.js",
        )
        net.register("pub.com", FunctionServer(lambda r, c: html_response(page("pub", [script]))))
        net.register("land.com", FunctionServer(lambda r, c: html_response(page("land"))))
        browser = make_browser(net)
        tab = browser.visit("http://pub.com/")
        browser.click(tab, tab.load.find_all("img")[0])
        opens = browser.log.entries_of(TabOpenEntry)
        assert len(opens) == 1
        assert opens[0].popunder


class TestBeacons:
    def test_beacon_logged_and_fetched(self, net):
        hits = []
        net.register(
            "stats.net",
            FunctionServer(lambda r, c: (hits.append(str(r.url)), html_response(None))[1]),
        )
        script = Script(ops=(Beacon("http://stats.net/px?id=1"),), url="http://code.net/a.js")
        net.register("a.com", FunctionServer(lambda r, c: html_response(page("a", [script]))))
        browser = make_browser(net)
        browser.visit("http://a.com/")
        assert hits == ["http://stats.net/px?id=1"]
        beacons = browser.log.entries_of(BeaconEntry)
        assert len(beacons) == 1
        assert beacons[0].source_url == "http://code.net/a.js"

    def test_dead_beacon_host_tolerated(self, net):
        script = Script(ops=(Beacon("http://nowhere.zzz/px"),), url=None)
        net.register("a.com", FunctionServer(lambda r, c: html_response(page("a", [script]))))
        browser = make_browser(net)
        tab = browser.visit("http://a.com/")
        assert tab.loaded  # beacon failure never breaks the page


class TestReferrerFlow:
    def test_popup_carries_referrer(self, net):
        seen = {}

        def capture(request, context):
            seen["referrer"] = str(request.referrer) if request.referrer else None
            return html_response(page("land"))

        script = Script(
            ops=(AddListener("document", "click", handler(OpenTab("http://land.com/")), once=True),),
            url="http://code.net/t.js",
        )
        net.register("pub.com", FunctionServer(lambda r, c: html_response(page("pub", [script]))))
        net.register("land.com", FunctionServer(capture))
        browser = make_browser(net)
        tab = browser.visit("http://pub.com/")
        browser.click(tab, tab.load.find_all("img")[0])
        assert seen["referrer"] == "http://pub.com/"

    def test_no_referrer_policy_suppresses(self, net):
        """Attack pages set no-referrer, so onward navigations hide their
        origin (§3.4's referrer-suppression observation)."""
        seen = {}

        def capture(request, context):
            seen["referrer"] = request.referrer
            return html_response(page("next"))

        from repro.js.api import Navigate

        script = Script(
            ops=(AddListener("document", "click", handler(Navigate("http://next.com/"))),),
            url=None,
        )
        stealthy = page("attack", [script], referrer_policy=ReferrerPolicy.NO_REFERRER)
        net.register("attack.club", FunctionServer(lambda r, c: html_response(stealthy)))
        net.register("next.com", FunctionServer(capture))
        browser = make_browser(net)
        tab = browser.visit("http://attack.club/")
        browser.click(tab, tab.load.find_all("img")[0])
        assert seen["referrer"] is None


class TestScreenshotDeterminism:
    def test_same_page_same_screenshot_across_browsers(self, net):
        import numpy as np

        net.register("a.com", FunctionServer(lambda r, c: html_response(page("shot"))))
        shots = []
        for _ in range(2):
            browser = make_browser(net)
            tab = browser.visit("http://a.com/")
            shots.append(browser.screenshot(tab).image)
        assert np.array_equal(shots[0], shots[1])
