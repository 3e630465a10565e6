"""Tests for automation drivers and anti-bot visibility (§3.2)."""

from repro.browser.devtools import DevToolsClient, SeleniumLikeDriver
from repro.browser.useragent import (
    CHROME_ANDROID,
    CHROME_MACOS,
    PROFILES,
    profile_by_name,
)
from repro.clock import SimClock
from repro.dom.nodes import div, img
from repro.dom.page import PageContent, VisualSpec
from repro.js.api import AddListener, CheckWebdriver, OpenTab, Script, handler
from repro.net.http import html_response
from repro.net.ipspace import IpClass, VantagePoint
from repro.net.network import Internet
from repro.net.server import FunctionServer

import pytest

VP = VantagePoint("test", "73.8.8.8", IpClass.RESIDENTIAL)


def antibot_page():
    """A page whose ad only arms when navigator.webdriver is hidden."""
    script = Script(
        ops=(
            CheckWebdriver(
                if_clean=(
                    AddListener("document", "click", handler(OpenTab("http://land.club/x")), once=True),
                ),
                if_automated=(),
            ),
        ),
        url="http://code.net/t.js",
    )
    root = div(width=1280, height=800)
    root.append(img("a.jpg", 500, 300))
    return PageContent(title="pub", document=root, scripts=[script], visual=VisualSpec("t/pub"))


def landing_page():
    return PageContent(title="land", document=div(width=800, height=600), visual=VisualSpec("t/land"))


@pytest.fixture()
def net():
    net = Internet(SimClock())
    net.register("pub.com", FunctionServer(lambda r, c: html_response(antibot_page())))
    net.register("land.club", FunctionServer(lambda r, c: html_response(landing_page())))
    return net


class TestStealth:
    def test_stealth_devtools_gets_the_ad(self, net):
        client = DevToolsClient(net, CHROME_MACOS, VP, stealth=True)
        tab = client.navigate("http://pub.com/")
        outcome = client.click(tab, tab.load.find_all("img")[0])
        assert outcome.triggered_ad

    def test_stock_devtools_detected(self, net):
        client = DevToolsClient(net, CHROME_MACOS, VP, stealth=False)
        tab = client.navigate("http://pub.com/")
        outcome = client.click(tab, tab.load.find_all("img")[0])
        assert not outcome.triggered_ad

    def test_selenium_like_driver_detected(self, net):
        client = SeleniumLikeDriver(net, CHROME_MACOS, VP)
        tab = client.navigate("http://pub.com/")
        outcome = client.click(tab, tab.load.find_all("img")[0])
        assert not outcome.triggered_ad

    def test_screenshot_passthrough(self, net):
        client = DevToolsClient(net, CHROME_MACOS, VP)
        tab = client.navigate("http://pub.com/")
        assert client.screenshot(tab).image.shape == (72, 128)


class TestUserAgentProfiles:
    def test_four_paper_profiles(self):
        assert len(PROFILES) == 4
        names = {profile.name for profile in PROFILES}
        assert names == {
            "chrome66-macos",
            "chrome65-android",
            "ie10-windows",
            "edge12-windows",
        }

    def test_mobile_emulation_has_phone_screen(self):
        assert CHROME_ANDROID.mobile
        assert CHROME_ANDROID.screen_width < 500

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            profile_by_name("netscape4")
