"""Tests for the instrumented browser: loads, clicks, popups, logging."""

import pytest

from repro.browser.browser import Browser
from repro.browser.logging import (
    DialogEntry,
    DnsFailureEntry,
    DownloadEntry,
    NavigationEntry,
    NotificationPromptEntry,
    ScriptFetchEntry,
    TabOpenEntry,
)
from repro.browser.useragent import CHROME_MACOS
from repro.clock import SimClock
from repro.dom.nodes import div, img
from repro.dom.page import PageContent, VisualSpec
from repro.errors import BrowserError
from repro.js.api import (
    AddListener,
    Alert,
    InjectOverlay,
    Navigate,
    OnBeforeUnload,
    OpenTab,
    RequestNotificationPermission,
    Script,
    SetTimeout,
    TriggerDownload,
    handler,
)
from repro.net.http import RedirectKind, download_response, html_response, redirect
from repro.net.ipspace import IpClass, VantagePoint
from repro.net.network import Internet
from repro.net.server import FunctionServer

VP = VantagePoint("test", "73.9.9.9", IpClass.RESIDENTIAL)


def make_page(scripts=(), with_img=True, meta_refresh=None, title="page"):
    root = div(width=1280, height=800)
    if with_img:
        root.append(img("big.jpg", 600, 400))
    return PageContent(
        title=title,
        document=root,
        scripts=list(scripts),
        visual=VisualSpec(template_key=f"test/{title}"),
        meta_refresh=meta_refresh,
    )


@pytest.fixture()
def net():
    return Internet(SimClock())


def make_browser(net, **kwargs):
    return Browser(net, CHROME_MACOS, VP, **kwargs)


def serve(net, host, page):
    net.register(host, FunctionServer(lambda r, c: html_response(page)))


class TestLoading:
    def test_visit_loads_page(self, net):
        serve(net, "a.com", make_page())
        browser = make_browser(net)
        tab = browser.visit("http://a.com/")
        assert tab.loaded
        assert str(tab.current_url) == "http://a.com/"

    def test_http_redirects_followed_and_logged(self, net):
        net.register("a.com", FunctionServer(lambda r, c: redirect("http://b.com/x")))
        serve(net, "b.com", make_page())
        browser = make_browser(net)
        tab = browser.visit("http://a.com/")
        assert str(tab.current_url) == "http://b.com/x"
        causes = [entry.cause for entry in browser.log.navigations(tab.tab_id)]
        assert causes == ["initial", "http-redirect"]

    def test_dns_failure_leaves_dead_tab(self, net):
        browser = make_browser(net)
        tab = browser.visit("http://ghost.club/")
        assert not tab.loaded
        assert browser.log.entries_of(DnsFailureEntry)

    def test_meta_refresh_followed(self, net):
        serve(net, "b.com", make_page(title="target"))
        serve(net, "a.com", make_page(meta_refresh=(1.0, "http://b.com/")))
        browser = make_browser(net)
        tab = browser.visit("http://a.com/")
        assert tab.current_url.host == "b.com"
        causes = [entry.cause for entry in browser.log.navigations(tab.tab_id)]
        assert "meta-refresh" in causes

    def test_slow_meta_refresh_ignored(self, net):
        serve(net, "a.com", make_page(meta_refresh=(300.0, "http://b.com/")))
        browser = make_browser(net)
        tab = browser.visit("http://a.com/")
        assert tab.current_url.host == "a.com"

    def test_script_fetch_logged(self, net):
        script = Script(ops=(), url="http://cdn.adnet.com/lib.js")
        serve(net, "a.com", make_page(scripts=[script]))
        browser = make_browser(net)
        browser.visit("http://a.com/")
        fetches = browser.log.entries_of(ScriptFetchEntry)
        assert [entry.script_url for entry in fetches] == ["http://cdn.adnet.com/lib.js"]

    def test_js_navigation_during_load(self, net):
        script = Script(ops=(Navigate("http://b.com/"),), url="http://s.com/a.js")
        serve(net, "a.com", make_page(scripts=[script]))
        serve(net, "b.com", make_page(title="target"))
        browser = make_browser(net)
        tab = browser.visit("http://a.com/")
        assert tab.current_url.host == "b.com"

    def test_push_state_changes_url_without_load(self, net):
        script = Script(
            ops=(Navigate("/fake-path", RedirectKind.JS_PUSH_STATE),),
            url="http://s.com/a.js",
        )
        page = make_page(scripts=[script], title="original")
        serve(net, "a.com", page)
        browser = make_browser(net)
        tab = browser.visit("http://a.com/")
        assert tab.current_url.path == "/fake-path"
        assert tab.page is not None
        assert tab.page.title == "original"

    def test_timer_runs_during_settle(self, net):
        script = Script(
            ops=(SetTimeout(1000.0, handler(Navigate("http://b.com/"))),),
            url="http://s.com/a.js",
        )
        serve(net, "a.com", make_page(scripts=[script]))
        serve(net, "b.com", make_page(title="late"))
        browser = make_browser(net)
        tab = browser.visit("http://a.com/")
        assert tab.current_url.host == "b.com"

    def test_timer_beyond_settle_budget_skipped(self, net):
        script = Script(
            ops=(SetTimeout(60_000.0, handler(Navigate("http://b.com/"))),),
            url="http://s.com/a.js",
        )
        serve(net, "a.com", make_page(scripts=[script]))
        browser = make_browser(net)
        tab = browser.visit("http://a.com/")
        assert tab.current_url.host == "a.com"

    def test_each_load_gets_fresh_dom(self, net):
        script = Script(
            ops=(AddListener("document", "click", handler(), once=False),),
            url="http://s.com/a.js",
        )
        page = make_page(scripts=[script])
        serve(net, "a.com", page)
        browser = make_browser(net)
        first = browser.visit("http://a.com/")
        second = browser.visit("http://a.com/")
        assert first.load is not second.load
        assert first.page is second.page is page  # served content is shared
        assert len(first.load.listeners[page.document]) == 1
        assert len(second.load.listeners[page.document]) == 1
        first_listener = first.load.listeners[page.document][0]
        assert first_listener is not second.load.listeners[page.document][0]


class TestClicks:
    def ad_page(self, click_url, once=True):
        script = Script(
            ops=(AddListener("document", "click", handler(OpenTab(click_url)), once=once),),
            url="http://code.adnet.com/tok.js",
        )
        return make_page(scripts=[script])

    def test_click_opens_popup(self, net):
        serve(net, "pub.com", self.ad_page("http://land.club/offer"))
        serve(net, "land.club", make_page(title="landing"))
        browser = make_browser(net)
        tab = browser.visit("http://pub.com/")
        target = tab.load.find_all("img")[0]
        outcome = browser.click(tab, target)
        assert outcome.triggered_ad
        assert len(outcome.new_tabs) == 1
        assert outcome.new_tabs[0].current_url.host == "land.club"

    def test_tab_open_logged_with_provenance(self, net):
        serve(net, "pub.com", self.ad_page("http://land.club/x"))
        serve(net, "land.club", make_page(title="landing"))
        browser = make_browser(net)
        tab = browser.visit("http://pub.com/")
        browser.click(tab, tab.load.find_all("img")[0])
        opens = browser.log.entries_of(TabOpenEntry)
        assert len(opens) == 1
        assert opens[0].source_url == "http://code.adnet.com/tok.js"

    def test_once_listener_single_shot(self, net):
        serve(net, "pub.com", self.ad_page("http://land.club/x", once=True))
        serve(net, "land.club", make_page(title="landing"))
        browser = make_browser(net)
        tab = browser.visit("http://pub.com/")
        target = tab.load.find_all("img")[0]
        first = browser.click(tab, target)
        second = browser.click(tab, target)
        assert first.triggered_ad
        assert not second.triggered_ad

    def test_stacked_networks_fire_one_per_click(self, net):
        scripts = [
            Script(
                ops=(AddListener("document", "click", handler(OpenTab(f"http://land{i}.club/x")), once=True),),
                url=f"http://code{i}.net/t.js",
            )
            for i in (1, 2)
        ]
        serve(net, "pub.com", make_page(scripts=scripts))
        serve(net, "land1.club", make_page(title="l1"))
        serve(net, "land2.club", make_page(title="l2"))
        browser = make_browser(net)
        tab = browser.visit("http://pub.com/")
        target = tab.load.find_all("img")[0]
        first = browser.click(tab, target)
        second = browser.click(tab, target)
        assert [t.current_url.host for t in first.new_tabs] == ["land1.club"]
        assert [t.current_url.host for t in second.new_tabs] == ["land2.club"]

    def test_transparent_overlay_intercepts_click(self, net):
        script = Script(
            ops=(InjectOverlay(handler=handler(OpenTab("http://land.club/x")), once=True),),
            url="http://code.adnet.com/ov.js",
        )
        serve(net, "pub.com", make_page(scripts=[script]))
        serve(net, "land.club", make_page(title="landing"))
        browser = make_browser(net)
        tab = browser.visit("http://pub.com/")
        # Click aimed at page content still hits the overlay.
        outcome = browser.click(tab, tab.load.find_all("img")[0])
        assert outcome.triggered_ad

    def test_click_on_dead_tab_rejected(self, net):
        browser = make_browser(net)
        tab = browser.visit("http://ghost.club/")
        with pytest.raises(BrowserError):
            browser.click(tab, div())

    def test_navigation_away_detected(self, net):
        script = Script(
            ops=(AddListener("document", "click", handler(Navigate("http://other.com/"))),),
            url="http://s.com/a.js",
        )
        serve(net, "pub.com", make_page(scripts=[script]))
        serve(net, "other.com", make_page(title="elsewhere"))
        browser = make_browser(net)
        tab = browser.visit("http://pub.com/")
        outcome = browser.click(tab, tab.load.find_all("img")[0])
        assert outcome.navigated_away
        assert outcome.triggered_ad


class TestDialogsAndLocking:
    def locked_page(self):
        script = Script(
            ops=(Alert("you are infected", repeat=2), OnBeforeUnload("stay")),
            url=None,
        )
        return make_page(scripts=[script])

    def test_dialogs_logged_and_bypassed(self, net):
        serve(net, "scam.club", self.locked_page())
        browser = make_browser(net, bypass_locking=True)
        browser.visit("http://scam.club/")
        dialogs = browser.log.entries_of(DialogEntry)
        assert len(dialogs) == 2
        assert all(entry.bypassed for entry in dialogs)

    def test_bypass_allows_navigation_away(self, net):
        serve(net, "scam.club", self.locked_page())
        serve(net, "safe.com", make_page(title="safe"))
        browser = make_browser(net, bypass_locking=True)
        tab = browser.visit("http://scam.club/")
        browser.visit("http://safe.com/", tab=tab)
        assert tab.current_url.host == "safe.com"

    def test_without_bypass_navigation_blocked(self, net):
        serve(net, "scam.club", self.locked_page())
        serve(net, "safe.com", make_page(title="safe"))
        browser = make_browser(net, bypass_locking=False)
        tab = browser.visit("http://scam.club/")
        browser.visit("http://safe.com/", tab=tab)
        assert tab.current_url.host == "scam.club"  # locked in

    def test_unload_nag_cleared_after_successful_leave(self, net):
        serve(net, "scam.club", self.locked_page())
        serve(net, "safe.com", make_page(title="safe"))
        browser = make_browser(net, bypass_locking=True)
        tab = browser.visit("http://scam.club/")
        browser.visit("http://safe.com/", tab=tab)
        assert tab.unload_nag is None


class TestDownloadsAndNotifications:
    def test_download_recorded(self, net):
        class FakePayload:
            filename = "setup.exe"
            sha256 = "0" * 64

        script = Script(
            ops=(AddListener("document", "click", handler(TriggerDownload("http://dl.club/setup"))),),
            url=None,
        )
        serve(net, "evil.club", make_page(scripts=[script]))
        net.register(
            "dl.club",
            FunctionServer(lambda r, c: download_response(FakePayload(), "setup.exe")),
        )
        browser = make_browser(net)
        tab = browser.visit("http://evil.club/")
        outcome = browser.click(tab, tab.load.find_all("img")[0])
        assert len(outcome.downloads) == 1
        entry = outcome.downloads[0]
        assert isinstance(entry, DownloadEntry)
        assert entry.filename == "setup.exe"
        assert not outcome.navigated_away  # downloads don't replace the page

    def test_notification_prompt_recorded(self, net):
        script = Script(ops=(RequestNotificationPermission("allow me"),), url=None)
        serve(net, "push.club", make_page(scripts=[script]))
        browser = make_browser(net)
        browser.visit("http://push.club/")
        prompts = browser.log.entries_of(NotificationPromptEntry)
        assert len(prompts) == 1
        assert prompts[0].prompt_text == "allow me"


class TestScreenshots:
    def test_screenshot_of_live_page(self, net):
        serve(net, "a.com", make_page(title="shot"))
        browser = make_browser(net)
        tab = browser.visit("http://a.com/")
        shot = browser.screenshot(tab)
        assert shot.image.shape == (72, 128)
        assert shot.url == "http://a.com/"

    def test_dead_pages_share_screenshot(self, net):
        browser = make_browser(net)
        tab_a = browser.visit("http://dead1.club/")
        tab_b = browser.visit("http://dead2.club/")
        import numpy as np

        assert np.array_equal(
            browser.screenshot(tab_a).image, browser.screenshot(tab_b).image
        )
